"""Shared generators for randomized matrix tests."""
import numpy as np

from cohercause import BlockDims, CompositeCovariance

CORPUS_DIMS = (BlockDims(1, 1, 1), BlockDims(3, 2, 4), BlockDims(5, 5, 2))


def random_pd(rng, n, jitter=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * n * np.eye(n)


def random_composite(rng, dims, jitter=0.5):
    return CompositeCovariance.from_matrix(random_pd(rng, dims.total, jitter), dims)


def random_nonsingular(rng, n):
    while True:
        t = rng.standard_normal((n, n))
        if n == 0 or abs(np.linalg.det(t)) > 1e-3:
            return t


def degenerate_pair(case, n=400):
    """An (x, y) pair whose influence-test panel has a rank-deficient block."""
    y = np.random.default_rng(9).standard_normal(n)
    x = {
        "constant-x": np.full(n, 3.0),
        "constant-x-inexact": np.full(n, 0.1),
        "x-equals-y": y,
        "x-is-lagged-y": np.r_[0.0, y[:-1]],
        "x-affine-in-y": 2.0 * y + 1.0,
        "constant-y": y,
    }[case]
    if case == "constant-y":
        y = np.full(n, -1.5)
    return x, y


# Which block each degenerate pair makes rank-deficient: a constant y
# leaves the past of y, z, singular before x is reached. The mean of 0.1
# repeated is not exactly 0.1, so only an exactly zeroed row names x.
DEGENERATE_BLOCKS = {
    "constant-x": "x given z",
    "constant-x-inexact": "x given z",
    "x-equals-y": "x given z",
    "x-is-lagged-y": "x given z",
    "x-affine-in-y": "x given z",
    "constant-y": "z",
}
