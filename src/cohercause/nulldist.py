"""Null law of the estimated partial coherence statistic.

Under the null hypothesis of zero conditional cross-covariance, one
minus the sample partial coherence from M i.i.d. columns follows the
Wilks Lambda distribution Lambda(p, M - r - q, q), whose stochastic
representation is a product of p independent Beta variables

    b_i ~ Beta((M - r - q - i + 1) / 2, q / 2),   i = 1..p.

Thresholds and p-values come from Monte Carlo draws of that product;
Bartlett's large-M chi-squared approximation is available as a cheap
alternative.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .streams import stream_rng

__all__ = [
    "WilksLambdaSpec",
    "make_spec",
    "sample_null",
    "critical_value",
    "p_value",
    "bartlett_pvalue",
    "bartlett_critical_value",
]

DEFAULT_N_MC = 200_000
DEFAULT_SEED = 42

# Fixed partition size for the sampling streams; chunk i always uses
# stream index i, so results are identical for any worker count.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class WilksLambdaSpec:
    """Parameters of the Wilks Lambda null law for given (p, q, r, M).

    ``beta_params`` lists the (a_i, b_i) shape pairs of the independent
    Beta factors. Requires M - r > p + q for the law to be proper.
    """

    p: int
    q: int
    r: int
    M: int
    beta_params: tuple[tuple[float, float], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1 or self.r < 0:
            raise ValueError(f"invalid dims (p={self.p}, q={self.q}, r={self.r})")
        if self.M - self.r <= self.p + self.q:
            raise ValueError(
                f"insufficient samples: need M - r > p + q, got M={self.M}, "
                f"r={self.r}, p={self.p}, q={self.q}"
            )
        params = tuple(
            ((self.M - self.r - self.q - i + 1) / 2.0, self.q / 2.0)
            for i in range(1, self.p + 1)
        )
        if any(a <= 0 or b <= 0 for a, b in params):
            raise ValueError("Beta shape parameters must be positive")
        object.__setattr__(self, "beta_params", params)


def make_spec(p: int, q: int, r: int, M: int) -> WilksLambdaSpec:
    """Build the null-law spec, validating the sample-count condition."""
    return WilksLambdaSpec(p=p, q=q, r=r, M=M)


def _sample_chunk(spec: WilksLambdaSpec, n: int, seed: int, chunk_index: int) -> np.ndarray:
    rng = stream_rng(seed, chunk_index)
    prod = np.ones(n)
    for a, b in spec.beta_params:
        # Two gamma draws per factor; valid for half-integer shapes
        # (b = q/2 = 0.5 included), unlike some direct Beta samplers.
        g1 = rng.gamma(a, size=n)
        g2 = rng.gamma(b, size=n)
        prod *= g1 / (g1 + g2)
    return 1.0 - prod


def sample_null(
    spec: WilksLambdaSpec, n: int, seed: int = DEFAULT_SEED, jobs: int = 1
) -> np.ndarray:
    """Draw n i.i.d. samples of the null statistic 1 - prod b_i.

    Deterministic in (spec, n, seed): the draw is partitioned into
    fixed-size chunks with one derived stream each, so the result does
    not depend on ``jobs``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    if jobs > 1 and len(sizes) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(
                pool.map(
                    _sample_chunk,
                    [spec] * len(sizes),
                    sizes,
                    [seed] * len(sizes),
                    range(len(sizes)),
                )
            )
    else:
        parts = [_sample_chunk(spec, size, seed, i) for i, size in enumerate(sizes)]
    return np.concatenate(parts)


def _order_statistic_threshold(samples: np.ndarray, alpha: float) -> float:
    """The m-th largest sample with m = floor(alpha (n + 1)).

    Rejecting when the statistic exceeds this threshold agrees exactly
    with rejecting when the add-one-smoothed p-value falls below alpha,
    provided alpha (n + 1) is not an integer and the statistic is
    continuous. Fewer than 50 draws in a tail, n min(alpha, 1 - alpha) < 50,
    can break that agreement and raise ``ValueError``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = samples.size
    if n * min(alpha, 1.0 - alpha) < 50:
        raise ValueError(
            f"n_mc={n} gives insufficient tail resolution for alpha={alpha}"
        )
    m = int(math.floor(alpha * (n + 1)))
    return float(np.partition(samples, n - m)[n - m])


def _mc_p_value(samples: np.ndarray, stat: float) -> float:
    """Add-one-smoothed Monte Carlo p-value, (k + 1) / (n + 1)."""
    if not 0.0 <= stat <= 1.0:
        raise ValueError(f"statistic must lie in [0, 1], got {stat}")
    return (int(np.count_nonzero(samples >= stat)) + 1) / (samples.size + 1)


def critical_value(
    spec: WilksLambdaSpec,
    alpha: float,
    n_mc: int = DEFAULT_N_MC,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> float:
    """Monte Carlo (1 - alpha)-quantile of the null statistic.

    Reject the null when the observed statistic exceeds the returned
    threshold.
    """
    return _order_statistic_threshold(sample_null(spec, n_mc, seed=seed, jobs=jobs), alpha)


def p_value(
    spec: WilksLambdaSpec,
    stat: float,
    n_mc: int = DEFAULT_N_MC,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> float:
    """Add-one-smoothed Monte Carlo p-value, (k + 1) / (n + 1)."""
    return _mc_p_value(sample_null(spec, n_mc, seed=seed, jobs=jobs), stat)


def _bartlett_factor(spec: WilksLambdaSpec) -> float:
    return spec.M - spec.r - (spec.p + spec.q + 1) / 2.0


def bartlett_pvalue(spec: WilksLambdaSpec, stat: float) -> float:
    """Upper-tail chi-squared probability of the Bartlett-transformed statistic.

    -(M - r - (p + q + 1)/2) log(1 - stat) is asymptotically chi-squared
    with pq degrees of freedom for large M.
    """
    if not 0.0 <= stat < 1.0:
        raise ValueError(f"statistic must lie in [0, 1), got {stat}")
    transformed = -_bartlett_factor(spec) * math.log1p(-stat)
    return float(stats.chi2.sf(transformed, spec.p * spec.q))


def bartlett_critical_value(spec: WilksLambdaSpec, alpha: float) -> float:
    """Threshold on the statistic implied by the Bartlett approximation."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    chi2_crit = stats.chi2.isf(alpha, spec.p * spec.q)
    return float(-math.expm1(-chi2_crit / _bartlett_factor(spec)))
