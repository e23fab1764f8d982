"""Null law of the estimated partial coherence statistic.

Under the null hypothesis of zero conditional cross-covariance, one
minus the sample partial coherence from M i.i.d. columns follows the
Wilks Lambda distribution Lambda(p, M - r - q, q), whose stochastic
representation is a product of p independent Beta variables

    b_i ~ Beta((M - r - q - i + 1) / 2, q / 2),   i = 1..p.

Lambda(p, m, q) has the law of Lambda(q, m + q - p, p) (Anderson, An
Introduction to Multivariate Statistical Analysis, section 8.4), so the
Monte Carlo draws take the shorter of the two products: min(p, q) Beta
factors per draw, one for the default influence test (q = 1). One
function, :func:`null_law`, picks the law and reads every threshold and
p-value: from those draws, made in the calling process, or from Bartlett's
large-M chi-squared approximation, a cheap alternative. The draws are
written chunk by chunk into one array, which the threshold reader
partitions in place, so the law holds its n draws and one chunk's two
gamma buffers (1 MiB), and nothing more. The Monte Carlo
law needs numpy only; the two Bartlett functions import scipy.special's
chi-squared tail and inverse when they run, so importing this module loads
no part of scipy (scipy.special takes ~0.2 s to import).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .streams import stream_rng

__all__ = ["WilksLambdaSpec", "sample_null", "null_law"]

DEFAULT_N_MC = 200_000
DEFAULT_SEED = 42

# Draws come in chunks of this size, chunk i from stream index i. Its two
# gamma buffers (1 MiB together) are a draw's only temporaries.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class WilksLambdaSpec:
    """Parameters of the Wilks Lambda null law for given (p, q, r, M).

    ``beta_params`` lists the (a_i, b_i) shape pairs of the p independent
    Beta factors of the paper's form. Requires M - r > p + q for the law
    to be proper.
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
        object.__setattr__(self, "beta_params", params)


def sample_null(spec: WilksLambdaSpec, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Draw n i.i.d. samples of the null statistic 1 - prod b_i.

    The product drawn is the shorter of the paper's p factors,
    ``spec.beta_params``, and the q factors of the equal law
    Lambda(q, m + q - p, p), ``WilksLambdaSpec(q, p, r, M).beta_params``.
    Deterministic in (spec, n, seed): chunk i of ``_CHUNK`` draws comes
    from stream (seed, i). The draws are made in the calling process, into
    the returned array, so a draw of n samples holds those n doubles and two
    reused gamma buffers of one chunk.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spec.q < spec.p:
        spec = WilksLambdaSpec(spec.q, spec.p, spec.r, spec.M)
    out = np.ones(n)
    buffers = np.empty((2, min(n, _CHUNK)))
    for i, start in enumerate(range(0, n, _CHUNK)):
        rng = stream_rng(seed, i)
        prod = out[start : start + _CHUNK]
        g1, g2 = buffers[:, : prod.size]
        for a, b in spec.beta_params:
            # Two gamma draws per factor; valid for half-integer shapes
            # (a shape of 0.5 included), unlike some direct Beta samplers.
            rng.standard_gamma(a, out=g1)
            rng.standard_gamma(b, out=g2)
            g2 += g1
            g1 /= g2
            prod *= g1
    return np.subtract(1.0, out, out=out)


def _order_statistic_threshold(samples: np.ndarray, alpha: float) -> float:
    """The m-th largest sample with m = floor(alpha (n + 1)).

    Rejecting when the statistic exceeds this threshold agrees exactly
    with rejecting when the add-one-smoothed p-value falls below alpha,
    provided alpha (n + 1) is not an integer and the statistic is
    continuous. Fewer than 50 draws in a tail, n min(alpha, 1 - alpha) < 50,
    can break that agreement and raise ``ValueError``.

    ``samples`` is partitioned in place, so no copy of it is made. That
    reorders it but moves no count, so the p-value reader of the same draw
    and later thresholds, at any alpha and in any order, read what they
    would from the unpartitioned draw.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = samples.size
    if n * min(alpha, 1.0 - alpha) < 50:
        raise ValueError(
            f"n_mc={n} gives insufficient tail resolution for alpha={alpha}"
        )
    m = int(math.floor(alpha * (n + 1)))
    samples.partition(n - m)
    return float(samples[n - m])


def _mc_p_value(samples: np.ndarray, stat: float) -> float:
    """Add-one-smoothed Monte Carlo p-value, (k + 1) / (n + 1)."""
    if not 0.0 <= stat <= 1.0:
        raise ValueError(f"statistic must lie in [0, 1], got {stat}")
    return (int(np.count_nonzero(samples >= stat)) + 1) / (samples.size + 1)


def null_law(
    spec: WilksLambdaSpec,
    method: str = "wilks-mc",
    n_mc: int = DEFAULT_N_MC,
    seed: int = DEFAULT_SEED,
) -> tuple[partial, partial]:
    """The null law's two readers, ``(threshold(alpha), p_value(stat))``.

    "wilks-mc" reads both from one ``sample_null`` draw, on which they agree
    (see ``_order_statistic_threshold``); "bartlett" draws nothing.
    """
    if method == "wilks-mc":
        samples = sample_null(spec, n_mc, seed=seed)
        return partial(_order_statistic_threshold, samples), partial(_mc_p_value, samples)
    if method == "bartlett":
        return partial(_bartlett_critical_value, spec), partial(_bartlett_pvalue, spec)
    raise ValueError(f"unknown method {method!r}; expected wilks-mc or bartlett")


def _bartlett_factor(spec: WilksLambdaSpec) -> float:
    return spec.M - spec.r - (spec.p + spec.q + 1) / 2.0


def _bartlett_pvalue(spec: WilksLambdaSpec, stat: float) -> float:
    """Upper-tail chi-squared probability of the Bartlett-transformed statistic.

    -(M - r - (p + q + 1)/2) log(1 - stat) is asymptotically chi-squared
    with pq degrees of freedom for large M.
    """
    if not 0.0 <= stat < 1.0:
        raise ValueError(f"statistic must lie in [0, 1), got {stat}")
    from scipy.special import chdtrc

    transformed = -_bartlett_factor(spec) * math.log1p(-stat)
    return float(chdtrc(spec.p * spec.q, transformed))


def _bartlett_critical_value(spec: WilksLambdaSpec, alpha: float) -> float:
    """Threshold on the statistic implied by the Bartlett approximation."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    from scipy.special import chdtri

    chi2_crit = chdtri(spec.p * spec.q, alpha)
    return float(-math.expm1(-chi2_crit / _bartlett_factor(spec)))
