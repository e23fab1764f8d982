"""Partial coherence between two random vectors given a third.

The central quantity is

    rho2 = 1 - det[R_uu|z] / (det[R_xx|z] det[R_yy|z]),

a scale-invariant scalar in [0, 1] measuring the residual linear
dependence between x and y after both are regressed on z. It factors
through the singular values k_i of the doubly-whitened conditional
cross-covariance (the coherence matrix), is unchanged when the roles of
the two regressions are swapped (one vector onto two instead of two onto
one), and is invariant under block-diagonal nonsingular transforms of
(x, y, z). For multivariate normal vectors it carries the conditional
KL divergence, conditional mutual information and transfer entropy, all
monotone functions of one another.

Every production caller (the test statistic, both kinds of map, the
Monte Carlo studies) reaches rho2 through one batched kernel,
``_log_det_q``: a single Cholesky factorization of the composite
reordered to (z, x, y), from which log(1 - rho2) follows without
subtracting log-determinants; ``partial_coherence`` reads every field
from that factor. Two further routes, x regressed onto (y, z)
(``partial_coherence_one_onto_two``) and the inverse-block readout
(``covariance.northwest_readout``), are public and checked against it
in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    CompositeCovariance,
    CovarianceError,
    _checked_cholesky,
    schur_complement,
)

__all__ = [
    "PartialCoherenceResult",
    "InformationMeasures",
    "SpectralCoherence",
    "partial_coherence",
    "partial_coherence_one_onto_two",
    "information_measures",
    "block_diag_transform",
    "spectral_partial_coherence",
]

# Singular values of the coherence matrix are clamped below 1 so that
# log(1 - k^2) stays finite under rounding.
K_CLAMP = 1.0 - 1e-14

DEFAULT_SPECTRAL_GRID = 4096


@dataclass(frozen=True)
class PartialCoherenceResult:
    """Partial coherence with its canonical-correlation resolution.

    Attributes
    ----------
    rho2 : float
        Partial coherence in [0, 1].
    canonical_correlations : ndarray
        Partial canonical correlations k_i, descending, length min(p, q).
    coherence_matrix : ndarray
        The p-by-q whitened cross-covariance W^T (I + W W^T)^{-1/2} of the
        kernel's factor. Its singular values are exactly the canonical
        correlations; it equals the symmetric-root form
        R_xx|z^{-1/2} R_xy|z R_yy|z^{-1/2} up to rotations.
    det_q : float
        Determinant of the normalized error covariance, 1 - rho2.
    """

    rho2: float
    canonical_correlations: np.ndarray
    coherence_matrix: np.ndarray
    det_q: float


@dataclass(frozen=True)
class InformationMeasures:
    """Gaussian information equivalents of a partial coherence value.

    All four are deterministic functions of rho2:
    kl_divergence = mutual_information = -0.5 log(1 - rho2),
    transfer_entropy = 2 kl_divergence, gg_measure = 1 - rho2.
    The saturated case rho2 = 1 yields infinite divergences and a zero
    gg_measure.
    """

    kl_divergence: float
    mutual_information: float
    transfer_entropy: float
    gg_measure: float


@dataclass(frozen=True)
class SpectralCoherence:
    """Narrowband coherence spectrum and its broadband aggregate.

    ``broadband_rho2`` is one minus the geometric mean of (1 - k2) over
    the frequency grid, the infinite-window per-sample limit of partial
    coherence for jointly stationary scalar series.
    """

    frequencies: np.ndarray
    narrowband_k2: np.ndarray
    broadband_rho2: float


def _whitened_cross(S: np.ndarray, p: int, q: int, r: int) -> np.ndarray:
    """W = L_yy^{-1} L_yx for each (x, y, z)-ordered Gram of a (..., n, n) stack.

    The Gram is reordered to (z, x, y) and factored once, S = L L^T. Then
    S_yy|xz = L_yy L_yy^T and S_yy|z = L_yy (I_q + W W^T) L_yy^T, so
    1 - rho2 = det S_yy|xz / det S_yy|z = 1 / det(I_q + W W^T), and with
    lam the eigenvalues of W W^T, k^2 = lam / (1 + lam).

    Raises
    ------
    CovarianceError
        Naming the first block, z, x given z or y given (x, z), in which
        the factorization fails or a relative pivot falls below
        1 / COND_LIMIT.
    """
    n = p + q + r
    order = np.r_[p + q : n, : p + q]
    S = S[..., order[:, None], order]
    L = _checked_cholesky(S)
    if L is None:
        leading = ((r, "z"), (r + p, "x given z"))
        name = next(
            (nm for k, nm in leading if _checked_cholesky(S[..., :k, :k]) is None),
            "y given (x, z)",
        )
        raise CovarianceError(f"{name} is rank-deficient")
    return np.linalg.solve(L[..., r + p :, r + p :], L[..., r + p :, r : r + p])


def _log_det_q(S: np.ndarray, p: int, q: int, r: int) -> np.ndarray:
    """log(1 - rho2) = -log det(I_q + W W^T) for each (x, y, z)-ordered Gram.

    The log is returned because 1 - rho2 itself can round to zero for
    large blocks; callers take rho2 = -expm1(log) and det_q = exp(log).
    """
    W = _whitened_cross(S, p, q, r)
    # When p < q, q - p eigenvalues are zero and can round below it.
    lam = np.maximum(np.linalg.eigvalsh(W @ np.swapaxes(W, -1, -2)), 0.0)
    return -np.sum(np.log1p(lam), axis=-1)


def partial_coherence(R: CompositeCovariance) -> PartialCoherenceResult:
    """Partial coherence of x and y given z, with full diagnostics.

    Every field of the result comes from the kernel's one Cholesky
    factor: with lam the eigenvalues of W W^T (:func:`_whitened_cross`),
    clamped at 0, det_q = 1 / prod(1 + lam) and k^2 = lam / (1 + lam).

    Raises
    ------
    CovarianceError
        If a block is rank-deficient; the message names it (z, x given z
        or y given (x, z)).
    """
    dims = R.dims
    W = _whitened_cross(R.entries, dims.p, dims.q, dims.r)
    lam, V = np.linalg.eigh(W @ W.T)
    # When p < q, q - p eigenvalues are zero and can round below it.
    lam = np.maximum(lam, 0.0)
    log_det_q = -float(np.sum(np.log1p(lam)))
    k = np.sqrt(lam / (1.0 + lam))[::-1][: min(dims.p, dims.q)]
    return PartialCoherenceResult(
        rho2=-math.expm1(log_det_q),
        canonical_correlations=np.minimum(k, K_CLAMP),
        coherence_matrix=W.T @ (V / np.sqrt(1.0 + lam)) @ V.T,
        det_q=math.exp(log_det_q),
    )


def partial_coherence_one_onto_two(R: CompositeCovariance) -> float:
    """Partial coherence computed by regressing x onto v = (y, z).

    Normalizes the error covariance of x given v by the error covariance
    of x given z alone. Equal to ``partial_coherence(R).rho2``; kept as
    an independent route, which the tests hold the kernel against. A
    rank-deficient x given z or x given (y, z) raises, by name.
    """
    log_det = {}
    for name, target in (("x given z", "xx"), ("x given (y, z)", "xx_v")):
        L = _checked_cholesky(schur_complement(R, target))
        if L is None:
            raise CovarianceError(f"{name} is rank-deficient")
        log_det[target] = 2.0 * np.sum(np.log(np.diag(L)))
    return 1.0 - min(math.exp(log_det["xx_v"] - log_det["xx"]), 1.0)


def information_measures(result: PartialCoherenceResult | float) -> InformationMeasures:
    """Gaussian information measures carried by a partial coherence.

    Accepts either a :class:`PartialCoherenceResult` or a bare rho2
    value in [0, 1]. rho2 = 1 is reported as the saturated point
    (infinite divergence, zero gg_measure) rather than an error.
    """
    rho2 = result.rho2 if isinstance(result, PartialCoherenceResult) else float(result)
    if not 0.0 <= rho2 <= 1.0:
        raise ValueError(f"rho2 must lie in [0, 1], got {rho2}")
    if rho2 == 1.0:
        return InformationMeasures(
            kl_divergence=math.inf,
            mutual_information=math.inf,
            transfer_entropy=math.inf,
            gg_measure=0.0,
        )
    transfer_entropy = -math.log1p(-rho2)
    kl = 0.5 * transfer_entropy
    return InformationMeasures(
        kl_divergence=kl,
        mutual_information=kl,
        transfer_entropy=transfer_entropy,
        gg_measure=1.0 - rho2,
    )


def block_diag_transform(
    R: CompositeCovariance,
    tx: np.ndarray,
    ty: np.ndarray,
    tz: np.ndarray,
) -> CompositeCovariance:
    """Covariance of (Tx x, Ty y, Tz z) for nonsingular square blocks.

    Partial coherence and the partial canonical correlations of the
    result equal those of the input; this function exists largely so
    that the invariance can be exercised.
    """
    dims = R.dims
    tx = np.atleast_2d(np.asarray(tx, dtype=float))
    ty = np.atleast_2d(np.asarray(ty, dtype=float))
    tz = np.atleast_2d(np.asarray(tz, dtype=float)).reshape(dims.r, dims.r)
    for name, t, d in (("tx", tx, dims.p), ("ty", ty, dims.q), ("tz", tz, dims.r)):
        if t.shape != (d, d):
            raise ValueError(f"{name} must be {d}x{d}, got {t.shape}")
        if d and abs(np.linalg.det(t)) == 0.0:
            raise ValueError(f"{name} is singular")
    T = np.zeros((dims.total, dims.total))
    for sl, t in ((dims.x_slice, tx), (dims.y_slice, ty), (dims.z_slice, tz)):
        T[sl, sl] = t
    return CompositeCovariance.from_matrix(T @ R.entries @ T.T, dims)


def _two_sided_dtft(seq: np.ndarray, grid_size: int) -> np.ndarray:
    """DTFT of a two-sided sequence (odd length, lag 0 at the center) on
    the uniform grid theta_j = 2 pi j / grid_size, via a zero-padded FFT."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 1 or seq.size % 2 != 1:
        raise ValueError("covariance sequences must be one-dimensional with odd length")
    max_lag = seq.size // 2
    if 2 * max_lag + 1 > grid_size:
        raise ValueError("grid_size must exceed the sequence support")
    buf = np.zeros(grid_size, dtype=complex)
    # 2 max_lag + 1 <= grid_size, so the indices are distinct: each lag lands once.
    buf[np.arange(-max_lag, max_lag + 1) % grid_size] += seq
    return np.fft.fft(buf)


def spectral_partial_coherence(
    rxx: np.ndarray,
    ryy: np.ndarray,
    rxy: np.ndarray,
    grid_size: int = DEFAULT_SPECTRAL_GRID,
) -> SpectralCoherence:
    """Narrowband coherence spectrum from conditional covariance sequences.

    Parameters
    ----------
    rxx, ryy, rxy : ndarray
        Two-sided covariance sequences, odd length with lag 0 at the
        center index; ``rxx`` and ``ryy`` must be symmetric about lag 0,
        ``rxy`` need not be. Sequences are zero-padded to the grid.
    grid_size : int
        Number of uniform frequency points theta_j = 2 pi j / grid_size.

    Returns
    -------
    SpectralCoherence
        Per-frequency squared narrowband coherence
        k2(theta) = |Sxy|^2 / (Sxx Syy) and the broadband value
        1 - exp(sum_j log(1 - k2_j) / grid_size), the Riemann sum of the
        log-spectral integral.

    Raises
    ------
    ValueError
        If an auto-spectrum fails to be strictly positive somewhere on
        the grid.
    """
    sxx = _two_sided_dtft(rxx, grid_size).real
    syy = _two_sided_dtft(ryy, grid_size).real
    sxy = _two_sided_dtft(rxy, grid_size)
    if sxx.min() <= 0 or syy.min() <= 0:
        raise ValueError("auto-spectra must be strictly positive on the grid")
    k2 = np.abs(sxy) ** 2 / (sxx * syy)
    k2 = np.clip(k2, 0.0, K_CLAMP**2)
    broadband = 1.0 - math.exp(float(np.mean(np.log1p(-k2))))
    freqs = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return SpectralCoherence(
        frequencies=freqs, narrowband_k2=k2, broadband_rho2=broadband
    )
