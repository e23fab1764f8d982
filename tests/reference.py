"""Independent routes to the package's quantities, held against it in the tests.

The package computes each quantity one way: partial coherence through the
kernel's single Cholesky factor, composites through ``LagSpec`` rows. The
routes here reach the same quantities another way (symmetric inverse
square roots, named Schur complements, block-by-block assembly, one
lag-table lookup per entry), so that agreement between the two is evidence
for both. They use the package's public names, plus its pivot rule
(``_checked_cholesky``) and clamp (``K_CLAMP``), so that a rank-deficient
block is reported exactly as the kernel reports it, and the private stream
layout of the draws they reproduce (the null law's ``_CHUNK``, the AR-core
generator ``_barnett_cores`` and its MA step ``_ma_step``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from cohercause import (
    BarnettModelSpec,
    BlockDims,
    CompositeCovariance,
    CovarianceError,
    CovarianceSequences,
    LagSpec,
    MAFilterSpec,
    WilksLambdaSpec,
    analytic_covariances,
    composite_from_sequences,
    schur_complement,
)
from cohercause.coherence import K_CLAMP
from cohercause.covariance import _checked_cholesky
from cohercause.nulldist import _CHUNK
from cohercause.simulate import _barnett_cores, _ma_step
from cohercause.streams import stream_rng


# --- covariance ---------------------------------------------------------


@dataclass(frozen=True)
class ConditionalCovariances:
    """Error covariances after regressing on z (and on v = (y, z)).

    ``uu_z`` is the joint error covariance of (x - x̂(z), y - ŷ(z)); its
    corner blocks are ``xx_z`` and ``yy_z`` and its off-diagonal block is
    the partial cross-covariance ``xy_z``. ``xx_v`` is the error
    covariance of x estimated from both y and z.
    """

    uu_z: np.ndarray
    xx_z: np.ndarray
    yy_z: np.ndarray
    xy_z: np.ndarray
    xx_v: np.ndarray


def assemble_composite(
    xx: np.ndarray,
    xy: np.ndarray,
    xz: np.ndarray,
    yy: np.ndarray,
    yz: np.ndarray,
    zz: np.ndarray,
    dims: BlockDims,
) -> CompositeCovariance:
    """Assemble the six distinct blocks into a validated composite covariance.

    Shapes must match ``dims``; for r = 0 the z-facing blocks must be
    empty (a shape with a zero axis is fine). The matrix is symmetrized
    by averaging with its transpose before validation. Raises
    ``CovarianceError`` on a shape mismatch or a PSD violation.
    """
    p, q, r = dims.p, dims.q, dims.r
    named = {
        "xx": (np.atleast_2d(np.asarray(xx, dtype=float)), (p, p)),
        "xy": (np.atleast_2d(np.asarray(xy, dtype=float)), (p, q)),
        "yy": (np.atleast_2d(np.asarray(yy, dtype=float)), (q, q)),
    }
    if r:
        named["xz"] = (np.atleast_2d(np.asarray(xz, dtype=float)), (p, r))
        named["yz"] = (np.atleast_2d(np.asarray(yz, dtype=float)), (q, r))
        named["zz"] = (np.atleast_2d(np.asarray(zz, dtype=float)), (r, r))
    else:
        for name, block in (("xz", xz), ("yz", yz), ("zz", zz)):
            if np.asarray(block, dtype=float).size != 0:
                raise CovarianceError(f"block {name} must be empty when r = 0")
    for name, (block, shape) in named.items():
        if block.shape != shape:
            raise CovarianceError(f"block {name} has shape {block.shape}, expected {shape}")
    n = dims.total
    m = np.zeros((n, n))
    xs, ys, zs = dims.x_slice, dims.y_slice, dims.z_slice
    m[xs, xs] = named["xx"][0]
    m[xs, ys] = named["xy"][0]
    m[ys, xs] = named["xy"][0].T
    m[ys, ys] = named["yy"][0]
    if r:
        m[xs, zs] = named["xz"][0]
        m[zs, xs] = named["xz"][0].T
        m[ys, zs] = named["yz"][0]
        m[zs, ys] = named["yz"][0].T
        m[zs, zs] = named["zz"][0]
    return CompositeCovariance.from_matrix(m, dims)


def conditional_covariances(R: CompositeCovariance) -> ConditionalCovariances:
    """All z-conditioned error covariances of ``R``, plus x given (y, z)."""
    p = R.dims.p
    uu_z = schur_complement(R, "uu")
    return ConditionalCovariances(
        uu_z=uu_z,
        xx_z=uu_z[:p, :p],
        yy_z=uu_z[p:, p:],
        xy_z=uu_z[:p, p:],
        xx_v=schur_complement(R, "xx_v"),
    )


def inv_sqrt_spd(A: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix.

    The result B satisfies B A B = I. Computed by eigendecomposition,
    which keeps B exactly symmetric.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0:
        return A.copy()
    vals, vecs = la.eigh(0.5 * (A + A.T))
    if vals[0] <= 0:
        raise CovarianceError(f"matrix is not positive definite: min eigenvalue {vals[0]:.3e}")
    return (vecs / np.sqrt(vals)) @ vecs.T


def log_det_spd(A: np.ndarray) -> float:
    """log det of an SPD matrix via its Cholesky factor."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0:
        return 0.0
    try:
        cf = la.cholesky(0.5 * (A + A.T), lower=True)
    except la.LinAlgError:
        raise CovarianceError("matrix is not positive definite") from None
    return float(2.0 * np.sum(np.log(np.diag(cf))))


# --- coherence ----------------------------------------------------------


def _given_z(R: CompositeCovariance) -> tuple[np.ndarray, np.ndarray]:
    """R_uu|z and the Cholesky factor of R_yy|z, under the kernel's pivot rule.

    x given z and y given z are each checked by factoring the (z, x) or
    (z, y) principal sub-matrix of R, so a pivot is measured against the
    block's unconditional variance, as in the kernel; the trailing block
    of the (z, y) factor is the factor of R_yy|z.

    Raises
    ------
    CovarianceError
        Naming z, x given z or y given z as rank-deficient.
    """
    dims = R.dims
    uu = schur_complement(R, "uu")
    for name, block in (("x", dims.x_slice), ("y", dims.y_slice)):
        order = np.r_[dims.z_slice, block]
        L = _checked_cholesky(R.entries[order[:, None], order])
        if L is None:
            raise CovarianceError(f"{name} given z is rank-deficient")
    return uu, L[dims.r :, dims.r :]  # L is the (z, y) factor, y checked last


def coherence_matrix(R: CompositeCovariance) -> np.ndarray:
    """The whitened conditional cross-covariance C = A^{-1/2} B D^{-1/2}.

    Here A = R_xx|z, B = R_xy|z, D = R_yy|z. All singular values of the
    result lie in [0, 1] up to rounding. It is the symmetric-root reference
    for the kernel's coherence matrix; a rank-deficient block raises, by
    name (z, x given z or y given z).
    """
    p = R.dims.p
    uu, _ = _given_z(R)
    return inv_sqrt_spd(uu[:p, :p]) @ uu[:p, p:] @ inv_sqrt_spd(uu[p:, p:])


def partial_canonical_correlations(C: np.ndarray) -> np.ndarray:
    """Singular values of the coherence matrix, descending, clamped to [0, 1)."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.all(np.isfinite(C)):
        raise ValueError("coherence matrix contains non-finite entries")
    k = la.svd(C, compute_uv=False)
    return np.clip(k, 0.0, K_CLAMP)


def conditional_estimator_gain(R: CompositeCovariance) -> np.ndarray:
    """Gain applied to the innovation y - ŷ(z) when estimating x from (y, z).

    The minimum mean-squared-error estimate is
    x̂(v) = x̂(z) + G (y - ŷ(z)) with G = R_xy|z R_yy|z^{-1}; a zero gain
    means y contributes nothing once z is accounted for. A rank-deficient
    block raises, by name (z, x given z or y given z).
    """
    uu, L_yy = _given_z(R)
    p = R.dims.p
    return la.cho_solve((L_yy, True), uu[:p, p:].T).T


# --- nulldist -----------------------------------------------------------


def concatenated_sample_null(spec: WilksLambdaSpec, n: int, seed: int) -> np.ndarray:
    """``sample_null``'s draw, as one fresh array per chunk, concatenated.

    Chunk i of ``_CHUNK`` draws comes from stream (seed, i), and each Beta
    factor is formed from two fresh gamma arrays, g1 / (g1 + g2).
    """
    if spec.q < spec.p:
        spec = WilksLambdaSpec(spec.q, spec.p, spec.r, spec.M)
    parts = []
    for i, start in enumerate(range(0, n, _CHUNK)):
        rng = stream_rng(seed, i)
        size = min(_CHUNK, n - start)
        prod = np.ones(size)
        for a, b in spec.beta_params:
            g1 = rng.gamma(a, size=size)
            g2 = rng.gamma(b, size=size)
            prod *= g1 / (g1 + g2)
        parts.append(1.0 - prod)
    return np.concatenate(parts)


# --- simulate -----------------------------------------------------------


def barnett_on_stream(
    spec: BarnettModelSpec, length: int, seed: int, stream: int
) -> tuple[np.ndarray, np.ndarray]:
    """``gen_barnett``'s pair drawn from noise streams (seed, stream, 0) and
    (seed, stream, 1), as one block of the AR-core generator and its MA step."""
    r = spec.ma_order
    return _ma_step(spec, next(_barnett_cores(spec, length, length, seed, stream, r)), r)



def overlap_sum(al: np.ndarray, be: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """sum_k al[k] be[k+m] per lag m, as one dot product of the overlap per lag."""
    out = np.empty(lags.size)
    for i, m in enumerate(lags):
        if m >= 0:
            n = min(al.size, be.size - m)
            out[i] = float(al[:n] @ be[m : m + n]) if n > 0 else 0.0
        else:
            n = min(be.size, al.size + m)
            out[i] = float(al[-m : -m + n] @ be[:n]) if n > 0 else 0.0
    return out


def two_sided_dtft(seq: np.ndarray, grid_size: int) -> np.ndarray:
    """FFT of a two-sided sequence placed lag by lag on a zero-padded grid."""
    max_lag = seq.size // 2
    buf = np.zeros(grid_size, dtype=complex)
    for m in range(-max_lag, max_lag + 1):
        buf[m % grid_size] += seq[max_lag + m]
    return np.fft.fft(buf)


def _at(seqs: CovarianceSequences, arr: np.ndarray, m: int) -> float:
    if abs(m) > seqs.max_lag:
        raise ValueError(f"lag {m} exceeds the tabulated range {seqs.max_lag}")
    return float(arr[seqs.max_lag + m])


def xx_at(seqs: CovarianceSequences, m: int) -> float:
    """E[x_n x_{n+m}] read from the tabulated sequence."""
    return _at(seqs, seqs.xx, m)


def yy_at(seqs: CovarianceSequences, m: int) -> float:
    """E[y_n y_{n+m}] read from the tabulated sequence."""
    return _at(seqs, seqs.yy, m)


def xy_at(seqs: CovarianceSequences, m: int) -> float:
    """E[x_n y_{n+m}] read from the tabulated sequence."""
    return _at(seqs, seqs.xy, m)


def model_composite_covariance(
    spec: MAFilterSpec | BarnettModelSpec | CovarianceSequences,
    s: int,
    t: int,
    conditioning: str = "past-of-x",
    T_cond: int = 20,
) -> CompositeCovariance:
    """Population covariance of (x_s, y_t, z) for the pairwise statistic.

    ``z`` is either the past of x up to time t with x_s excluded, or the
    past of y up to time t - 1, truncated to ``T_cond`` samples; x_s is
    never an element of z. Accepts precomputed sequences to avoid
    re-deriving them per grid point.
    """
    lag = LagSpec.pairwise(s - t, T_cond=T_cond, conditioning=conditioning)
    rows, d = lag.rows, lag.dims
    offsets = [off for _, off in rows]
    needed = max(offsets) - min(offsets)
    if isinstance(spec, CovarianceSequences):
        seqs = spec
        if needed > seqs.max_lag:
            raise ValueError(
                f"lag range exceeded: need {needed}, sequences cover {seqs.max_lag}"
            )
    else:
        seqs = analytic_covariances(spec, needed)
    return composite_from_sequences(
        seqs, rows[: d.p], rows[d.p : d.p + d.q], rows[d.p + d.q :]
    )
