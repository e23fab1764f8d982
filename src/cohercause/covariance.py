"""Block-structured covariance algebra.

Covariance matrices over three stacked random vectors x (dim p), y (dim q)
and z (dim r) are stored whole, with named block accessors. The module
provides the conditional (Schur-complement) covariances obtained by
regressing out z or (y, z), the inverse-block readout that recovers the
same quantities from the precision matrix, and the checked Cholesky
factorization whose pivot rule every route applies to a rank-deficient
block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockDims",
    "CompositeCovariance",
    "CovarianceError",
    "schur_complement",
    "northwest_readout",
]

# Relative tolerances for validating composite covariances.
SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10

# Ill-conditioning rule: a Cholesky factorization fails it when LAPACK fails
# or a relative pivot L_ii^2 / S_ii falls below 1 / COND_LIMIT. Every route
# reports such a block as rank-deficient, by name; none is regularized.
COND_LIMIT = 1e12


class CovarianceError(ValueError):
    """Raised when a matrix violates a covariance contract (shape, symmetry,
    positive semidefiniteness) or a block fails the ill-conditioning rule."""


@dataclass(frozen=True)
class BlockDims:
    """Dimensions of the x, y and z blocks of a composite covariance."""

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p and q must be >= 1, got p={self.p}, q={self.q}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got r={self.r}")

    @property
    def total(self) -> int:
        return self.p + self.q + self.r

    @property
    def x_slice(self) -> slice:
        return slice(0, self.p)

    @property
    def y_slice(self) -> slice:
        return slice(self.p, self.p + self.q)

    @property
    def z_slice(self) -> slice:
        return slice(self.p + self.q, self.total)

    @property
    def u_slice(self) -> slice:
        """The composite (x, y) block."""
        return slice(0, self.p + self.q)

    @property
    def v_slice(self) -> slice:
        """The composite (y, z) block."""
        return slice(self.p, self.total)


@dataclass(frozen=True)
class CompositeCovariance:
    """Validated covariance of the stacked vector (x, y, z).

    Construct through :meth:`from_matrix`, which symmetrizes first;
    direct construction skips no validation because ``__post_init__``
    runs it.
    """

    entries: np.ndarray
    dims: BlockDims

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        n = self.dims.total
        if m.shape != (n, n):
            raise CovarianceError(f"expected a {n}x{n} matrix for dims {self.dims}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise CovarianceError("matrix contains non-finite entries")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise CovarianceError("matrix is not symmetric within tolerance")
        eigmin = np.linalg.eigvalsh(m)[0]
        trace = np.trace(m)
        if eigmin < -PSD_RTOL * max(trace, 1.0):
            raise CovarianceError(
                f"matrix is not positive semidefinite: min eigenvalue {eigmin:.3e} "
                f"against trace {trace:.3e}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, dims: BlockDims) -> "CompositeCovariance":
        """Symmetrize and validate an already-assembled matrix."""
        m = np.asarray(matrix, dtype=float)
        return cls(0.5 * (m + m.T), dims)

    @property
    def xx(self) -> np.ndarray:
        return self.entries[self.dims.x_slice, self.dims.x_slice]

    @property
    def xy(self) -> np.ndarray:
        return self.entries[self.dims.x_slice, self.dims.y_slice]

    @property
    def xz(self) -> np.ndarray:
        return self.entries[self.dims.x_slice, self.dims.z_slice]

    @property
    def yy(self) -> np.ndarray:
        return self.entries[self.dims.y_slice, self.dims.y_slice]

    @property
    def yz(self) -> np.ndarray:
        return self.entries[self.dims.y_slice, self.dims.z_slice]

    @property
    def zz(self) -> np.ndarray:
        return self.entries[self.dims.z_slice, self.dims.z_slice]

    @property
    def uu(self) -> np.ndarray:
        return self.entries[self.dims.u_slice, self.dims.u_slice]

    @property
    def uz(self) -> np.ndarray:
        return self.entries[self.dims.u_slice, self.dims.z_slice]

    @property
    def xv(self) -> np.ndarray:
        return self.entries[self.dims.x_slice, self.dims.v_slice]

    @property
    def vv(self) -> np.ndarray:
        return self.entries[self.dims.v_slice, self.dims.v_slice]


def _checked_cholesky(S: np.ndarray) -> np.ndarray | None:
    """Cholesky factors of a stack of SPD matrices, or None when one fails
    or has a relative pivot L_ii^2 / S_ii below 1 / COND_LIMIT."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2 / np.diagonal(S, axis1=-2, axis2=-1)
    return L if np.all(pivots >= 1.0 / COND_LIMIT) else None


def _solve_conditioning(rbb: np.ndarray, rab: np.ndarray, block: str) -> np.ndarray:
    """``rab @ rbb^{-1} @ rab.T`` through one checked Cholesky factor of ``rbb``.

    An empty ``rbb`` gives a zero correction (conditioning on nothing); a
    factor that fails the pivot rule raises ``"<block> is rank-deficient"``.
    """
    if rbb.shape[0] == 0:
        return np.zeros((rab.shape[0], rab.shape[0]))
    L = _checked_cholesky(rbb)
    if L is None:
        raise CovarianceError(f"{block} is rank-deficient")
    W = np.linalg.solve(L, rab.T)
    return W.T @ W


def schur_complement(R: CompositeCovariance, target: str) -> np.ndarray:
    """Compute a named conditional covariance of ``R``.

    Parameters
    ----------
    R : CompositeCovariance
    target : {"uu", "xx", "yy", "xx_v"}
        ``"uu"``, ``"xx"``, ``"yy"`` condition the named block on z;
        ``"xx_v"`` conditions x on v = (y, z).

    Returns
    -------
    ndarray
        The error covariance of the target block given the conditioning
        block. With r = 0 the z-conditioned targets are returned
        unchanged (conditioning on nothing).
    """
    if target == "uu":
        m = R.uu - _solve_conditioning(R.zz, R.uz, "z")
    elif target == "xx":
        m = R.xx - _solve_conditioning(R.zz, R.xz, "z")
    elif target == "yy":
        m = R.yy - _solve_conditioning(R.zz, R.yz, "z")
    elif target == "xx_v":
        m = R.xx - _solve_conditioning(R.vv, R.xv, "(y, z)")
    else:
        raise ValueError(f"unknown target {target!r}; expected uu, xx, yy or xx_v")
    return 0.5 * (m + m.T)


def northwest_readout(R: CompositeCovariance) -> np.ndarray:
    """Recover the (x, y)-given-z error covariance from the precision matrix.

    Inverts ``R``, reads the (p+q)-square Northwest block, and inverts it
    back. Equals ``schur_complement(R, "uu")`` for positive definite
    ``R``; the redundancy is the point, as the two routes cross-check
    each other.
    """
    try:
        linv = np.linalg.inv(np.linalg.cholesky(R.entries))
    except np.linalg.LinAlgError:
        raise CovarianceError("composite covariance is singular") from None
    rinv = linv.T @ linv
    out = np.linalg.inv(rinv[R.dims.u_slice, R.dims.u_slice])
    return 0.5 * (out + out.T)
