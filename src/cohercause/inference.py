"""From raw sequences to a causality decision.

The pipeline is: embed two scalar sequences into lagged sample vectors (the
rows of a data panel D, each a zero-copy view of a sequence), form the Gram
of the centred rows, each scaled by a power of two to stay O(M) at any
floating-point scale and gathered one column chunk at a time, take its
partial coherence (scale-invariant, so that of S = D D^T) as the test
statistic, and compare it against the Wilks Lambda null law read by
``nulldist.null_law``. One minus it is the likelihood ratio for zero
conditional x-y cross-covariance. ``cli test`` forms the Gram straight from
the views, so D is never held whole; ``lag_embed`` copies it into a
``DataPanel`` for library callers.

A rejection is an indication of causal influence at the stated level,
relative to the chosen prima facie conditioning; a non-rejection is a
finding of non-causality at that level.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .covariance import BlockDims, CompositeCovariance
from .coherence import _log_det_q
from .nulldist import DEFAULT_N_MC, DEFAULT_SEED, WilksLambdaSpec, null_law

__all__ = [
    "Role",
    "LagSpec",
    "DataPanel",
    "TestOutcome",
    "lag_embed",
    "sample_covariance",
    "likelihood_ratio",
    "test_causal_influence",
    "read_sequence_csv",
]

_WINDOW_CHUNK_BYTES = 10 * 2**20


@dataclass(frozen=True)
class Role:
    """One block's sample selection: a channel and its lag offsets.

    Offsets are relative to the column time t; offset -k selects the
    sample at t - k, and positive offsets reach into the future.
    """

    channel: str
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.channel not in ("x", "y"):
            raise ValueError(f"channel must be 'x' or 'y', got {self.channel!r}")
        if len(self.offsets) < 1:
            raise ValueError("a role needs at least one offset")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError(f"duplicate offsets in role: {self.offsets}")


@dataclass(frozen=True)
class LagSpec:
    """Embedding recipe mapping two sequences onto (x, y, z) blocks."""

    x_role: Role
    y_role: Role
    z_role: Role
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        seen: set[tuple[str, int]] = set()
        for key in self.rows:
            if key in seen:
                raise ValueError(
                    f"sample {key} appears in more than one role; the same "
                    "sequence sample may not occur twice in one column"
                )
            seen.add(key)

    @property
    def rows(self) -> tuple[tuple[str, int], ...]:
        """The panel rows as (channel, offset) pairs, in (x, y, z) order.

        This is the one description of the embedding geometry: the data
        panel, the study windows and the population composites all read it.
        """
        return tuple(
            (role.channel, off)
            for role in (self.x_role, self.y_role, self.z_role)
            for off in role.offsets
        )

    @property
    def dims(self) -> BlockDims:
        return BlockDims(
            p=len(self.x_role.offsets),
            q=len(self.y_role.offsets),
            r=len(self.z_role.offsets),
        )

    @classmethod
    def influence_test(cls, T: int = 10, stride: int = 1) -> "LagSpec":
        """The causality-test embedding: x = [x_{t-1}..x_{t-T}], y = y_t,
        z = [y_{t-1}..y_{t-T}]."""
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        lags = tuple(range(-1, -T - 1, -1))
        return cls(Role("x", lags), Role("y", (0,)), Role("y", lags), stride)

    @classmethod
    def pairwise(
        cls,
        offset: int,
        T_cond: int = 20,
        conditioning: str = "past-of-x",
    ) -> "LagSpec":
        """The pairwise-map embedding (stride 1): x = x_{t+offset}, y = y_t, and
        z the chosen finite past (with the x sample excluded when it collides)."""
        if T_cond < 1:
            raise ValueError(f"T_cond must be >= 1, got {T_cond}")
        if conditioning == "past-of-x":
            z_offsets: list[int] = []
            j = 0
            while len(z_offsets) < T_cond:
                if j != offset:
                    z_offsets.append(j)
                j -= 1
            z_role = Role("x", tuple(z_offsets))
        elif conditioning == "past-of-y":
            z_role = Role("y", tuple(range(-1, -T_cond - 1, -1)))
        else:
            raise ValueError(
                f"unknown conditioning {conditioning!r}; expected past-of-x or past-of-y"
            )
        return cls(Role("x", (offset,)), Role("y", (0,)), z_role)


@dataclass(frozen=True)
class DataPanel:
    """Lag-embedded data matrix with rows grouped as (X; Y; Z).

    A panel is testable only when M > p + q + r (and strictly the Wilks
    law wants M - r > p + q); that is enforced where the statistic and
    the test are formed, so that small illustrative embeddings remain
    constructible.
    """

    data: np.ndarray
    dims: BlockDims

    def __post_init__(self) -> None:
        d = np.array(self.data, dtype=float)
        if d.ndim != 2 or d.shape[0] != self.dims.total:
            raise ValueError(
                f"panel must be {self.dims.total} x M, got shape {d.shape}"
            )
        if d.shape[1] < 1:
            raise ValueError("panel needs at least one column")
        d.flags.writeable = False
        object.__setattr__(self, "data", d)

    @property
    def M(self) -> int:
        return self.data.shape[1]


def _row_views(x: np.ndarray, y: np.ndarray, rows, stride: int = 1) -> list[np.ndarray]:
    """One zero-copy view per (channel, offset) row over the last axis.

    Entry k of every view is that row's sample at column time
    t = k * stride - lo, where [lo, hi] is the offset span widened to
    include t itself, so the views hold every stride-th of the columns
    t = -lo .. L - 1 - hi of length-L sequences. Raises ``ValueError`` when
    that leaves no column (L <= hi - lo).
    """
    offsets = [off for _, off in rows]
    lo, hi = min(0, *offsets), max(0, *offsets)
    n = x.shape[-1] - (hi - lo)
    if n < 1:
        raise ValueError(
            f"insufficient data: length {x.shape[-1]} is too short for the offsets "
            f"spanning [{min(offsets)}, {max(offsets)}]"
        )
    return [(x if ch == "x" else y)[..., off - lo : off - lo + n : stride] for ch, off in rows]


def _scaled_gram(rows, center: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram G of equal-length rows (a 2-D panel or row views), and scales u, v.

    Row i is divided by u_i, the power of two at or below its largest
    magnitude, which is exact and leaves it in (-2, 2). There it is centred if
    ``center`` and divided by v_i, the power of two above its largest
    deviation, so its scale is s_i = u_i v_i. Rows are gathered in column
    chunks of ``_WINDOW_CHUNK_BYTES``. No step overflows or inverts a scale,
    so G is O(M) for any finite rows, subnormal or near the float maximum;
    G_ij s_i s_j is the data-scale Gram exactly, and a centred row of equal
    samples is zero, so the kernel names it.
    """
    lo, hi = (np.array([f(v) for v in rows]) for f in (np.min, np.max))
    unit = np.ldexp(1.0, np.frexp(np.maximum(np.abs(lo), np.abs(hi)))[1] - 1)
    lo, hi = lo / unit, hi / unit
    if center:
        means = np.where(lo == hi, lo, [(v / u).mean() for v, u in zip(rows, unit)])
    else:
        means = np.zeros_like(lo)
    spread = np.ldexp(1.0, np.frexp(np.maximum(hi - means, means - lo))[1])
    chunk = max(1, _WINDOW_CHUNK_BYTES // (len(rows) * 8))
    gram = np.zeros((len(rows), len(rows)))
    for c0 in range(0, len(rows[0]), chunk):
        D = np.array([v[c0 : c0 + chunk] for v in rows])
        D /= unit[:, None]
        D -= means[:, None]
        D /= spread[:, None]
        gram += D @ D.T
        # Released before the next chunk is gathered, so one chunk is alive at a time.
        del D
    return gram, unit, spread


def lag_embed(x_seq: np.ndarray, y_seq: np.ndarray, spec: LagSpec) -> DataPanel:
    """Build the data panel of two one-dimensional sequences for a lag spec.

    Column k holds the spec's rows at t = t_0 + k ``spec.stride``, where t_0
    is the first t at which every offset lies inside the sequences.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    y_seq = np.asarray(y_seq, dtype=float)
    if x_seq.shape != y_seq.shape:
        raise ValueError("x and y sequences must have the same shape")
    if x_seq.ndim != 1:
        raise ValueError("lag_embed expects one-dimensional sequences")
    return DataPanel(data=_row_views(x_seq, y_seq, spec.rows, spec.stride), dims=spec.dims)


def sample_covariance(panel: DataPanel, center: bool = True) -> CompositeCovariance:
    """Unnormalized sample covariance S = D D^T of the panel, at data scale.

    With ``center`` (the default) the per-row sample mean is removed
    first; the null law then loses one effective sample, which
    :func:`test_causal_influence` accounts for by using M - 1. S is the
    test's scaled-row Gram multiplied back by s s^T.
    """
    gram, unit, spread = _scaled_gram(panel.data, center)
    s = unit * spread
    return CompositeCovariance.from_matrix(gram * s[:, None] * s, panel.dims)


def likelihood_ratio(S: CompositeCovariance) -> float:
    """The test statistic: partial coherence of the sample covariance.

    One minus the returned value is the ordinary likelihood ratio for
    the null of zero conditional cross-covariance. It comes from the one
    Cholesky kernel that the maps and the Monte Carlo studies also use.

    Raises
    ------
    CovarianceError
        If a block is rank-deficient, e.g. a constant series or x
        collinear with the conditioning set; the message names the
        first such block: z, x given z, or y given (x, z).
    """
    d = S.dims
    return float(-np.expm1(_log_det_q(S.entries, d.p, d.q, d.r)))


@dataclass(frozen=True)
class TestOutcome:
    """Decision record of one causality test."""

    statistic: float
    threshold: float
    p_value: float
    alpha: float
    method: str
    reject_null: bool
    p: int
    q: int
    r: int
    M: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def describe(self) -> str:
        if self.reject_null:
            return f"indication of causal influence at level {self.alpha}"
        return f"finding of non-causality at level {self.alpha}"


def test_causal_influence(
    panel: DataPanel,
    alpha: float = 0.05,
    method: str = "wilks-mc",
    n_mc: int = DEFAULT_N_MC,
    seed: int = DEFAULT_SEED,
    center: bool = True,
) -> TestOutcome:
    """Run the partial-coherence causality test on a panel.

    ``method`` selects the null law that :func:`null_law` reads: "wilks-mc"
    draws the exact Beta-product law by Monte Carlo, in the calling
    process, from the shorter of its two equal products (min(p, q)
    factors, one for the default q = 1; see :func:`sample_null`);
    "bartlett" uses the chi-squared approximation (cheaper, adequate for
    large M). The decision fields are mutually consistent: reject_null
    holds exactly when the statistic exceeds the threshold, and (for
    continuous statistics and non-integer alpha (n_mc + 1)) exactly when
    p_value < alpha. So "wilks-mc" raises ``ValueError`` when fewer than
    50 of the n_mc null draws fall in a tail.
    """
    return _test_outcome(panel.data, panel.dims, alpha, method, n_mc, seed, center)


def _test_outcome(
    rows, dims: BlockDims, alpha: float, method: str, n_mc: int, seed: int, center: bool
) -> TestOutcome:
    """The test on equal-length rows in (x, y, z) order: a panel's, or row views.

    M is the row length. ``cli test`` passes the views of its CSV columns,
    so its Gram is gathered one chunk at a time and no panel is copied.
    """
    M = len(rows[0])
    m_eff = M - 1 if center else M
    # Wilks solvency first, so short panels fail with the named dims.
    wspec = WilksLambdaSpec(dims.p, dims.q, dims.r, m_eff)
    gram = _scaled_gram(rows, center)[0]
    stat = likelihood_ratio(CompositeCovariance.from_matrix(gram, dims))
    threshold_at, p_value_of = null_law(wspec, method, n_mc, seed)
    threshold = threshold_at(alpha)
    return TestOutcome(
        statistic=float(stat),
        threshold=float(threshold),
        p_value=float(p_value_of(stat)),
        alpha=alpha,
        method=method,
        reject_null=bool(stat > threshold),
        p=dims.p,
        q=dims.q,
        r=dims.r,
        M=m_eff,
        seed=seed,
    )


def atomic_write(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces to ``path`` in order, by one ``os.replace`` of a
    temporary file beside it.

    The pieces are consumed one at a time, so a generator of them is written
    in the memory of one piece. A failed write, or an exception from the
    iterable itself, removes the temporary file and leaves an existing
    file's bytes as they were.
    """
    # Created with mode 0o666 less the umask, as a plain open() would be.
    tmp = f"{os.path.abspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_sequence_csv(path: str) -> dict[str, np.ndarray]:
    """Read a t,x,y sequence file (extra numeric channels allowed).

    Returns a column-name -> array mapping. A repeated header name,
    parsing problems and non-finite cells (nan, inf) are reported with
    the 1-based line number at which they occur.

    The body is parsed by one ``np.loadtxt`` call. A file it rejects, or
    whose table has the wrong width, no rows or a non-finite cell, is
    parsed again row by row, which names the offending line and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
        if repeated is not None:
            raise ValueError(f"{path}: line 1: column {repeated!r} appears more than once")
        for required in ("t", "x", "y"):
            if required not in names:
                raise ValueError(f"{path}: header must include column {required!r}")
        # Blank lines are skipped in both parsers; a body of only blank lines
        # goes straight to the row-wise one, without loadtxt's no-data warning.
        body = itertools.dropwhile(lambda line: not line.strip("\r\n"), fh)
        first = next(body, None)
        try:
            table = None if first is None else np.loadtxt(
                itertools.chain([first], body), delimiter=",", comments=None, ndmin=2
            )
        except ValueError:
            table = None
    if table is None or table.shape[1] != len(names) or not np.isfinite(table).all():
        table = _read_rows(path, names)
    return dict(zip(names, table.T.copy()))


def _read_rows(path: str, names: list[str]) -> np.ndarray:
    """Parse a sequence file's body row by row into a (rows, columns) table.

    Raises ``ValueError`` naming the line of the first ragged row or
    unparseable cell, else of the first non-finite cell with its column,
    or saying that there are no data rows.
    """
    rows: list[list[float]] = []
    non_finite = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(names)} fields, got {len(row)}"
                )
            values = []
            for name, cell in zip(names, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {line_no}: cannot parse {cell!r} as a number"
                    ) from None
                if non_finite is None and not math.isfinite(values[-1]):
                    non_finite = (
                        f"{path}: line {line_no}: non-finite value {cell!r} "
                        f"in column {name!r}"
                    )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if non_finite is not None:
        raise ValueError(non_finite)
    return np.array(rows)
