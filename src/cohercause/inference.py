"""From raw sequences to a causality decision.

The pipeline is: embed two scalar sequences into lagged sample vectors
(a data panel), form the unnormalized sample covariance S = D D^T, take
its partial coherence as the test statistic, and compare against the
Wilks Lambda null law. The statistic is the ordinary likelihood ratio
for the null hypothesis that the conditional cross-covariance between
the x block and the y block is zero.

A rejection is an indication of causal influence at the stated level,
relative to the chosen prima facie conditioning; a non-rejection is a
finding of non-causality at that level.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .covariance import BlockDims, CompositeCovariance
from .coherence import partial_coherence
from .nulldist import (
    DEFAULT_N_MC,
    DEFAULT_SEED,
    _order_statistic_threshold,
    bartlett_critical_value,
    bartlett_pvalue,
    make_spec,
    sample_null,
)

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

WINDOW_MODES = ("consecutive-windows", "independent-realizations")


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

    T: int
    x_role: Role
    y_role: Role
    z_role: Role
    window_mode: str = "consecutive-windows"
    stride: int = 1

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.window_mode not in WINDOW_MODES:
            raise ValueError(f"window_mode must be one of {WINDOW_MODES}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        seen: set[tuple[str, int]] = set()
        for role in (self.x_role, self.y_role, self.z_role):
            for off in role.offsets:
                key = (role.channel, off)
                if key in seen:
                    raise ValueError(
                        f"sample {key} appears in more than one role; the same "
                        "sequence sample may not occur twice in one column"
                    )
                seen.add(key)

    @property
    def dims(self) -> BlockDims:
        return BlockDims(
            p=len(self.x_role.offsets),
            q=len(self.y_role.offsets),
            r=len(self.z_role.offsets),
        )

    @classmethod
    def influence_test(
        cls, T: int = 10, window_mode: str = "consecutive-windows", stride: int = 1
    ) -> "LagSpec":
        """The causality-test embedding: x = [x_{t-1}..x_{t-T}], y = y_t,
        z = [y_{t-1}..y_{t-T}]."""
        lags = tuple(range(-1, -T - 1, -1))
        return cls(
            T=T,
            x_role=Role("x", lags),
            y_role=Role("y", (0,)),
            z_role=Role("y", lags),
            window_mode=window_mode,
            stride=stride,
        )

    @classmethod
    def pairwise(
        cls,
        offset: int,
        T_cond: int = 20,
        conditioning: str = "past-of-x",
        window_mode: str = "consecutive-windows",
        stride: int = 1,
    ) -> "LagSpec":
        """The pairwise-map embedding: x = x_{t+offset}, y = y_t, and z the
        chosen finite past (with the x sample excluded when it collides)."""
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
        return cls(
            T=T_cond,
            x_role=Role("x", (offset,)),
            y_role=Role("y", (0,)),
            z_role=z_role,
            window_mode=window_mode,
            stride=stride,
        )


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
    meta: LagSpec

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 2 or d.shape[0] != self.dims.total:
            raise ValueError(
                f"panel must be {self.dims.total} x M, got shape {d.shape}"
            )
        if d.shape[1] < 1:
            raise ValueError("panel needs at least one column")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "data", d)

    @property
    def M(self) -> int:
        return self.data.shape[1]


def _column_at(seq: np.ndarray, t: int, offsets: tuple[int, ...]) -> np.ndarray:
    return seq[[t + off for off in offsets]]


def lag_embed(x_seq: np.ndarray, y_seq: np.ndarray, spec: LagSpec) -> DataPanel:
    """Build the data panel for a lag spec.

    In consecutive-windows mode the inputs are one-dimensional and
    successive columns advance t by ``spec.stride``. In
    independent-realizations mode the inputs are (n_realizations, length)
    arrays and each realization contributes a single column, taken at
    the last offset-feasible t of that realization.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    y_seq = np.asarray(y_seq, dtype=float)
    if x_seq.shape != y_seq.shape:
        raise ValueError("x and y sequences must have the same shape")
    roles = (spec.x_role, spec.y_role, spec.z_role)
    all_offsets = [off for role in roles for off in role.offsets]
    off_min, off_max = min(all_offsets), max(all_offsets)

    if spec.window_mode == "consecutive-windows":
        if x_seq.ndim != 1:
            raise ValueError("consecutive-windows mode expects one-dimensional sequences")
        L = x_seq.size
        t_first = max(0, -off_min)
        t_last = L - 1 - max(0, off_max)
        n_cols = (t_last - t_first) // spec.stride + 1 if t_last >= t_first else 0
        if n_cols < 1:
            raise ValueError(
                f"insufficient data: {L} samples leave no feasible column "
                f"for offsets spanning [{off_min}, {off_max}]"
            )
        rows = []
        for role in roles:
            seq = x_seq if role.channel == "x" else y_seq
            for off in role.offsets:
                start = t_first + off
                stop = start + (n_cols - 1) * spec.stride + 1
                rows.append(seq[start:stop:spec.stride])
        return DataPanel(data=np.array(rows), dims=spec.dims, meta=spec)

    if x_seq.ndim != 2:
        raise ValueError(
            "independent-realizations mode expects (n_realizations, length) arrays"
        )
    L = x_seq.shape[1]
    t_col = L - 1 - max(0, off_max)
    if t_col < max(0, -off_min):
        raise ValueError(f"realizations of length {L} are too short for the offsets")
    rows = []
    for role in roles:
        seq = x_seq if role.channel == "x" else y_seq
        for off in role.offsets:
            rows.append(seq[:, t_col + off])
    return DataPanel(data=np.array(rows), dims=spec.dims, meta=spec)


def sample_covariance(panel: DataPanel, center: bool = True) -> CompositeCovariance:
    """Unnormalized sample covariance S = D D^T of the panel.

    With ``center`` (the default) the per-row sample mean is removed
    first; the null law then loses one effective sample, which
    :func:`test_causal_influence` accounts for by using M - 1.
    """
    D = panel.data
    if center:
        D = D - D.mean(axis=1, keepdims=True)
    return CompositeCovariance.from_matrix(D @ D.T, panel.dims)


def likelihood_ratio(S: CompositeCovariance) -> float:
    """The test statistic: partial coherence of the sample covariance.

    One minus the returned value is the ordinary likelihood ratio for
    the null of zero conditional cross-covariance.
    """
    return partial_coherence(S).rho2


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
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "method": self.method,
            "reject_null": self.reject_null,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "M": self.M,
            "seed": self.seed,
        }

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
    jobs: int = 1,
) -> TestOutcome:
    """Run the partial-coherence causality test on a panel.

    ``method`` selects the null law: "wilks-mc" draws the exact
    Beta-product law by Monte Carlo; "bartlett" uses the chi-squared
    approximation (cheaper, adequate for large M). The decision fields
    are mutually consistent: reject_null holds exactly when the
    statistic exceeds the threshold, and (for continuous statistics and
    non-integer alpha (n_mc + 1)) exactly when p_value < alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    dims = panel.dims
    m_eff = panel.M - 1 if center else panel.M
    # Wilks solvency first, so short panels fail with the named dims.
    wspec = make_spec(dims.p, dims.q, dims.r, m_eff)
    S = sample_covariance(panel, center=center)
    stat = likelihood_ratio(S)
    if method == "wilks-mc":
        samples = sample_null(wspec, n_mc, seed=seed, jobs=jobs)
        threshold = _order_statistic_threshold(samples, alpha)
        k = int(np.count_nonzero(samples >= stat))
        pv = (k + 1) / (n_mc + 1)
    elif method == "bartlett":
        threshold = bartlett_critical_value(wspec, alpha)
        pv = bartlett_pvalue(wspec, stat)
    else:
        raise ValueError(f"unknown method {method!r}; expected wilks-mc or bartlett")
    return TestOutcome(
        statistic=float(stat),
        threshold=float(threshold),
        p_value=float(pv),
        alpha=alpha,
        method=method,
        reject_null=bool(stat > threshold),
        p=dims.p,
        q=dims.q,
        r=dims.r,
        M=m_eff,
        seed=seed,
    )


def read_sequence_csv(path: str) -> dict[str, np.ndarray]:
    """Read a t,x,y sequence file (extra numeric channels allowed).

    Returns a column-name -> array mapping. Parsing problems and
    non-finite cells (nan, inf) are reported with the 1-based line
    number at which they occur.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        for required in ("t", "x", "y"):
            if required not in names:
                raise ValueError(f"{path}: header must include column {required!r}")
        columns: list[list[float]] = [[] for _ in names]
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(names)} fields, got {len(row)}"
                )
            for j, cell in enumerate(row):
                try:
                    columns[j].append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {line_no}: cannot parse {cell!r} as a number"
                    ) from None
    if not columns[0]:
        raise ValueError(f"{path}: no data rows")
    data = {name: np.asarray(col) for name, col in zip(names, columns)}
    if not all(np.isfinite(col).all() for col in data.values()):
        raise ValueError(_locate_non_finite(path, names))
    return data


def _locate_non_finite(path: str, names: list[str]) -> str:
    """Name the line and column of a file's first nan/inf cell, re-reading it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            for name, cell in zip(names, row):
                if not math.isfinite(float(cell)):
                    return (
                        f"{path}: line {line_no}: non-finite value {cell!r} "
                        f"in column {name!r}"
                    )
    return f"{path}: non-finite value"
