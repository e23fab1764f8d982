"""Reproduction harness: coherence maps, size calibration, power and ROC.

A coherence map forms one covariance of the distinct rows of all its
offsets (for data, the test's scaled-row Gram over the columns they share)
and hands every offset's composite, a principal sub-matrix of it, to the
Cholesky kernel in one batched call. Monte Carlo replications, O(1) by
construction, hand whole stacks of unscaled sample covariances to the same
kernel, one call per chunk of panels. Each study computes its null
threshold once per call, from the same seeded null law that the test uses.

Two replication modes mirror the two window modes of the embedding:
"independent-realizations" draws panel columns i.i.d. from the exact
population covariance of the lag window (the model is Gaussian linear,
so this is the distribution of fully independent realizations, without
simulating and mostly discarding millions of burn-in samples);
"consecutive-windows" simulates one long sequence and carves it into
back-to-back windows, reproducing the original experimental protocol
with its weakly dependent columns. Its panel rows are laid out by
``LagSpec.rows``, as in ``lag_embed``: one zero-copy view per row over the
sequences reshaped to one window per row, gathered chunk by chunk into one
reused panel buffer of about 10 MB.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .coherence import _log_det_q
from .covariance import BlockDims, CompositeCovariance
from .inference import _WINDOW_CHUNK_BYTES, LagSpec, _row_views, _scaled_gram
from .nulldist import (
    DEFAULT_N_MC,
    DEFAULT_SEED,
    critical_value,
    make_spec,
    sample_null,
    _order_statistic_threshold,
)
from .simulate import (
    BarnettModelSpec,
    CovarianceSequences,
    MAFilterSpec,
    NoiseSpec,
    analytic_covariances,
    composite_from_sequences,
    gen_barnett,
    lag_window_covariance,
)
from .streams import stream_rng

__all__ = [
    "CoherenceMap",
    "PowerPoint",
    "ROCPoint",
    "SizeEstimate",
    "coherence_map",
    "calibrate_size",
    "power_curve",
    "roc_curve",
    "write_map_csv",
    "write_power_csv",
    "write_roc_csv",
    "write_summary_json",
]

DEFAULT_REPLICATIONS = 10_000
FAST_REPLICATIONS = 2_000
DEFAULT_SIZE_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)

_MVN_CHUNK = 200


@dataclass(frozen=True)
class CoherenceMap:
    """Grid of pairwise partial coherences rho2(s, t).

    ``values[i, j]`` is the coherence between x at time ``s_range[i]``
    and y at time ``t_range[j]``.
    """

    s_range: np.ndarray
    t_range: np.ndarray
    values: np.ndarray
    conditioning: str
    case: str


@dataclass(frozen=True)
class PowerPoint:
    ma_order: int
    power: float
    std_error: float
    alpha: float
    replications: int
    T: int
    M: int


@dataclass(frozen=True)
class ROCPoint:
    size: float
    power: float
    std_error: float


@dataclass(frozen=True)
class SizeEstimate:
    achieved: float
    std_error: float
    alpha: float
    replications: int
    window_mode: str


# ---------------------------------------------------------------------------
# Batched statistic


def _panel_statistic(D: np.ndarray, p: int, q: int, r: int, center: bool) -> np.ndarray:
    """Statistic of each panel in a (B, n, M) stack, centred in place if asked."""
    if center:
        D -= D.mean(axis=2, keepdims=True)
    return -np.expm1(_log_det_q(D @ np.swapaxes(D, 1, 2), p, q, r))


def _mvn_chunk_stats(
    chol: np.ndarray, p: int, q: int, r: int, M: int, n: int, seed: int, stream: int,
    index: int, center: bool,
) -> np.ndarray:
    D = chol @ stream_rng(seed, stream, index).standard_normal((n, p + q + r, M))
    return _panel_statistic(D, p, q, r, center)


def _independent_stats(
    population: np.ndarray,
    p: int,
    q: int,
    r: int,
    M: int,
    replications: int,
    seed: int,
    stream: int = 0,
    center: bool = True,
    jobs: int = 1,
) -> np.ndarray:
    """Statistics from panels of M i.i.d. N(0, population) columns.

    Chunk i always consumes stream (seed, stream, i), so the result is
    independent of the worker count.
    """
    chol = la.cholesky(population, lower=True)
    args = [
        (chol, p, q, r, M, min(_MVN_CHUNK, replications - s), seed, stream, i, center)
        for i, s in enumerate(range(0, replications, _MVN_CHUNK))
    ]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_mvn_chunk_stats, *zip(*args)))
    else:
        parts = [_mvn_chunk_stats(*a) for a in args]
    return np.concatenate(parts)


def _consecutive_stats(
    x: np.ndarray,
    y: np.ndarray,
    T: int,
    M: int,
    n_windows: int,
    center: bool = True,
) -> np.ndarray:
    """Statistics from back-to-back windows of one long sequence.

    Each window holds M + T samples and yields M full-context columns of
    the influence-test embedding. Its rows are zero-copy views of the
    sequences reshaped to one window per row, copied chunk by chunk into one
    reused panel of about ``_WINDOW_CHUNK_BYTES``, which stays cache-resident
    for any M and T.
    """
    window = M + T
    n = n_windows * window
    if x.size < n:
        raise ValueError(
            f"sequence of {x.size} samples is too short for "
            f"{n_windows} windows of {window}"
        )
    # Entry [w, k] of each view is the row's sample at column k of window w.
    views = _row_views(
        x[:n].reshape(n_windows, window),
        y[:n].reshape(n_windows, window),
        LagSpec.influence_test(T).rows,
    )
    chunk = max(1, _WINDOW_CHUNK_BYTES // ((2 * T + 1) * M * 8))
    D = np.empty((min(chunk, n_windows), 2 * T + 1, M))
    out = np.empty(n_windows)
    for w0 in range(0, n_windows, chunk):
        D = D[: min(chunk, n_windows - w0)]  # shrinks only for the last chunk
        for i, v in enumerate(views):
            D[:, i] = v[w0 : w0 + chunk]
        out[w0 : w0 + chunk] = _panel_statistic(D, T, 1, T, center)
    return out


def _model_statistics(
    spec: BarnettModelSpec,
    replications: int,
    M: int,
    T: int,
    window_mode: str,
    seed: int,
    stream: int = 0,
    center: bool = True,
    jobs: int = 1,
) -> np.ndarray:
    if window_mode == "independent-realizations":
        population = lag_window_covariance(spec, T).entries
        return _independent_stats(
            population, T, 1, T, M, replications, seed, stream=stream,
            center=center, jobs=jobs,
        )
    if window_mode == "consecutive-windows":
        x, y = gen_barnett(spec, replications * (M + T), NoiseSpec(seed, stream))
        return _consecutive_stats(x, y, T, M, replications, center=center)
    raise ValueError(f"unknown window mode {window_mode!r}")


# ---------------------------------------------------------------------------
# Experiments


def coherence_map(
    model,
    s_range,
    t_range,
    conditioning: str = "past-of-x",
    T_cond: int = 20,
) -> CoherenceMap:
    """Pairwise partial-coherence map over a grid of (s, t).

    ``model`` is a model spec or covariance sequences (analytic path) or
    an ``(x_seq, y_seq)`` pair of one-dimensional arrays (estimated path).
    Values depend on (s, t) only through the offset s - t by stationarity.
    Every offset's composite is a principal sub-matrix of one covariance
    over the distinct (channel, offset) rows that the offsets use: the
    population composite of a model, or for data the test's Gram of
    centred rows scaled to O(1), over the columns that every offset shares.
    That covariance is validated once, and all offsets go through one
    batched kernel call.
    """
    s_range = np.asarray(list(s_range), dtype=int)
    t_range = np.asarray(list(t_range), dtype=int)
    grid = np.subtract.outer(s_range, t_range)
    if grid.size == 0:
        raise ValueError("the (s, t) grid is empty")
    offsets, cell = np.unique(grid, return_inverse=True)
    specs = [LagSpec.pairwise(int(off), T_cond, conditioning) for off in offsets]
    rows = sorted({row for spec in specs for row in spec.rows})
    p = sum(ch == "x" for ch, _ in rows)
    if isinstance(model, tuple) and len(model) == 2:
        case = "data"
        x_seq, y_seq = (np.asarray(seq, dtype=float) for seq in model)
        if x_seq.ndim != 1 or x_seq.shape != y_seq.shape:
            raise ValueError("x and y must be one-dimensional with equal length")
        gram = CompositeCovariance.from_matrix(
            _scaled_gram(_row_views(x_seq, y_seq, rows), center=True)[0],
            BlockDims(p, len(rows) - p, 0),
        )
    elif isinstance(model, (MAFilterSpec, BarnettModelSpec, CovarianceSequences)):
        if isinstance(model, CovarianceSequences):
            case, seqs = "sequences", model
        else:
            case = model.name if isinstance(model, MAFilterSpec) else "barnett"
            seqs = analytic_covariances(model, int(np.ptp([off for _, off in rows])))
        gram = composite_from_sequences(seqs, rows[:p], rows[p:], [])
    else:
        raise TypeError(
            "model must be a model spec, covariance sequences, or an (x, y) pair"
        )
    index = {row: i for i, row in enumerate(rows)}
    idx = np.array([[index[row] for row in spec.rows] for spec in specs])
    composites = gram.entries[idx[:, :, None], idx[:, None, :]]
    rho2 = -np.expm1(_log_det_q(composites, 1, 1, T_cond))
    return CoherenceMap(
        s_range=s_range,
        t_range=t_range,
        values=rho2[cell].reshape(grid.shape),
        conditioning=conditioning,
        case=case,
    )


def calibrate_size(
    spec: BarnettModelSpec,
    alpha: float = 0.05,
    replications: int = DEFAULT_REPLICATIONS,
    M: int = 1000,
    T: int = 10,
    window_mode: str = "independent-realizations",
    seed: int = DEFAULT_SEED,
    n_mc: int = DEFAULT_N_MC,
    jobs: int = 1,
) -> SizeEstimate:
    """Achieved rejection rate under the null (the model's coupling off).

    The supplied spec's transfer entropy is forced to zero so the null
    holds exactly; with independent realizations the achieved size
    should match ``alpha`` up to binomial error, while consecutive
    windows inherit the mild distortion of dependent columns.
    """
    if replications < 1000:
        raise ValueError(f"replications must be >= 1000, got {replications}")
    null_spec = BarnettModelSpec(
        transfer_entropy=0.0,
        ma_order=spec.ma_order,
        a=spec.a,
        b=spec.b,
        f1=spec.f1,
        f2=spec.f2,
    )
    threshold = critical_value(make_spec(T, 1, T, M - 1), alpha, n_mc=n_mc, seed=seed)
    stats = _model_statistics(
        null_spec, replications, M, T, window_mode, seed, jobs=jobs
    )
    achieved = float(np.mean(stats > threshold))
    se = math.sqrt(max(achieved * (1 - achieved), 1e-12) / replications)
    return SizeEstimate(
        achieved=achieved,
        std_error=se,
        alpha=alpha,
        replications=replications,
        window_mode=window_mode,
    )


def power_curve(
    ma_orders,
    F: float = 0.02,
    alpha: float = 0.05,
    replications: int = DEFAULT_REPLICATIONS,
    M: int = 1000,
    T: int = 10,
    seed: int = DEFAULT_SEED,
    window_mode: str = "consecutive-windows",
    n_mc: int = DEFAULT_N_MC,
    jobs: int = 1,
) -> list[PowerPoint]:
    """Rejection rate versus MA order at fixed transfer entropy F."""
    threshold = critical_value(make_spec(T, 1, T, M - 1), alpha, n_mc=n_mc, seed=seed)
    points = []
    for order in ma_orders:
        spec = BarnettModelSpec(transfer_entropy=F, ma_order=int(order))
        # One independent substream per MA order.
        stats = _model_statistics(
            spec, replications, M, T, window_mode, seed,
            stream=int(order) + 1, jobs=jobs,
        )
        power = float(np.mean(stats > threshold))
        se = math.sqrt(max(power * (1 - power), 1e-12) / replications)
        points.append(
            PowerPoint(
                ma_order=int(order),
                power=power,
                std_error=se,
                alpha=alpha,
                replications=replications,
                T=T,
                M=M,
            )
        )
    return points


def roc_curve(
    F: float = 0.02,
    ma_order: int = 1,
    replications: int = DEFAULT_REPLICATIONS,
    M: int = 1000,
    T: int = 10,
    size_grid=DEFAULT_SIZE_GRID,
    seed: int = DEFAULT_SEED,
    window_mode: str = "consecutive-windows",
    n_mc: int = DEFAULT_N_MC,
    jobs: int = 1,
) -> list[ROCPoint]:
    """Power versus size over a fixed grid of nominal sizes.

    The alternative-hypothesis statistics are drawn once and reused for
    every grid point, so the curve is monotone by construction.
    """
    spec = BarnettModelSpec(transfer_entropy=F, ma_order=ma_order)
    stats = _model_statistics(
        spec, replications, M, T, window_mode, seed, stream=ma_order + 1, jobs=jobs
    )
    null_samples = sample_null(make_spec(T, 1, T, M - 1), n_mc, seed=seed)
    points = []
    for size in sorted(size_grid):
        if not 0.0 < size < 1.0:
            raise ValueError(f"sizes must lie in (0, 1), got {size}")
        threshold = _order_statistic_threshold(null_samples, size)
        power = float(np.mean(stats > threshold))
        se = math.sqrt(max(power * (1 - power), 1e-12) / replications)
        points.append(ROCPoint(size=float(size), power=power, std_error=se))
    return points


# ---------------------------------------------------------------------------
# Plot-ready output files


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def write_map_csv(path: str, cmap: CoherenceMap) -> None:
    rows = [
        [int(s), int(t), repr(float(cmap.values[i, j]))]
        for i, s in enumerate(cmap.s_range)
        for j, t in enumerate(cmap.t_range)
    ]
    atomic_write(path, _csv_text(["s", "t", "rho2"], rows))


def write_power_csv(path: str, points: list[PowerPoint]) -> None:
    rows = [
        [
            pt.ma_order,
            repr(pt.power),
            repr(pt.std_error),
            repr(pt.alpha),
            pt.replications,
            pt.T,
            pt.M,
        ]
        for pt in points
    ]
    header = ["ma_order", "power", "std_error", "alpha", "replications", "T", "M"]
    atomic_write(path, _csv_text(header, rows))


def write_roc_csv(path: str, points: list[ROCPoint]) -> None:
    rows = [[repr(pt.size), repr(pt.power), repr(pt.std_error)] for pt in points]
    atomic_write(path, _csv_text(["size", "power", "std_error"], rows))


def write_summary_json(path: str, summary: dict) -> None:
    atomic_write(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
