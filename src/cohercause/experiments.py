"""Reproduction harness: coherence maps, size calibration, power and ROC.

A coherence map forms one covariance of the distinct rows of all its
offsets (for data, the test's scaled-row Gram over the columns they share)
and hands every offset's composite, a principal sub-matrix of it, to the
Cholesky kernel in one batched call. Monte Carlo replications, O(1) and
zero-mean by construction, hand whole stacks of unscaled Grams to the same
kernel, one call per chunk of replications. Each study reads its null
threshold once per call from ``nulldist.null_law``, as the test does.

The studies have two replication modes. "independent-realizations" treats
the M panel columns as i.i.d. draws from the exact population covariance of
the lag window (the model is Gaussian linear, so this is the distribution of
fully independent realizations, without simulating and mostly discarding
millions of burn-in samples). The statistic sees the centred panel only
through its Gram, which is then Wishart with M - 1 degrees of freedom, so
each replication draws the Gram by the Bartlett decomposition and no panel
is formed. The chunks run on a thread pool of ``jobs`` workers, since their
work runs inside numpy calls; chunk i of replications consumes stream
(seed, stream, i) whatever the worker count.
"consecutive-windows" carves one long simulated sequence into
back-to-back windows, reproducing the original experimental protocol
with its weakly dependent columns. The sequence is streamed: the
generator yields it in blocks of one panel's windows, so memory does not
grow with the number of replications, and ``power_curve`` runs its MA
orders on a thread pool of ``jobs`` workers. Each block's panel rows are
laid out by ``LagSpec.rows``, as in ``lag_embed``: one zero-copy view per
row over the block reshaped to one window per row, gathered into one
reused panel buffer of about 10 MB. Its windows are centred by conditioning:
removing each row's mean is the projection onto a constant regressor
(Frisch-Waugh-Lovell), so a row of ones written once at the end of z, which
the kernel's one Cholesky factor projects out, replaces a centring pass over
the data.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from .coherence import _log_det_q
from .covariance import BlockDims, CompositeCovariance
from .inference import _WINDOW_CHUNK_BYTES, LagSpec, _row_views, _scaled_gram, atomic_write
from .nulldist import DEFAULT_N_MC, DEFAULT_SEED, critical_value, make_spec, null_law
from .simulate import (
    BarnettModelSpec,
    MAFilterSpec,
    analytic_covariances,
    _barnett_blocks,
    composite_from_sequences,
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


def _independent_stats(
    population: np.ndarray, p: int, q: int, r: int, M: int, replications: int, seed: int,
    stream: int = 0, jobs: int = 1,
) -> np.ndarray:
    """Statistics from centred panels of M i.i.d. N(0, population) columns.

    Only the panel Gram enters the statistic, and its law is Wishart,
    W(M - 1, population). Each replication draws that Gram directly by the
    Bartlett decomposition, k(k + 1)/2 numbers for k = p + q + r rows
    instead of the panel's k M. The chunks run on a pool of ``jobs`` threads:
    their work is numpy random draws, batched matmul and batched Cholesky,
    solve and eigvalsh calls, which run outside the interpreter lock. Chunk i
    always consumes stream (seed, stream, i), so the result is bit-identical
    for any worker count.
    """
    chol = la.cholesky(population, lower=True)
    # Bartlett: A A^T ~ W(M - 1, I) for lower-triangular A with N(0, 1) below
    # the diagonal and sqrt(chi2(M - 1 - i)) at (i, i), so the k-column panel
    # chol A has a Gram with the law of the centred M-column panel's.
    k = p + q + r
    i, j = np.tril_indices(k, -1)
    d = np.arange(k)

    def chunk(index: int) -> np.ndarray:
        n = min(_MVN_CHUNK, replications - index * _MVN_CHUNK)
        rng = stream_rng(seed, stream, index)
        A = np.zeros((n, k, k))
        A[:, i, j] = rng.standard_normal((n, i.size))
        A[:, d, d] = np.sqrt(rng.chisquare(M - 1 - d, (n, k)))
        D = chol @ A
        del A
        S = D @ np.swapaxes(D, 1, 2)
        # A and D are freed before the kernel runs, so each worker thread's heap
        # peaks one chunk-sized array lower (~2.5 MB less peak RSS at 2 jobs).
        del D
        return -np.expm1(_log_det_q(S, p, q, r))

    chunks = range(math.ceil(replications / _MVN_CHUNK))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return np.concatenate(list(pool.map(chunk, chunks)))


def _window_chunk(T: int, M: int) -> int:
    """Windows per reused panel of about ``_WINDOW_CHUNK_BYTES``.

    A window's panel has the 2T + 1 rows of the influence-test embedding
    and the row of ones, each M columns long.
    """
    return max(1, _WINDOW_CHUNK_BYTES // ((2 * T + 2) * M * 8))


def _consecutive_stats(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], T: int, M: int, n_windows: int
) -> np.ndarray:
    """Statistics from back-to-back windows of one long sequence, read in blocks.

    ``blocks`` yields the sequence pair as consecutive ``(x, y)`` blocks of
    whole windows, each window M + T samples long; a window never spans
    two blocks, and the samples past a block's last whole window or past
    the ``n_windows``-th window are not used. Each window yields M
    full-context columns of the influence-test embedding. Its rows are
    zero-copy views of the block reshaped to one window per row, copied
    chunk by chunk into one reused panel of about ``_WINDOW_CHUNK_BYTES``,
    which stays cache-resident for any M and T. The panel has one more row,
    all ones, written once and kept at the end of z: conditioning on it
    centres every window without a pass over the data
    (Frisch-Waugh-Lovell), and the kernel's one Cholesky factor does that
    projection. That holds for O(1), zero-mean sequences such as the
    studies simulate; ``inference._scaled_gram`` centres explicitly for
    data at any scale.
    """
    window = M + T
    rows = LagSpec.influence_test(T).rows
    chunk = _window_chunk(T, M)
    D = np.empty((min(chunk, n_windows), len(rows) + 1, M))
    D[:, len(rows) :] = 1.0
    out = np.empty(n_windows)
    done = seen = 0
    for x, y in blocks:
        seen += x.size
        k = min(x.size // window, n_windows - done)
        # Entry [w, c] of each view is the row's sample at column c of window w.
        views = _row_views(
            x[: k * window].reshape(k, window), y[: k * window].reshape(k, window), rows
        )
        for w0 in range(0, k, chunk):
            panel = D[: min(chunk, k - w0)]
            for i, v in enumerate(views):
                panel[:, i] = v[w0 : w0 + chunk]
            S = panel @ np.swapaxes(panel, 1, 2)
            out[done + w0 : done + w0 + len(panel)] = -np.expm1(_log_det_q(S, T, 1, T + 1))
        done += k
        if done == n_windows:
            return out
    raise ValueError(
        f"sequence of {seen} samples is too short for {n_windows} windows of {window}"
    )


def _model_statistics(
    spec: BarnettModelSpec, replications: int, M: int, T: int, window_mode: str, seed: int,
    stream: int = 0, jobs: int = 1,
) -> np.ndarray:
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if window_mode == "independent-realizations":
        population = lag_window_covariance(spec, T).entries
        return _independent_stats(
            population, T, 1, T, M, replications, seed, stream=stream, jobs=jobs
        )
    if window_mode == "consecutive-windows":
        # Blocks of one panel's windows: memory does not grow with replications.
        window = M + T
        blocks = _barnett_blocks(
            spec, replications * window, _window_chunk(T, M) * window, seed, stream
        )
        return _consecutive_stats(blocks, T, M, replications)
    raise ValueError(f"unknown window mode {window_mode!r}")


def _rejection_rate(stats: np.ndarray, threshold: float) -> tuple[float, float]:
    """Share of statistics above the threshold, and its binomial standard error."""
    rate = float(np.mean(stats > threshold))
    return rate, math.sqrt(max(rate * (1 - rate), 1e-12) / stats.size)


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

    ``model`` is an ``MAFilterSpec`` or ``BarnettModelSpec`` (analytic path)
    or an ``(x_seq, y_seq)`` pair of one-dimensional arrays (estimated path).
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
    elif isinstance(model, (MAFilterSpec, BarnettModelSpec)):
        case = model.name if isinstance(model, MAFilterSpec) else "barnett"
        seqs = analytic_covariances(model, int(np.ptp([off for _, off in rows])))
        gram = composite_from_sequences(seqs, rows[:p], rows[p:], [])
    else:
        raise TypeError("model must be a model spec or an (x, y) pair")
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
    null_spec = replace(spec, transfer_entropy=0.0)
    threshold = critical_value(make_spec(T, 1, T, M - 1), alpha, n_mc=n_mc, seed=seed)
    stats = _model_statistics(null_spec, replications, M, T, window_mode, seed, jobs=jobs)
    achieved, se = _rejection_rate(stats, threshold)
    return SizeEstimate(
        achieved=achieved, std_error=se, alpha=alpha, replications=replications,
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
    """Rejection rate versus MA order at fixed transfer entropy F.

    Each order draws from its own substream, stream = order + 1. With
    consecutive windows the orders run on a pool of ``jobs`` threads, each
    order streaming its sequence through one reused panel, so memory grows
    with the worker count and not with ``replications``. With independent
    realizations the orders run in turn, each on its own pool of replication
    chunks, so pools never nest. Either way the result does not depend on
    ``jobs``.
    """
    ma_orders = [int(order) for order in ma_orders]
    if not ma_orders:
        raise ValueError("ma_orders is empty; give at least one MA order")
    threshold = critical_value(make_spec(T, 1, T, M - 1), alpha, n_mc=n_mc, seed=seed)

    def point(order: int) -> PowerPoint:
        spec = BarnettModelSpec(transfer_entropy=F, ma_order=order)
        stats = _model_statistics(
            spec, replications, M, T, window_mode, seed, stream=order + 1, jobs=jobs
        )
        power, se = _rejection_rate(stats, threshold)
        return PowerPoint(
            ma_order=order, power=power, std_error=se, alpha=alpha,
            replications=replications, T=T, M=M,
        )

    if window_mode != "consecutive-windows":
        return [point(order) for order in ma_orders]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(point, ma_orders))


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
    every grid point, so the curve is monotone by construction. The null
    law's dimensions and the size grid are checked before any draw.
    """
    null = make_spec(T, 1, T, M - 1)
    sizes = sorted(size_grid)
    for size in sizes:
        if not 0.0 < size < 1.0:
            raise ValueError(f"sizes must lie in (0, 1), got {size}")
    spec = BarnettModelSpec(transfer_entropy=F, ma_order=ma_order)
    stats = _model_statistics(
        spec, replications, M, T, window_mode, seed, stream=ma_order + 1, jobs=jobs
    )
    threshold_at = null_law(null, n_mc=n_mc, seed=seed)[0]
    return [ROCPoint(float(size), *_rejection_rate(stats, threshold_at(size))) for size in sizes]


# ---------------------------------------------------------------------------
# Plot-ready output files


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
