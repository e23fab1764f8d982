"""Reproduction harness: coherence maps, size calibration, power and ROC.

A coherence map forms one covariance of the distinct rows of all its
offsets (for data, the test's scaled-row Gram over the columns they share)
and hands every offset's composite, a principal sub-matrix of it, to the
Cholesky kernel in one batched call. Monte Carlo replications, O(1) and
zero-mean by construction, hand whole stacks of unscaled Grams to the same
kernel, one call per chunk of replications. Each study reads its null
threshold once per call from ``nulldist.null_law``, as the test does.

Every study's work is spread over ``jobs`` threads; the result does not
depend on it. The work runs inside numpy calls, so one thread pool per
study call, in ``_study_statistics``, serves both replication modes.
"independent-realizations" treats
the M panel columns as i.i.d. draws from the exact population covariance of
the lag window (the model is Gaussian linear, so this is the distribution of
fully independent realizations, without simulating and mostly discarding
millions of burn-in samples). The statistic sees the centred panel only
through its Gram, which is then Wishart with M - 1 degrees of freedom, so
each replication draws the Gram by the Bartlett decomposition and no panel
is formed. Chunk i of replications consumes stream (seed, stream, i).
"consecutive-windows" carves one long simulated sequence into
back-to-back windows, reproducing the original experimental protocol
with its weakly dependent columns. The sequence is streamed: the
generator yields it in blocks of one panel's windows, so memory does not
grow with the number of replications. ``power_curve`` and ``roc_curve``
draw one AR core from stream (seed, 1) for every MA order and filter each
block of it through every order's MA polynomial (common random numbers).
Each block's panel rows are
laid out by ``LagSpec.rows``, as in ``lag_embed``: one zero-copy view per
row over the block reshaped to one window per row, gathered into ``jobs``
reused panel buffers of about 10 MB together, one per contiguous range of
the block's windows; each range carves every order. Its windows are
centred by conditioning: removing each row's mean is the projection onto a
constant regressor (Frisch-Waugh-Lovell), so a row of ones written once at
the end of z, which the kernel's one Cholesky factor projects out, replaces
a centring pass over the data.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coherence import _log_det_q
from .covariance import BlockDims, CompositeCovariance
from .inference import _WINDOW_CHUNK_BYTES, LagSpec, _row_views, _scaled_gram, atomic_write
from .nulldist import DEFAULT_N_MC, DEFAULT_SEED, WilksLambdaSpec, null_law
from .simulate import (
    BarnettModelSpec,
    MAFilterSpec,
    analytic_covariances,
    _barnett_cores,
    _ma_step,
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

DEFAULT_ALPHA = 0.05
DEFAULT_M = 1000
DEFAULT_T = 10
DEFAULT_F = 0.02
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
    stream: int, pool_map,
) -> np.ndarray:
    """Statistics from centred panels of M i.i.d. N(0, population) columns.

    Only the panel Gram enters the statistic, and its law is Wishart,
    W(M - 1, population). Each replication draws that Gram directly by the
    Bartlett decomposition, k(k + 1)/2 numbers for k = p + q + r rows
    instead of the panel's k M. ``pool_map`` runs the chunks, as ``map`` or
    a thread pool's ``map``: their work is numpy random draws, batched
    matmul and batched Cholesky, solve and eigvalsh calls, which run outside
    the interpreter lock. Chunk i always consumes stream (seed, stream, i),
    so the result is bit-identical for any worker count.
    """
    chol = np.linalg.cholesky(population)
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

    return np.concatenate(list(pool_map(chunk, range(math.ceil(replications / _MVN_CHUNK)))))


def _window_chunk(T: int, M: int) -> int:
    """Windows per reused panel of about ``_WINDOW_CHUNK_BYTES``.

    A window's panel has the 2T + 1 rows of the influence-test embedding
    and the row of ones, each M columns long.
    """
    return max(1, _WINDOW_CHUNK_BYTES // ((2 * T + 2) * M * 8))


def _panel(T: int, M: int, n_windows: int) -> np.ndarray:
    """A reused window panel: ``_window_chunk`` windows (at most ``n_windows``)
    of the influence-test rows and the row of ones, written here once."""
    D = np.empty((min(_window_chunk(T, M), n_windows), 2 * T + 2, M))
    D[:, 2 * T + 1 :] = 1.0
    return D


def _consecutive_stats(
    x: np.ndarray, y: np.ndarray, T: int, M: int, buffer: np.ndarray | None = None
) -> np.ndarray:
    """Statistics from the back-to-back windows of one sequence pair.

    Each window is M + T samples long, and the samples past the last whole
    window are not used. Each window yields M full-context columns of the
    influence-test embedding. Its rows are zero-copy views of the sequence
    reshaped to one window per row, copied chunk by chunk into one reused
    panel of about ``_WINDOW_CHUNK_BYTES``, which stays cache-resident for
    any M and T; a caller that carves many sequences passes one ``buffer``
    from :func:`_panel` to all of them. The
    panel has one more row, all ones, written once and kept at the end of
    z: conditioning on it centres every window without a pass over the data
    (Frisch-Waugh-Lovell), and the kernel's one Cholesky factor does that
    projection. That holds for O(1), zero-mean sequences such as the
    studies simulate; ``inference._scaled_gram`` centres explicitly for
    data at any scale.
    """
    window = M + T
    k = x.size // window
    D = _panel(T, M, k) if buffer is None else buffer
    chunk = len(D)
    out = np.empty(k)
    # Entry [w, c] of each view is the row's sample at column c of window w.
    views = _row_views(
        x[: k * window].reshape(k, window), y[: k * window].reshape(k, window),
        LagSpec.influence_test(T).rows,
    )
    for w0 in range(0, k, chunk):
        panel = D[: min(chunk, k - w0)]
        for i, v in enumerate(views):
            panel[:, i] = v[w0 : w0 + chunk]
        S = panel @ np.swapaxes(panel, 1, 2)
        out[w0 : w0 + len(panel)] = -np.expm1(_log_det_q(S, T, 1, T + 1))
    return out


def _study_statistics(
    specs: list[BarnettModelSpec], streams: list[int], replications: int, M: int, T: int,
    window_mode: str, seed: int, jobs: int,
) -> np.ndarray:
    """``replications`` statistics per spec, one row each, from one pool of ``jobs`` threads.

    With independent realizations chunk c of spec i draws from stream
    (seed, streams[i], c), the chunks of every spec on the one pool. With
    consecutive windows the specs differ only in their MA polynomials, so
    they filter one AR core of ``specs[0]``, drawn from stream
    (seed, streams[0]) in blocks of one panel's windows; row i equals
    ``_consecutive_stats(*gen_barnett(specs[i], ..., seed, streams[0]), T, M)``
    bit for bit. Each block's windows are cut into ``jobs`` contiguous
    ranges; a task carves every spec over one non-empty range on its own
    reused panel, the ``jobs`` panels holding one panel's windows together,
    so every worker is used even for one spec. The blocks are submitted one
    at a time, so memory does not grow with ``replications`` or the number
    of specs. Either way the result does not depend on ``jobs``.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if window_mode not in ("consecutive-windows", "independent-realizations"):
        raise ValueError(f"unknown window mode {window_mode!r}")
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        if window_mode == "independent-realizations":
            return np.array([
                _independent_stats(
                    lag_window_covariance(spec, T).entries, T, 1, T, M, replications, seed,
                    stream, pool.map,
                )
                for spec, stream in zip(specs, streams)
            ])
        window = M + T
        history = max(spec.ma_order for spec in specs)
        chunk = _window_chunk(T, M)
        panels = [_panel(T, M, math.ceil(min(chunk, replications) / jobs)) for _ in range(jobs)]
        out = np.empty((len(specs), replications))

        def carve(core, start: int, lo: int, hi: int, panel) -> None:
            # The range's samples, led by the history samples its MA polynomials need.
            part = [c[lo * window : history + hi * window] for c in core]
            for i, spec in enumerate(specs):
                # No name holds an order's pair, so it is freed before the next one forms.
                out[i, start + lo : start + hi] = _consecutive_stats(
                    *_ma_step(spec, part, history), T, M, panel
                )

        start = 0
        for core in _barnett_cores(
            specs[0], replications * window, chunk * window, seed, streams[0], history
        ):
            k = (core[0].size - history) // window
            cuts = [k * j // jobs for j in range(jobs + 1)]
            ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
            for task in [pool.submit(carve, core, start, *r, D) for r, D in zip(ranges, panels)]:
                task.result()
            start += k
        return out


def _study_threshold(T: int, M: int, n_mc: int, seed: int):
    """``threshold(alpha)`` of the one null law of every study.

    A study tests T lags of x against y_t given T lags of y on M centred
    columns, so its spec is (p, q, r, M) = (T, 1, T, M - 1).
    """
    return null_law(WilksLambdaSpec(T, 1, T, M - 1), n_mc=n_mc, seed=seed)[0]


def _rejection_rate(stats: np.ndarray, threshold: float) -> tuple[float, float]:
    """Share of statistics above the threshold, and its binomial standard error."""
    rate = float(np.mean(stats > threshold))
    return rate, math.sqrt(max(rate * (1 - rate), 1e-12) / stats.size)


def _alternative(
    F: float, ma_orders, window_mode: str
) -> tuple[list[BarnettModelSpec], list[int]]:
    """Each MA order's spec at transfer entropy F, and its stream.

    Consecutive windows filter one AR core drawn from stream (seed, 1), so
    the orders see common random numbers; with independent realizations
    order r draws from stream (seed, r + 1).
    """
    specs = [BarnettModelSpec(transfer_entropy=F, ma_order=order) for order in ma_orders]
    consecutive = window_mode == "consecutive-windows"
    return specs, [1 if consecutive else order + 1 for order in ma_orders]


def _power_points(
    ma_orders, stats: np.ndarray, threshold: float, alpha: float, T: int, M: int
) -> list[PowerPoint]:
    """One power point per MA order from its row of statistics."""
    return [
        PowerPoint(
            order, *_rejection_rate(s, threshold), alpha=alpha, replications=s.size, T=T, M=M
        )
        for order, s in zip(ma_orders, stats)
    ]


def _roc_points(stats: np.ndarray, threshold_at, sizes) -> list[ROCPoint]:
    """The rejection rate of one row of statistics at each size's threshold."""
    return [ROCPoint(float(size), *_rejection_rate(stats, threshold_at(size))) for size in sizes]


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
    alpha: float = DEFAULT_ALPHA,
    replications: int = DEFAULT_REPLICATIONS,
    M: int = DEFAULT_M,
    T: int = DEFAULT_T,
    window_mode: str = "independent-realizations",
    seed: int = DEFAULT_SEED,
    n_mc: int = DEFAULT_N_MC,
    jobs: int = 1,
) -> SizeEstimate:
    """Achieved rejection rate under the null (the model's coupling off).

    The supplied spec's transfer entropy is forced to zero so the null
    holds exactly; with independent realizations the achieved size
    should match ``alpha`` up to binomial error. Consecutive windows have
    serially dependent columns, and their level rises with the MA order:
    at the defaults about 0.050 at orders 0 and 1, 0.074 at order 5 and
    0.142 at order 10.
    """
    if replications < 1000:
        raise ValueError(f"replications must be >= 1000, got {replications}")
    null_spec = replace(spec, transfer_entropy=0.0)
    threshold = _study_threshold(T, M, n_mc, seed)(alpha)
    [stats] = _study_statistics([null_spec], [0], replications, M, T, window_mode, seed, jobs)
    achieved, se = _rejection_rate(stats, threshold)
    return SizeEstimate(
        achieved=achieved, std_error=se, alpha=alpha, replications=replications,
        window_mode=window_mode,
    )


def power_curve(
    ma_orders,
    F: float = DEFAULT_F,
    alpha: float = DEFAULT_ALPHA,
    replications: int = DEFAULT_REPLICATIONS,
    M: int = DEFAULT_M,
    T: int = DEFAULT_T,
    seed: int = DEFAULT_SEED,
    window_mode: str = "consecutive-windows",
    n_mc: int = DEFAULT_N_MC,
    jobs: int = 1,
) -> list[PowerPoint]:
    """Rejection rate versus MA order at fixed transfer entropy F.

    With consecutive windows every order filters one shared AR core, drawn
    once from stream (seed, 1) and streamed through reused panels, one per
    worker, each carving every order over its range of a block's windows,
    so memory does not grow with ``replications`` or the number of orders.
    With independent realizations order r draws from stream (seed, r + 1).
    Every study's work is spread over ``jobs`` threads; the result does not
    depend on it.
    """
    ma_orders = [int(order) for order in ma_orders]
    if not ma_orders:
        raise ValueError("ma_orders is empty; give at least one MA order")
    threshold = _study_threshold(T, M, n_mc, seed)(alpha)
    specs, streams = _alternative(F, ma_orders, window_mode)
    stats = _study_statistics(specs, streams, replications, M, T, window_mode, seed, jobs)
    return _power_points(ma_orders, stats, threshold, alpha, T, M)


def roc_curve(
    F: float = DEFAULT_F,
    ma_order: int = 1,
    replications: int = DEFAULT_REPLICATIONS,
    M: int = DEFAULT_M,
    T: int = DEFAULT_T,
    size_grid=DEFAULT_SIZE_GRID,
    seed: int = DEFAULT_SEED,
    window_mode: str = "consecutive-windows",
    n_mc: int = DEFAULT_N_MC,
    jobs: int = 1,
) -> list[ROCPoint]:
    """Power versus size over a fixed grid of nominal sizes.

    The alternative-hypothesis statistics are drawn once, exactly as
    ``power_curve`` draws those of ``ma_order``, and reused for every grid
    point, so the curve is monotone by construction. The null law's
    dimensions and the size grid are checked before any draw.
    """
    sizes = sorted(size_grid)
    for size in sizes:
        if not 0.0 < size < 1.0:
            raise ValueError(f"sizes must lie in (0, 1), got {size}")
    threshold_at = _study_threshold(T, M, n_mc, seed)
    specs, streams = _alternative(F, [ma_order], window_mode)
    [stats] = _study_statistics(specs, streams, replications, M, T, window_mode, seed, jobs)
    return _roc_points(stats, threshold_at, sizes)


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
    atomic_write(path, (_csv_text(["s", "t", "rho2"], rows),))


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
    atomic_write(path, (_csv_text(header, rows),))


def write_roc_csv(path: str, points: list[ROCPoint]) -> None:
    rows = [[repr(pt.size), repr(pt.power), repr(pt.std_error)] for pt in points]
    atomic_write(path, (_csv_text(["size", "power", "std_error"], rows),))


def write_summary_json(path: str, summary: dict) -> None:
    atomic_write(path, (json.dumps(summary, indent=2, sort_keys=True) + "\n",))
