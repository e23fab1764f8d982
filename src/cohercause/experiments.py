"""Reproduction harness: coherence maps, size calibration, power and ROC.

Monte Carlo replications run over a vectorized fast path that computes
the partial-coherence statistic for whole batches of sample covariances
at once through the determinant identity

    1 - rho2 = det(S) det(S_zz) / (det(S_xz) det(S_yz)),

which agrees with the canonical per-matrix route (a unit test pins the
two together). Null thresholds are computed once per (p, q, r, M,
alpha) and cached.

Two replication modes mirror the two window modes of the embedding:
"independent-realizations" draws panel columns i.i.d. from the exact
population covariance of the lag window (the model is Gaussian linear,
so this is the distribution of fully independent realizations, without
simulating and mostly discarding millions of burn-in samples);
"consecutive-windows" simulates one long sequence and carves it into
back-to-back windows, reproducing the original experimental protocol
with its weakly dependent columns. Its windows are zero-copy views,
gathered chunk by chunk into one reused panel buffer of about 10 MB.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from numpy.lib.stride_tricks import sliding_window_view

from .coherence import partial_coherence
from .covariance import JITTER_SCALE
from .inference import LagSpec, lag_embed, likelihood_ratio, sample_covariance
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
    gen_barnett,
    lag_window_covariance,
    model_composite_covariance,
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
_WINDOW_CHUNK_BYTES = 10 * 2**20


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
# Batched statistic fast path


def _batch_logdet(A: np.ndarray) -> np.ndarray:
    """Log-determinants of a (B, k, k) stack of SPD matrices."""
    if A.shape[-1] == 0:
        return np.zeros(A.shape[0])
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        # Rare with M >> p+q+r; retry item-wise with the jitter policy.
        out = np.empty(A.shape[0])
        for i, m in enumerate(A):
            try:
                L1 = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                jitter = JITTER_SCALE * np.mean(np.diag(m))
                L1 = np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
            out[i] = 2.0 * np.sum(np.log(np.diag(L1)))
        return out
    return 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)


def _batch_statistic(S: np.ndarray, p: int, q: int, r: int) -> np.ndarray:
    """Partial coherence of each matrix in a (B, n, n) stack."""
    n = p + q + r
    xz = list(range(p)) + list(range(p + q, n))
    yz = list(range(p, n))
    zz = list(range(p + q, n))
    log_ratio = (
        _batch_logdet(S)
        + _batch_logdet(S[:, zz][:, :, zz])
        - _batch_logdet(S[:, xz][:, :, xz])
        - _batch_logdet(S[:, yz][:, :, yz])
    )
    return 1.0 - np.minimum(np.exp(log_ratio), 1.0)


def _panel_statistic(D: np.ndarray, p: int, q: int, r: int, center: bool) -> np.ndarray:
    """Statistic of each panel in a (B, n, M) stack, centred in place if asked."""
    if center:
        D -= D.mean(axis=2, keepdims=True)
    return _batch_statistic(D @ np.swapaxes(D, 1, 2), p, q, r)


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
    the ([x lags], y_t, [y lags]) embedding. Windows are zero-copy views of
    the reshaped sequences, copied chunk by chunk into one reused panel of
    about ``_WINDOW_CHUNK_BYTES``, which stays cache-resident for any M and T.
    """
    window = M + T
    n = n_windows * window
    if x.size < n:
        raise ValueError(
            f"sequence of {x.size} samples is too short for "
            f"{n_windows} windows of {window}"
        )
    # Entry [w, k] of each view is samples k .. k + M - 1 of window w.
    xv = sliding_window_view(x[:n].reshape(n_windows, window), M, axis=1)
    yv = sliding_window_view(y[:n].reshape(n_windows, window), M, axis=1)
    chunk = max(1, _WINDOW_CHUNK_BYTES // ((2 * T + 1) * M * 8))
    D = np.empty((min(chunk, n_windows), 2 * T + 1, M))
    out = np.empty(n_windows)
    for w0 in range(0, n_windows, chunk):
        D = D[: min(chunk, n_windows - w0)]  # shrinks only for the last chunk
        D[:, :T] = xv[w0 : w0 + chunk, T - 1 :: -1]
        D[:, T:] = yv[w0 : w0 + chunk, T::-1]
        out[w0 : w0 + chunk] = _panel_statistic(D, T, 1, T, center)
    return out


_threshold_cache: dict[tuple, float] = {}


def _cached_threshold(
    p: int, q: int, r: int, M: int, alpha: float, n_mc: int, seed: int, jobs: int
) -> float:
    key = (p, q, r, M, alpha, n_mc, seed)
    if key not in _threshold_cache:
        _threshold_cache[key] = critical_value(
            make_spec(p, q, r, M), alpha, n_mc=n_mc, seed=seed, jobs=jobs
        )
    return _threshold_cache[key]


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

    ``model`` is a model spec (analytic path) or an ``(x_seq, y_seq)``
    pair of one-dimensional arrays (estimated path). Values depend on
    (s, t) only through s - t by stationarity, so each distinct offset
    is computed once.
    """
    s_range = np.asarray(list(s_range), dtype=int)
    t_range = np.asarray(list(t_range), dtype=int)
    values = np.zeros((s_range.size, t_range.size))
    cache: dict[int, float] = {}

    if isinstance(model, (MAFilterSpec, BarnettModelSpec, CovarianceSequences)):
        if isinstance(model, MAFilterSpec):
            case = model.name
        elif isinstance(model, BarnettModelSpec):
            case = "barnett"
        else:
            case = "sequences"
        if isinstance(model, CovarianceSequences):
            seqs = model
        else:
            span = int(abs(s_range.max() - t_range.min()))
            span = max(span, int(abs(t_range.max() - s_range.min())))
            seqs = analytic_covariances(model, span + T_cond + 1)

        def value(offset: int) -> float:
            R = model_composite_covariance(
                seqs, offset, 0, conditioning=conditioning, T_cond=T_cond
            )
            return partial_coherence(R).rho2

    elif isinstance(model, tuple) and len(model) == 2:
        case = "data"
        x_seq = np.asarray(model[0], dtype=float)
        y_seq = np.asarray(model[1], dtype=float)

        def value(offset: int) -> float:
            spec = LagSpec.pairwise(offset, T_cond=T_cond, conditioning=conditioning)
            panel = lag_embed(x_seq, y_seq, spec)
            return likelihood_ratio(sample_covariance(panel))

    else:
        raise TypeError(
            "model must be a model spec, covariance sequences, or an (x, y) pair"
        )

    for i, s in enumerate(s_range):
        for j, t in enumerate(t_range):
            off = int(s - t)
            if off not in cache:
                cache[off] = value(off)
            values[i, j] = cache[off]
    return CoherenceMap(
        s_range=s_range,
        t_range=t_range,
        values=values,
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
    threshold = _cached_threshold(T, 1, T, M - 1, alpha, n_mc, seed, jobs)
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
    threshold = _cached_threshold(T, 1, T, M - 1, alpha, n_mc, seed, jobs)
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
    null_samples = sample_null(make_spec(T, 1, T, M - 1), n_mc, seed=seed, jobs=jobs)
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


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
