import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from cohercause import (
    BarnettModelSpec,
    BlockDims,
    CovarianceError,
    DataPanel,
    LagSpec,
    MAFilterSpec,
    calibrate_size,
    coherence_map,
    gen_barnett,
    gen_ma_case,
    likelihood_ratio,
    power_curve,
    roc_curve,
    partial_coherence_one_onto_two,
    sample_covariance,
)
from cohercause import experiments, inference, simulate
from cohercause.coherence import _log_det_q
from cohercause.experiments import (
    PowerPoint,
    ROCPoint,
    _consecutive_stats,
    _independent_stats,
    _study_statistics,
    write_map_csv,
    write_power_csv,
    write_roc_csv,
    write_summary_json,
)
from cohercause.inference import lag_embed
from cohercause.simulate import (
    BURN_IN,
    _barnett_cores,
    _ma_step,
    analytic_covariances,
    lag_window_covariance,
)

from helpers import DEGENERATE_BLOCKS, degenerate_pair
from reference import barnett_on_stream, model_composite_covariance


def per_window_consecutive_stats(x, y, T, M, n_windows, chunk=250):
    """Reference: the window-by-window row-list carving of consecutive windows."""
    window = M + T
    out = np.empty(n_windows)
    for w0 in range(0, n_windows, chunk):
        batch = []
        for w in range(w0, min(w0 + chunk, n_windows)):
            s0 = w * window
            xs = x[s0 : s0 + window]
            ys = y[s0 : s0 + window]
            rows = [xs[T - 1 - k : T - 1 - k + M] for k in range(T)]
            rows.append(ys[T : T + M])
            rows += [ys[T - 1 - k : T - 1 - k + M] for k in range(T)]
            rows.append(np.ones(M))  # conditioning on it centres the rest
            batch.append(np.array(rows))
        D = np.array(batch)
        S = D @ np.swapaxes(D, 1, 2)
        out[w0 : w0 + len(batch)] = -np.expm1(_log_det_q(S, T, 1, T + 1))
    return out


def panel_independent_stats(population, p, q, r, M, replications, seed):
    """Reference: each replication's Gram formed from a centred i.i.d. panel.

    Chunk i draws its (n, k, M) panel of M i.i.d. N(0, population) columns
    from stream (seed, i), centres its rows and forms the Gram.
    """
    chol = np.linalg.cholesky(population)
    parts = []
    for i, s in enumerate(range(0, replications, 200)):
        D = chol @ np.random.default_rng([seed, i]).standard_normal(
            (min(200, replications - s), p + q + r, M)
        )
        D = D - D.mean(axis=2, keepdims=True)
        parts.append(-np.expm1(_log_det_q(D @ np.swapaxes(D, 1, 2), p, q, r)))
    return np.concatenate(parts)


def per_cell_analytic_map(model, s_range, t_range, conditioning, T_cond):
    """Reference: one population composite and one statistic per grid cell."""
    span = max(abs(max(s_range) - min(t_range)), abs(max(t_range) - min(s_range)))
    seqs = analytic_covariances(model, span + T_cond + 1)
    return np.array([
        [
            likelihood_ratio(model_composite_covariance(seqs, s, t, conditioning, T_cond))
            for t in t_range
        ]
        for s in s_range
    ])


def per_offset_data_map(x, y, s_range, t_range, conditioning, T_cond):
    """Reference: one lag_embed panel per offset, cut to the columns that every
    offset of the grid shares."""
    specs = {
        s - t: LagSpec.pairwise(s - t, T_cond=T_cond, conditioning=conditioning)
        for s in s_range
        for t in t_range
    }
    union = [off for spec in specs.values() for _, off in spec.rows]
    lo, hi = min(0, *union), max(0, *union)
    n = x.size - (hi - lo)
    values = {}
    for off, spec in specs.items():
        own = [o for _, o in spec.rows]
        first = min(0, *own) - lo  # panel column of the first shared t
        rows = [row[first : first + n] for row in lag_embed(x, y, spec).data]
        cut = DataPanel(data=rows, dims=spec.dims)
        values[off] = likelihood_ratio(sample_covariance(cut))
    return np.array([[values[s - t] for t in t_range] for s in s_range])


MAP_MODELS = {
    "I": MAFilterSpec.from_case("I"),
    "II": MAFilterSpec.from_case("II"),
    "III": MAFilterSpec.from_case("III"),
    "barnett-ma1": BarnettModelSpec(transfer_entropy=0.02, ma_order=1),
    "barnett-ma10": BarnettModelSpec(transfer_entropy=0.02, ma_order=10),
}


class TestOneGramMap:
    """Every map is one kernel call over sub-matrices of one Gram; it matches
    the per-offset routes it replaced."""

    @pytest.mark.parametrize("name", MAP_MODELS)
    def test_analytic_past_of_x_bit_identical(self, name):
        grid = range(0, 20)
        cmap = coherence_map(MAP_MODELS[name], grid, grid, "past-of-x", T_cond=20)
        ref = per_cell_analytic_map(MAP_MODELS[name], grid, grid, "past-of-x", 20)
        assert np.array_equal(cmap.values, ref)

    @pytest.mark.parametrize("name", MAP_MODELS)
    def test_analytic_past_of_y(self, name):
        grid = range(0, 20)
        cmap = coherence_map(MAP_MODELS[name], grid, grid, "past-of-y", T_cond=20)
        ref = per_cell_analytic_map(MAP_MODELS[name], grid, grid, "past-of-y", 20)
        assert_allclose(cmap.values, ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("chunk_bytes", [2**26, 100_000], ids=["one-chunk", "chunked"])
    @pytest.mark.parametrize("conditioning", ["past-of-x", "past-of-y"])
    def test_data_map_matches_shared_column_panels(
        self, monkeypatch, conditioning, chunk_bytes
    ):
        # One chunk holds the whole 20k-column panel, or a few hundred columns
        # fill each chunk, the last one partial.
        monkeypatch.setattr(inference, "_GRAM_CHUNK_BYTES", chunk_bytes)
        x, y = gen_ma_case("I", 20_000, 42)
        grid = range(0, 20)
        cmap = coherence_map((x, y), grid, grid, conditioning, T_cond=20)
        ref = per_offset_data_map(x, y, grid, grid, conditioning, 20)
        assert_allclose(cmap.values, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "s_range, t_range", [(range(0, 4), range(0, 6)), ([2], [0])],
        ids=["non-square", "single-cell"],
    )
    @pytest.mark.parametrize("conditioning", ["past-of-x", "past-of-y"])
    def test_grid_shapes(self, s_range, t_range, conditioning):
        model = MAP_MODELS["I"]
        cmap = coherence_map(model, s_range, t_range, conditioning, T_cond=8)
        assert cmap.values.shape == (len(s_range), len(t_range))
        ref = per_cell_analytic_map(model, s_range, t_range, conditioning, 8)
        if conditioning == "past-of-x":
            assert np.array_equal(cmap.values, ref)
        assert_allclose(cmap.values, ref, rtol=0, atol=1e-15)
        x, y = gen_ma_case("I", 5000, 3)
        data = coherence_map((x, y), s_range, t_range, conditioning, T_cond=8)
        assert_allclose(
            data.values,
            per_offset_data_map(x, y, s_range, t_range, conditioning, 8),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("conditioning", ["past-of-x", "past-of-y"])
    def test_data_map_any_row_scale(self, conditioning):
        # 1e-200 x underflows and 1e200 y overflows a data-scale Gram.
        x, y = gen_ma_case("I", 5000, 3)
        grid = range(0, 6)
        cmap = coherence_map((1e-200 * x, 1e200 * y), grid, grid, conditioning, T_cond=8)
        ref = coherence_map((x, y), grid, grid, conditioning, T_cond=8)
        assert_allclose(cmap.values, ref.values, rtol=0, atol=1e-12)

    def test_empty_grid_rejected(self):
        x, y = gen_ma_case("I", 2000, 3)
        for model in (MAP_MODELS["I"], (x, y)):
            with pytest.raises(ValueError, match="grid is empty"):
                coherence_map(model, [], range(0, 3))

    def test_too_short_data_rejected(self):
        x, y = gen_ma_case("I", 5000, 3)
        # the offsets -3..3 with T_cond = 20 span [-20, 3]: 20 samples hold
        # no column, as lag_embed says of each offset's own panel
        with pytest.raises(ValueError, match="insufficient data"):
            coherence_map((x[:20], y[:20]), range(0, 4), range(0, 4), T_cond=20)

    @pytest.mark.parametrize("case", sorted(DEGENERATE_BLOCKS))
    def test_degenerate_data_names_block(self, case):
        x, y = degenerate_pair(case)
        with pytest.raises(CovarianceError, match=f"^{DEGENERATE_BLOCKS[case]} is rank"):
            coherence_map((x, y), range(0, 4), range(0, 4), "past-of-y", T_cond=4)

    def test_constant_x_past_of_x_names_z(self):
        x, y = degenerate_pair("constant-x")
        with pytest.raises(CovarianceError, match="^z is rank-deficient"):
            coherence_map((x, y), range(0, 4), range(0, 4), "past-of-x", T_cond=4)


class TestConsecutiveCarving:
    """The view-based carving is bit-identical to the per-window loop."""

    @pytest.mark.parametrize(
        "T, M, n_windows, extra, chunks",
        [
            (30, 2000, 25, 0, 3),  # last of three core blocks is partial
            (30, 2000, 25, 777, 3),  # sequence longer than the windows
            (10, 1000, 130, 13, 3),  # the power study's window shape
            (4, 60, 7, 0, 1),  # fewer windows than one block holds
        ],
    )
    def test_bit_identical_to_per_window_loop(
        self, T, M, n_windows, extra, chunks
    ):
        chunk = experiments._window_chunk(T, M)
        assert -(-n_windows // chunk) == chunks
        assert chunks == 1 or n_windows % chunk != 0
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=2)
        x, y = gen_barnett(spec, n_windows * (M + T) + extra, 11)
        slow = per_window_consecutive_stats(x, y, T, M, n_windows)
        assert np.array_equal(_consecutive_stats(x, y, T, M), slow)
        # Carved as the studies carve it: core block by core block, through one
        # reused panel (5 windows at T 10, M 1000, so 59-window blocks end in a
        # partial batch); the last block keeps the samples past the windows.
        buffer = experiments._panel(T, M, chunk)
        ends = [min(w0 + chunk, n_windows) * (M + T) for w0 in range(0, n_windows, chunk)]
        ends[-1] = x.size
        blocks = [
            _consecutive_stats(x[a:b], y[a:b], T, M, buffer) for a, b in zip([0, *ends], ends)
        ]
        assert np.array_equal(np.concatenate(blocks), slow)

    @pytest.mark.parametrize(
        "n_windows, panel", [(5, 2), (7, 2), (13, 3), (12, 5), (3, 5)],
    )
    def test_panel_batches_bit_identical(self, monkeypatch, n_windows, panel):
        # Panels of fewer windows than the sequence has, most ending in a partial
        # batch; the last case's panel is cut to the sequence's 3 windows.
        T, M = 3, 50
        monkeypatch.setattr(experiments, "_PANEL_BYTES", panel * (2 * T + 2) * M * 8)
        assert len(experiments._panel(T, M, n_windows)) == min(panel, n_windows)
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=2)
        x, y = gen_barnett(spec, n_windows * (M + T) + 17, 11)
        slow = per_window_consecutive_stats(x, y, T, M, n_windows)
        assert np.array_equal(_consecutive_stats(x, y, T, M), slow)
        buffer = experiments._panel(T, M, n_windows)
        assert np.array_equal(_consecutive_stats(x, y, T, M, buffer), slow)
        # The buffer's row of ones survives its reuse.
        assert np.array_equal(buffer[:, 2 * T + 1], np.ones((len(buffer), M)))

    def test_traced_peak_is_one_small_panel(self):
        # One default core block carved through a panel of about _PANEL_BYTES:
        # the traced peak is the panel and the block's Gram stack, plus the
        # kernel's reordered copy and factor of that stack and small arrays.
        T, M = 10, 1000
        k = experiments._window_chunk(T, M)
        assert k == 59
        x, y = gen_barnett(BarnettModelSpec(transfer_entropy=0.02, ma_order=1), k * (M + T), 3)
        # The 5 windows of 22 x 1000 doubles that fit in 1 MiB.
        panel_bytes = 5 * (2 * T + 2) * M * 8
        gram_bytes = k * (2 * T + 2) ** 2 * 8
        slack = 3 * gram_bytes + 64 * 1024
        tracemalloc.start()
        try:
            _consecutive_stats(x, y, T, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel_bytes + gram_bytes <= peak < panel_bytes + gram_bytes + slack

    def test_streamed_blocks_match_one_sequence(self):
        # Generator blocks of three windows, the last one shorter, carved one by one.
        T, M, n_windows = 4, 60, 7
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=2)
        x, y = gen_barnett(spec, n_windows * 64, 11)
        cores = _barnett_cores(spec, n_windows * 64, 3 * 64, 11, 0, 2)
        fast = np.concatenate([_consecutive_stats(*_ma_step(spec, c, 2), T, M) for c in cores])
        assert np.array_equal(fast, per_window_consecutive_stats(x, y, T, M, n_windows))


class TestSharedCore:
    """Consecutive-window studies filter one AR core, cut over the study pool."""

    @pytest.mark.parametrize(
        "orders, jobs",
        [
            pytest.param([0, 1, 3, 10], 1, id="1"),
            pytest.param([0, 1, 3, 10], 2, id="2"),
            pytest.param([0, 1, 3, 10], 3, id="3"),
            pytest.param([1], 1, id="one-order-1"),
            pytest.param([1], 2, id="one-order-2"),
            pytest.param([1], 3, id="one-order-3"),
            # Order 0 has no history: an empty window range would hand the
            # MA step an empty core slice.
            pytest.param([0], 2, id="order-0-2"),
            pytest.param([0], 3, id="order-0-3"),
        ],
    )
    def test_orders_match_one_order_route(self, monkeypatch, orders, jobs):
        # Core blocks of 5 windows (the last of 2), each cut into jobs window
        # ranges (the last block leaves one empty at jobs 3, and it is not
        # carved), so the core's last samples are carried across block and
        # range boundaries. Panels hold 2 windows, so a block's or a range's
        # last batch is partial.
        T, M, n_windows, seed = 3, 50, 12, 8
        window_bytes = (2 * T + 2) * M * 8
        monkeypatch.setattr(experiments, "_WINDOW_CHUNK_BYTES", 5 * window_bytes)
        monkeypatch.setattr(experiments, "_PANEL_BYTES", 2 * window_bytes)
        assert experiments._window_chunk(T, M) == 5
        assert len(experiments._panel(T, M, n_windows)) == 2
        specs = [BarnettModelSpec(transfer_entropy=0.1, ma_order=order) for order in orders]
        stats = _study_statistics(
            specs, [1] * len(specs), n_windows, M, T, "consecutive-windows", seed, jobs
        )
        for spec, got in zip(specs, stats):
            # The one-block sequence has no block boundary to carry across.
            whole = barnett_on_stream(spec, n_windows * (M + T), seed, 1)
            assert np.array_equal(got, _consecutive_stats(*whole, T, M))
            assert np.array_equal(got, per_window_consecutive_stats(*whole, T, M, n_windows))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_carving_error_reaches_caller(self, jobs):
        # M = 5 columns cannot hold the rank of 2T + 2 = 8 rows, so the kernel
        # raises inside each carving task, and the study raises it.
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=1)
        with pytest.raises(CovarianceError, match="rank-deficient"):
            _study_statistics([spec], [0], 6, 5, 3, "consecutive-windows", 1, jobs)

    def test_blocks_never_share_a_panel(self, monkeypatch):
        # Blocks of 3 windows cut into ranges of 1 and 2 at jobs=2; the 1-window
        # range is carved fast and the 2-window range slowly. If the next block
        # were submitted before this one's tasks ended, the fast worker would
        # take both of its ranges and reach the slow range's panel while the
        # slow task still fills it.
        T, M = 3, 50
        monkeypatch.setattr(experiments, "_WINDOW_CHUNK_BYTES", 3 * (2 * T + 2) * M * 8)
        real, lock, busy, clashes = experiments._consecutive_stats, threading.Lock(), set(), []

        def carve(x, y, T, M, buffer):
            with lock:
                clashes.append(id(buffer) in busy)
                busy.add(id(buffer))
            time.sleep(0.01 if x.size < 2 * (M + T) else 0.2)
            with lock:
                busy.discard(id(buffer))
            return real(x, y, T, M, buffer)

        monkeypatch.setattr(experiments, "_consecutive_stats", carve)
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=1)
        _study_statistics([spec], [0], 6, M, T, "consecutive-windows", 8, 2)
        assert len(clashes) == 4 and not any(clashes)

    def test_one_order_uses_every_worker(self, monkeypatch):
        # A one-order study at jobs=2 carves each block's two window ranges
        # at once: the barrier lets no carving through until both threads reach it.
        T, M, seed = 3, 50, 8
        monkeypatch.setattr(experiments, "_WINDOW_CHUNK_BYTES", 3 * (2 * T + 2) * M * 8)
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=1)
        # 12 windows make 4 blocks of 3, each cut into ranges of 1 and 2 windows.
        expected = _consecutive_stats(*gen_barnett(spec, 12 * (M + T), seed), T, M)
        barrier, threads = threading.Barrier(2, timeout=10), set()

        def log_det_q(*args):
            threads.add(threading.get_ident())
            barrier.wait()
            return _log_det_q(*args)

        monkeypatch.setattr(experiments, "_log_det_q", log_det_q)
        [got] = _study_statistics([spec], [0], 12, M, T, "consecutive-windows", seed, 2)
        assert len(threads) == 2
        assert np.array_equal(got, expected)

    def test_power_draws_one_core(self, monkeypatch):
        # Orders 0..3 draw exactly the normal samples of order 0 alone: one core.
        drawn = []
        real = simulate.stream_rng

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, size):
                drawn.append(int(np.prod(size)))
                return self.rng.standard_normal(size)

        monkeypatch.setattr(simulate, "stream_rng", lambda *key: Counting(real(*key)))
        kwargs = dict(F=0.1, replications=300, M=150, T=2, seed=5)
        one = power_curve([0], **kwargs)
        assert sum(drawn) == 2 * (BURN_IN + 300 * 152)
        drawn.clear()
        four = power_curve(range(4), **kwargs)
        assert sum(drawn) == 2 * (BURN_IN + 300 * 152)
        assert four[0] == one[0]


class TestCoreGram:
    """Several MA orders read their window Grams from one Gram of the shared AR core."""

    @staticmethod
    def record_routes(monkeypatch):
        """Whether each carving call took the core route (it passes transforms)."""
        real, core = experiments._consecutive_stats, []

        def carve(*args):
            core.append(len(args) > 5)
            return real(*args)

        monkeypatch.setattr(experiments, "_consecutive_stats", carve)
        return core

    @pytest.mark.parametrize(
        "T, orders, core",
        [
            (10, [0, 1], True),
            (10, range(4), True),
            (10, [0, 10], False),
            (10, [10], False),
            (10, [1], False),
            (3, range(4), True),
            (3, [0, 1, 3, 10], False),
            # (2T + 2h + 2)^2 = 144 = 4 (2T + 2)^2: a tie takes the direct route.
            (2, range(4), False),
        ],
    )
    def test_route_rule(self, monkeypatch, T, orders, core):
        # The core route when (2T + 2h + 2)^2 < n_orders (2T + 2)^2, for h the top order.
        routes = self.record_routes(monkeypatch)
        specs = [BarnettModelSpec(transfer_entropy=0.1, ma_order=order) for order in orders]
        _study_statistics(specs, [1] * len(specs), 2, 60, T, "consecutive-windows", 8, 1)
        assert routes and set(routes) == {core}

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize(
        "chunk, panel", [(None, None), (5, 2), (7, 1), (10, 3)],
        ids=["default", "5-2", "7-1", "10-3"],
    )
    def test_exact_across_jobs_and_buffers(self, monkeypatch, jobs, chunk, panel):
        # Orders 0..3 at T 3 take the core route (14^2 < 4 * 8^2). Core blocks of
        # `chunk` windows hold core Grams for 1, 2 or 3 windows at a time, and the
        # 14-row panel holds `panel` windows; none of it moves a bit.
        T, M, n_windows, seed = 3, 50, 12, 8
        specs = [BarnettModelSpec(transfer_entropy=0.1, ma_order=order) for order in range(4)]
        args = (specs, [1] * 4, n_windows, M, T, "consecutive-windows", seed)
        expected = _study_statistics(*args, 1)
        if chunk:
            monkeypatch.setattr(experiments, "_WINDOW_CHUNK_BYTES", chunk * (2 * T + 2) * M * 8)
            monkeypatch.setattr(experiments, "_PANEL_BYTES", panel * (2 * (T + 3) + 2) * M * 8)
            assert len(experiments._panel(T + 3, M, n_windows)) == panel
        routes = self.record_routes(monkeypatch)
        got = _study_statistics(*args, jobs)
        assert routes and all(routes)
        assert np.array_equal(got, expected)
        # Each row is its own order's statistics, up to rounding.
        for spec, row in zip(specs, got):
            whole = barnett_on_stream(spec, n_windows * (M + T), seed, 1)
            assert_allclose(row, _consecutive_stats(*whole, T, M), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", [1, 3, 10])
    def test_at_least_as_accurate_as_direct_route(self, order):
        # Reference: the order filtered from the core and its window Grams formed
        # in extended precision, rounded once and passed to the same kernel. The
        # core route rounds the core's Gram and its transform; the direct route
        # also rounds the filtered pair before forming its Gram.
        T, M, n_windows, h, seed = 10, 1000, 30, 10, 42
        spec = BarnettModelSpec(transfer_entropy=0.02, ma_order=order)
        N = n_windows * (M + T)
        core = next(_barnett_cores(spec, N, N, seed, 1, h))
        direct = _consecutive_stats(*_ma_step(spec, core, h), T, M)
        [shared] = _consecutive_stats(
            core[1], core[0], T, M, transforms={order: experiments._ma_transform(spec, T, h)}
        )
        eta1, eta2 = (c.astype(np.longdouble) for c in core)
        x = sum(c * eta2[h - j : h - j + N] for j, c in enumerate(spec.ma_x))
        y = sum(c * eta1[h - j : h - j + N] for j, c in enumerate(spec.ma_y))
        rows = inference._row_views(
            x.reshape(n_windows, M + T), y.reshape(n_windows, M + T),
            LagSpec.influence_test(T).rows,
        )
        D = np.concatenate(
            [np.stack(rows, axis=1), np.ones((n_windows, 1, M), np.longdouble)], axis=1
        )
        S = (D @ np.swapaxes(D, 1, 2)).astype(float)
        reference = -np.expm1(_log_det_q(S, T, 1, T + 1))
        error = {
            name: np.max(np.abs(stats - reference) / reference)
            for name, stats in (("direct", direct), ("core", shared))
        }
        assert error["core"] <= error["direct"], error

    def test_traced_peak_is_one_small_panel(self):
        # One default core block of orders 0..10 carved through a 42-row panel of
        # about _PANEL_BYTES: the traced peak is the panel and a stack of 16 core
        # Grams, plus one order's transformed stack, the kernel's copies of it
        # and small arrays.
        T, M, h = 10, 1000, 10
        k = experiments._window_chunk(T, M)
        specs = [BarnettModelSpec(transfer_entropy=0.02, ma_order=order) for order in range(h + 1)]
        core = next(_barnett_cores(specs[0], k * (M + T), k * (M + T), 3, 1, h))
        transforms = {spec.ma_order: experiments._ma_transform(spec, T, h) for spec in specs}
        # The 3 windows of 42 x 1000 doubles that fit in 1 MiB.
        panel_bytes = 3 * (2 * (T + h) + 2) * M * 8
        # 16 core Grams take the bytes of 59 Grams of 22 rows.
        grams_bytes = 16 * (2 * (T + h) + 2) ** 2 * 8
        half_bytes = 16 * (2 * T + 2) * (2 * (T + h) + 2) * 8  # C G
        order_bytes = 16 * (2 * T + 2) ** 2 * 8
        slack = half_bytes + 3 * order_bytes + 64 * 1024
        tracemalloc.start()
        try:
            _consecutive_stats(core[1], core[0], T, M, transforms=transforms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel_bytes + grams_bytes <= peak < panel_bytes + grams_bytes + slack


class TestBatchedFastPath:
    def test_agrees_with_one_onto_two(self):
        rng = np.random.default_rng(0)
        p, q, r, M = 3, 2, 4, 50
        panels = rng.standard_normal((6, p + q + r, M))
        panels -= panels.mean(axis=2, keepdims=True)
        S = panels @ np.swapaxes(panels, 1, 2)
        fast = -np.expm1(_log_det_q(S, p, q, r))
        for i in range(panels.shape[0]):
            panel = DataPanel(data=panels[i], dims=BlockDims(p, q, r))
            slow = partial_coherence_one_onto_two(sample_covariance(panel, center=False))
            assert fast[i] == pytest.approx(slow, abs=1e-12)

    def test_consecutive_stats_match_embedding_route(self):
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=1)
        T, M, n_win = 4, 60, 3
        x, y = gen_barnett(spec, n_win * (M + T), 5)
        fast = _consecutive_stats(x, y, T, M)
        for w in range(n_win):
            seg = slice(w * (M + T), (w + 1) * (M + T))
            panel = lag_embed(x[seg], y[seg], LagSpec.influence_test(T=T))
            slow = likelihood_ratio(sample_covariance(panel))
            assert fast[w] == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("ma_order", [0, 1])
    def test_centring_by_conditioning_matches_extended_precision(self, ma_order):
        # The ones row of z centres each window; the reference centres each
        # window's rows and forms its Gram in extended precision.
        T, M, n_win = 10, 1000, 200
        spec = BarnettModelSpec(transfer_entropy=0.02, ma_order=ma_order)
        x, y = gen_barnett(spec, n_win * (M + T), 42)
        fast = _consecutive_stats(x, y, T, M)
        windows = np.stack([x, y])[:, : n_win * (M + T)].reshape(2, n_win, M + T)
        D = np.array([
            lag_embed(xw, yw, LagSpec.influence_test(T)).data for xw, yw in zip(*windows)
        ]).astype(np.longdouble)
        D -= D.mean(axis=2, keepdims=True)
        S = (D @ np.swapaxes(D, 1, 2)).astype(float)
        assert_allclose(fast, -np.expm1(_log_det_q(S, T, 1, T)), rtol=1e-11, atol=0)

    def test_independent_stats_deterministic_across_jobs(self):
        spec = BarnettModelSpec(transfer_entropy=0.0, ma_order=1)
        population = lag_window_covariance(spec, 3).entries
        # 850 replications are 5 chunks, not a multiple of either worker count.
        a = _independent_stats(population, 3, 1, 3, 80, 850, 3, 0, map)
        for jobs in (1, 2, 3):
            b = _study_statistics([spec], [0], 850, 80, 3, "independent-realizations", 3, jobs)
            assert_array_equal(b, [a])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_independent_stats_worker_error_surfaces(self, jobs):
        # The last z row is the one before it up to 1e-7: the population
        # factors, but every drawn Gram fails the kernel's pivot rule on z.
        B = np.tril(np.random.default_rng(5).standard_normal((7, 7))) + 3 * np.eye(7)
        B[6] = B[5]
        B[6, 6] = 1e-7
        with ThreadPoolExecutor(jobs) as pool, pytest.raises(
            CovarianceError, match=r"^z is rank-deficient$"
        ):
            _independent_stats(B @ B.T, 3, 1, 3, 80, 450, 3, 0, pool.map)


def test_import_starts_no_process_machinery():
    # The study pool is a thread pool; importing the package loads neither
    # the process pool nor multiprocessing.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, cohercause; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestPopulationFactor:
    """The Wishart draws scale by numpy.linalg.cholesky's factor of the population."""

    def test_not_positive_definite_raises(self):
        population = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _independent_stats(population, 1, 1, 1, 50, 10, 0, 0, map)


def random_population(k, seed):
    a = np.random.default_rng(seed).standard_normal((k, 3 * k))
    return a @ a.T / (3 * k)


class TestWishartDraw:
    """The Bartlett draw of each Gram has the law of the i.i.d.-panel Gram.

    Fixed seeds; each KS gate sits at the 0.999 critical value (p > 1e-3).
    """

    @pytest.mark.parametrize(
        "p, q, r, M, population",
        [
            pytest.param(3, 1, 3, 80, lag_window_covariance(
                BarnettModelSpec(transfer_entropy=0.1, ma_order=2), 3
            ).entries, id="barnett-T3"),
            pytest.param(2, 2, 1, 30, random_population(5, 4), id="random-q2"),
            # condition number ~1.2e9
            pytest.param(10, 1, 10, 200, lag_window_covariance(
                BarnettModelSpec(transfer_entropy=0.02, ma_order=10), 10
            ).entries, id="barnett-ma10-T10"),
        ],
    )
    def test_matches_panel_reference(self, p, q, r, M, population):
        drawn = _independent_stats(population, p, q, r, M, 4000, 1, 0, map)
        panels = panel_independent_stats(population, p, q, r, M, 4000, 2)
        assert stats.ks_2samp(drawn, panels).pvalue > 1e-3

    @pytest.mark.parametrize("T, M, ma_order", [(3, 12, 1), (3, 80, 1), (10, 200, 10)])
    def test_null_matches_closed_form(self, T, M, ma_order):
        population = lag_window_covariance(
            BarnettModelSpec(transfer_entropy=0.0, ma_order=ma_order), T
        ).entries
        drawn = _independent_stats(population, T, 1, T, M, 4000, 3, 0, map)
        # q = 1: 1 - rho2 ~ Beta((m - p + 1)/2, p/2), m = df - r - q, df = M - 1.
        m = M - 1 - T - 1
        law = stats.beta((m - T + 1) / 2, T / 2)
        assert stats.kstest(1.0 - drawn, law.cdf).pvalue > 1e-3


class TestCoherenceMap:
    def test_zero_coupling_is_all_zero(self):
        spec = MAFilterSpec(f_offsets=(), f_coeffs=())
        cmap = coherence_map(spec, range(0, 5), range(0, 5), "past-of-x", T_cond=8)
        assert cmap.values.max() < 1e-12

    def test_case_one_pattern(self):
        cmap = coherence_map(
            MAFilterSpec.from_case("I"), range(0, 8), range(0, 8), "past-of-x",
            T_cond=12,
        )
        assert np.all((cmap.values >= 0) & (cmap.values <= 1))
        for i, s in enumerate(cmap.s_range):
            for j, t in enumerate(cmap.t_range):
                if s > t or s < t - 3:
                    assert cmap.values[i, j] < 1e-10
                else:
                    assert cmap.values[i, j] > 1e-3

    def test_reproducible(self):
        spec = MAFilterSpec.from_case("III")
        a = coherence_map(spec, range(0, 4), range(0, 4), "past-of-y", T_cond=6)
        b = coherence_map(spec, range(0, 4), range(0, 4), "past-of-y", T_cond=6)
        assert np.array_equal(a.values, b.values)

    def test_data_path(self):
        from cohercause import gen_ma_case

        x, y = gen_ma_case("I", 20_000, 2)
        cmap = coherence_map((x, y), range(0, 4), range(0, 4), "past-of-x", T_cond=8)
        assert cmap.case == "data"
        assert np.all((cmap.values >= 0) & (cmap.values <= 1))
        # the coupled band should dominate the structural-zero region
        on_diag = np.diag(cmap.values).mean()
        future = cmap.values[3, 0]  # s = 3, t = 0 -> s > t
        assert on_diag > 10 * future

    def test_list_and_generator_ranges(self):
        spec = MAFilterSpec.from_case("II")
        ref = coherence_map(spec, range(0, 3), range(1, 4), T_cond=6)
        cmap = coherence_map(spec, [0, 1, 2], (t for t in range(1, 4)), T_cond=6)
        assert np.array_equal(cmap.values, ref.values)
        for got in (cmap.s_range, cmap.t_range, ref.s_range):
            assert isinstance(got, np.ndarray) and got.dtype.kind == "i"
        assert cmap.t_range.tolist() == [1, 2, 3]

    def test_bad_model_type(self):
        sequences = analytic_covariances(MAFilterSpec.from_case("I"), 4)
        for model in (42, sequences):
            with pytest.raises(TypeError):
                coherence_map(model, range(2), range(2))


class TestCalibrateSize:
    def test_independent_mode_near_alpha(self):
        est = calibrate_size(
            BarnettModelSpec(transfer_entropy=0.0, ma_order=1),
            alpha=0.05, replications=2000, M=200, T=3,
            window_mode="independent-realizations", seed=7,
        )
        assert est.achieved == pytest.approx(0.05, abs=3 * 0.0055)
        assert est.window_mode == "independent-realizations"

    def test_alpha_monotonicity(self):
        kwargs = dict(
            replications=2000, M=200, T=3,
            window_mode="independent-realizations", seed=7,
        )
        spec = BarnettModelSpec(transfer_entropy=0.0, ma_order=1)
        small = calibrate_size(spec, alpha=0.01, **kwargs)
        large = calibrate_size(spec, alpha=0.05, **kwargs)
        assert small.achieved <= large.achieved

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="replications"):
            calibrate_size(BarnettModelSpec(), replications=100)


class TestPowerCurve:
    def test_power_increases_with_effect_size(self):
        kwargs = dict(
            alpha=0.05, replications=800, M=200, T=3, seed=11,
            window_mode="consecutive-windows",
        )
        weak = power_curve([0, 1], F=0.02, **kwargs)
        strong = power_curve([0, 1], F=0.2, **kwargs)
        for w, s in zip(weak, strong):
            assert s.power > w.power

    def test_null_power_matches_alpha(self):
        pts = power_curve(
            [1], F=0.0, alpha=0.05, replications=2000, M=200, T=3, seed=13,
            window_mode="independent-realizations",
        )
        assert pts[0].power == pytest.approx(0.05, abs=0.02)

    def test_power_nondecreasing_in_sample_count(self):
        powers = []
        for M in (250, 500, 1000):
            pts = power_curve(
                [1], F=0.02, alpha=0.05, replications=2000, M=M, T=10,
                seed=31, window_mode="consecutive-windows",
            )
            powers.append(pts[0].power)
        assert powers[0] < powers[1] < powers[2]

    def test_point_metadata(self):
        pts = power_curve([0, 2], F=0.1, alpha=0.1, replications=800, M=150, T=2, seed=3)
        assert [pt.ma_order for pt in pts] == [0, 2]
        assert all(pt.replications == 800 and pt.M == 150 for pt in pts)
        assert all(0 <= pt.power <= 1 for pt in pts)
        assert all(pt.std_error < 0.02 for pt in pts)

    def test_one_pass_generator_of_orders(self):
        kwargs = dict(F=0.1, replications=300, M=150, T=2, seed=3)
        assert power_curve((order for order in (0, 2)), **kwargs) == power_curve([0, 2], **kwargs)


class TestRocCurve:
    def test_monotone_and_bounded(self):
        pts = roc_curve(
            F=0.1, ma_order=1, replications=800, M=200, T=3,
            size_grid=(0.01, 0.05, 0.2, 0.5), seed=5,
        )
        powers = [pt.power for pt in pts]
        assert powers == sorted(powers)
        assert all(0 <= v <= 1 for v in powers)

    def test_null_roc_sits_on_diagonal(self):
        pts = roc_curve(
            F=0.0, ma_order=1, replications=2000, M=200, T=3,
            size_grid=(0.05, 0.2, 0.5), seed=17,
            window_mode="independent-realizations",
        )
        for pt in pts:
            band = 3 * np.sqrt(pt.size * (1 - pt.size) / 2000)
            assert abs(pt.power - pt.size) < band + 1e-9

    def test_dominates_diagonal_under_coupling(self):
        pts = roc_curve(
            F=0.2, ma_order=0, replications=800, M=200, T=3,
            size_grid=(0.01, 0.05, 0.2), seed=19,
        )
        for pt in pts:
            assert pt.power > pt.size

    def test_consistent_with_power_curve(self):
        # same seed, same order, same replications: the 0.05 grid point
        # must reproduce the power curve exactly (shared streams)
        common = dict(replications=600, M=200, T=3, seed=23)
        pts = roc_curve(F=0.1, ma_order=1, size_grid=(0.05,), **common)
        pw = power_curve([1], F=0.1, alpha=0.05, **common)
        assert pts[0].power == pw[0].power

    def test_too_few_null_draws_rejected(self):
        # The study law's 200,000 draws hold 20 in the tail of size 1e-4, fewer than 50.
        with pytest.raises(ValueError, match="n_mc=200000 gives insufficient tail"):
            roc_curve(replications=600, M=100, T=2, size_grid=(1e-4, 0.5))

    def test_size_grid_validated(self):
        with pytest.raises(ValueError, match="sizes"):
            roc_curve(replications=600, M=100, T=2, size_grid=(0.0, 0.5))


class TestWriters:
    def test_csv_text_matches_csv_writer(self):
        header = ["ma_order", "power", "replications"]
        rows = [[0, repr(0.1), 2000], [10, repr(-1.5e-300), 7], [-1, repr(2.0), 0]]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        assert experiments._csv_text(header, rows) == buf.getvalue()

    def test_map_csv(self, tmp_path):
        cmap = coherence_map(
            MAFilterSpec.from_case("I"), range(0, 3), range(0, 3), "past-of-x",
            T_cond=6,
        )
        path = tmp_path / "map.csv"
        write_map_csv(str(path), cmap)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert set(rows[0]) == {"s", "t", "rho2"}
        assert float(rows[0]["rho2"]) == pytest.approx(cmap.values[0, 0])

    def test_power_and_roc_csv(self, tmp_path):
        pts = power_curve([0], F=0.1, replications=600, M=150, T=2, seed=3)
        p1 = tmp_path / "power.csv"
        write_power_csv(str(p1), pts)
        with open(p1) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["ma_order"] == "0"
        rpts = roc_curve(F=0.1, replications=600, M=150, T=2,
                         size_grid=(0.1, 0.5), seed=3)
        p2 = tmp_path / "roc.csv"
        write_roc_csv(str(p2), rpts)
        text = p2.read_text()
        assert text.startswith("size,power,std_error\n")
        assert "\r" not in text

    def test_numpy_scalars_written_as_plain_numbers(self, tmp_path):
        # A study run with numpy arguments writes the bytes of the same study run
        # with Python ones, and so do points built from numpy scalars.
        kwargs = dict(F=0.1, replications=300, M=150, T=2, seed=3)
        write_power_csv(str(tmp_path / "np.csv"),
                        power_curve(np.arange(2), alpha=np.float64(0.05), **kwargs))
        write_power_csv(str(tmp_path / "py.csv"), power_curve([0, 1], alpha=0.05, **kwargs))
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()
        power = [PowerPoint(np.int64(2), np.float64(0.5), np.float64(0.25), np.float64(0.05),
                            np.int64(300), np.int64(2), np.int64(150))]
        roc = [ROCPoint(np.float64(0.05), np.float64(0.5), np.float64(0.25))]
        write_power_csv(str(tmp_path / "power.csv"), power)
        write_roc_csv(str(tmp_path / "roc.csv"), roc)
        assert (tmp_path / "power.csv").read_text().splitlines()[1] == "2,0.5,0.25,0.05,300,2,150"
        assert (tmp_path / "roc.csv").read_text().splitlines()[1] == "0.05,0.5,0.25"

    def test_summary_json_and_atomicity(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(str(path), {"seed": 42, "alpha": 0.05})
        payload = json.loads(path.read_text())
        assert payload == {"seed": 42, "alpha": 0.05}
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_output_mode_matches_plain_open(self, tmp_path):
        # The temporary file is created under the umask, as open() creates one.
        write_summary_json(str(tmp_path / "summary.json"), {"seed": 42})
        (tmp_path / "plain.json").write_text("")
        mode = (tmp_path / "summary.json").stat().st_mode
        assert mode == (tmp_path / "plain.json").stat().st_mode

    def test_byte_identical_reruns(self, tmp_path):
        args = dict(F=0.05, ma_order=0, replications=600, M=150, T=2,
                    size_grid=(0.1, 0.3), seed=29)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_roc_csv(str(a), roc_curve(**args))
        write_roc_csv(str(b), roc_curve(**args))
        assert a.read_bytes() == b.read_bytes()


# Each study and map input check raises with its message.
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: roc_curve(replications=10, M=50, T=2, window_mode="sliding"),
                     "unknown window mode 'sliding'", id="window-mode"),
        pytest.param(lambda: coherence_map((np.zeros(10), np.zeros(11)), range(2), range(2)),
                     "x and y must be one-dimensional with equal length", id="map-shapes"),
        pytest.param(lambda: power_curve(range(5, 2), replications=10, M=50, T=2),
                     "ma_orders is empty; give at least one MA order", id="no-orders"),
    ],
)
def test_input_check_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
