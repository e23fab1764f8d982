import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
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
    _barnett_blocks,
    analytic_covariances,
    lag_window_covariance,
)

from helpers import DEGENERATE_BLOCKS, degenerate_pair
from reference import model_composite_covariance


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
        panel = lag_embed(x, y, spec).data[:, first : first + n]
        cut = DataPanel(data=panel, dims=spec.dims)
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

    @pytest.mark.parametrize("chunk_bytes", [None, 100_000], ids=["one-chunk", "chunked"])
    @pytest.mark.parametrize("conditioning", ["past-of-x", "past-of-y"])
    def test_data_map_matches_shared_column_panels(
        self, monkeypatch, conditioning, chunk_bytes
    ):
        if chunk_bytes:  # a few hundred columns per chunk, the last one partial
            monkeypatch.setattr(inference, "_WINDOW_CHUNK_BYTES", chunk_bytes)
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
            (30, 2000, 25, 0, 3),  # last of three chunks is partial
            (30, 2000, 25, 777, 3),  # sequence longer than the windows
            (10, 1000, 130, 13, 3),  # the power study's window shape
            (4, 60, 7, 0, 1),  # fewer windows than one chunk holds
        ],
    )
    def test_bit_identical_to_per_window_loop(
        self, T, M, n_windows, extra, chunks
    ):
        chunk = experiments._WINDOW_CHUNK_BYTES // ((2 * T + 2) * M * 8)
        assert -(-n_windows // chunk) == chunks
        assert chunks == 1 or n_windows % chunk != 0
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=2)
        x, y = gen_barnett(spec, n_windows * (M + T) + extra, 11)
        fast = _consecutive_stats(x, y, T, M)
        slow = per_window_consecutive_stats(x, y, T, M, n_windows)
        assert np.array_equal(fast, slow)

    def test_streamed_blocks_match_one_sequence(self):
        # Generator blocks of three windows, the last one shorter, carved one by one.
        T, M, n_windows = 4, 60, 7
        spec = BarnettModelSpec(transfer_entropy=0.1, ma_order=2)
        x, y = gen_barnett(spec, n_windows * 64, 11)
        blocks = _barnett_blocks(spec, n_windows * 64, 3 * 64, 11)
        fast = np.concatenate([_consecutive_stats(*block, T, M) for block in blocks])
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
        ],
    )
    def test_orders_match_one_order_route(self, monkeypatch, orders, jobs):
        # Three windows per panel make blocks of 3 windows, each cut into
        # jobs // groups window ranges (some empty at jobs=3), so the core's
        # last samples are carried across block and range boundaries.
        T, M, n_windows, seed = 3, 50, 10, 8
        monkeypatch.setattr(experiments, "_WINDOW_CHUNK_BYTES", 3 * (2 * T + 2) * M * 8)
        assert experiments._window_chunk(T, M) == 3
        specs = [BarnettModelSpec(transfer_entropy=0.1, ma_order=order) for order in orders]
        stats = _study_statistics(
            specs, [1] * len(specs), n_windows, M, T, "consecutive-windows", seed, jobs
        )
        for spec, got in zip(specs, stats):
            # The one-block sequence has no block boundary to carry across.
            whole = gen_barnett(spec, n_windows * (M + T), seed, stream=1)
            assert np.array_equal(got, _consecutive_stats(*whole, T, M))

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
        kwargs = dict(F=0.1, replications=300, M=150, T=2, seed=5, n_mc=20_000)
        one = power_curve([0], **kwargs)
        assert sum(drawn) == 2 * (BURN_IN + 300 * 152)
        drawn.clear()
        four = power_curve(range(4), **kwargs)
        assert sum(drawn) == 2 * (BURN_IN + 300 * 152)
        assert four[0] == one[0]


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
    """The Wishart draws scale by scipy.linalg.cholesky's factor, bit for bit."""

    @pytest.mark.parametrize("ma_order", [0, 1, 10])
    def test_equals_scipy_factor(self, ma_order):
        from scipy.linalg import cholesky

        # numpy.linalg.cholesky is a different LAPACK build: at MA order 10
        # (condition number ~1.2e9) its factor can differ in the last bits.
        population = lag_window_covariance(BarnettModelSpec(ma_order=ma_order), 10).entries
        assert_array_equal(
            experiments._cholesky_lower()(population), cholesky(population, lower=True)
        )

    def test_failed_load_falls_back_to_public_cholesky(self, monkeypatch, tmp_path):
        from scipy.linalg import cholesky

        monkeypatch.setattr(experiments, "_extension_path", lambda *a: str(tmp_path / "_flapack.so"))
        fallback = experiments._cholesky_lower.__wrapped__()
        assert fallback.func is cholesky and fallback.keywords == {"lower": True}

    def test_not_positive_definite_raises(self):
        # As scipy.linalg.cholesky and numpy.linalg.cholesky do.
        with pytest.raises(np.linalg.LinAlgError, match="leading minor 2 is not positive definite"):
            experiments._cholesky_lower()(np.diag([1.0, -1.0]))


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
            window_mode="independent-realizations", seed=7, n_mc=50_000,
        )
        assert est.achieved == pytest.approx(0.05, abs=3 * 0.0055)
        assert est.window_mode == "independent-realizations"

    def test_alpha_monotonicity(self):
        kwargs = dict(
            replications=2000, M=200, T=3,
            window_mode="independent-realizations", seed=7, n_mc=50_000,
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
            window_mode="consecutive-windows", n_mc=50_000,
        )
        weak = power_curve([0, 1], F=0.02, **kwargs)
        strong = power_curve([0, 1], F=0.2, **kwargs)
        for w, s in zip(weak, strong):
            assert s.power > w.power

    def test_null_power_matches_alpha(self):
        pts = power_curve(
            [1], F=0.0, alpha=0.05, replications=2000, M=200, T=3, seed=13,
            window_mode="independent-realizations", n_mc=50_000,
        )
        assert pts[0].power == pytest.approx(0.05, abs=0.02)

    def test_power_nondecreasing_in_sample_count(self):
        powers = []
        for M in (250, 500, 1000):
            pts = power_curve(
                [1], F=0.02, alpha=0.05, replications=2000, M=M, T=10,
                seed=31, window_mode="consecutive-windows", n_mc=50_000,
            )
            powers.append(pts[0].power)
        assert powers[0] < powers[1] < powers[2]

    def test_point_metadata(self):
        pts = power_curve(
            [0, 2], F=0.1, alpha=0.1, replications=800, M=150, T=2, seed=3,
            n_mc=20_000,
        )
        assert [pt.ma_order for pt in pts] == [0, 2]
        assert all(pt.replications == 800 and pt.M == 150 for pt in pts)
        assert all(0 <= pt.power <= 1 for pt in pts)
        assert all(pt.std_error < 0.02 for pt in pts)


class TestRocCurve:
    def test_monotone_and_bounded(self):
        pts = roc_curve(
            F=0.1, ma_order=1, replications=800, M=200, T=3,
            size_grid=(0.01, 0.05, 0.2, 0.5), seed=5, n_mc=50_000,
        )
        powers = [pt.power for pt in pts]
        assert powers == sorted(powers)
        assert all(0 <= v <= 1 for v in powers)

    def test_null_roc_sits_on_diagonal(self):
        pts = roc_curve(
            F=0.0, ma_order=1, replications=2000, M=200, T=3,
            size_grid=(0.05, 0.2, 0.5), seed=17,
            window_mode="independent-realizations", n_mc=50_000,
        )
        for pt in pts:
            band = 3 * np.sqrt(pt.size * (1 - pt.size) / 2000)
            assert abs(pt.power - pt.size) < band + 1e-9

    def test_dominates_diagonal_under_coupling(self):
        pts = roc_curve(
            F=0.2, ma_order=0, replications=800, M=200, T=3,
            size_grid=(0.01, 0.05, 0.2), seed=19, n_mc=50_000,
        )
        for pt in pts:
            assert pt.power > pt.size

    def test_consistent_with_power_curve(self):
        # same seed, same order, same replications: the 0.05 grid point
        # must reproduce the power curve exactly (shared streams)
        common = dict(replications=600, M=200, T=3, seed=23, n_mc=50_000)
        pts = roc_curve(F=0.1, ma_order=1, size_grid=(0.05,), **common)
        pw = power_curve([1], F=0.1, alpha=0.05, **common)
        assert pts[0].power == pw[0].power

    def test_too_few_null_draws_rejected(self):
        with pytest.raises(ValueError, match="n_mc=2000 gives insufficient tail"):
            roc_curve(replications=600, M=100, T=2, size_grid=(0.01, 0.5), n_mc=2000)

    def test_size_grid_validated(self):
        with pytest.raises(ValueError, match="sizes"):
            roc_curve(replications=600, M=100, T=2, size_grid=(0.0, 0.5), n_mc=20_000)


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
        pts = power_curve([0], F=0.1, replications=600, M=150, T=2, seed=3,
                          n_mc=20_000)
        p1 = tmp_path / "power.csv"
        write_power_csv(str(p1), pts)
        with open(p1) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["ma_order"] == "0"
        rpts = roc_curve(F=0.1, replications=600, M=150, T=2,
                         size_grid=(0.1, 0.5), seed=3, n_mc=20_000)
        p2 = tmp_path / "roc.csv"
        write_roc_csv(str(p2), rpts)
        text = p2.read_text()
        assert text.startswith("size,power,std_error\n")
        assert "\r" not in text

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
                    size_grid=(0.1, 0.3), seed=29, n_mc=20_000)
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
    ],
)
def test_input_check_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
