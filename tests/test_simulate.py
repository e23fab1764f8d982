import csv
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import lfilter

from cohercause import (
    BarnettModelSpec,
    BlockDims,
    CompositeCovariance,
    CovarianceSequences,
    MAFilterSpec,
    analytic_covariances,
    composite_from_sequences,
    gen_barnett,
    gen_ma_case,
    lag_window_covariance,
    partial_coherence,
    read_sequence_csv,
    simulate,
    write_sequence_csv,
)
from cohercause.inference import atomic_write
from cohercause.simulate import (
    _CSV_BLOCK_ROWS,
    BURN_IN,
    MA_CASES,
    _barnett_cores,
    _ma_step,
    _overlap_sum,
)
from cohercause.streams import stream_rng

from reference import (
    barnett_on_stream, model_composite_covariance, overlap_sum, xx_at, xy_at, yy_at,
)


def csv_writer_sequence(path, x, y):
    """Reference: the per-row csv.writer loop of the sequence CSV format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "y"])
        for t, (xv, yv) in enumerate(zip(x, y)):
            writer.writerow([t, repr(float(xv)), repr(float(yv))])


def lfilter_gen_barnett(spec, length, seed, stream=0):
    """Reference: the Barnett pair with both MA polynomials run through lfilter."""
    total = length + BURN_IN
    mu = stream_rng(seed, stream, 0).standard_normal(total)
    nu = stream_rng(seed, stream, 1).standard_normal(total)
    eta2 = lfilter([1.0], [1.0, -spec.b], nu)
    drive = mu.copy()
    drive[1:] += spec.coupling * eta2[:-1]
    eta1 = lfilter([1.0], [1.0, -spec.a], drive)
    y = lfilter(spec.ma_y, [1.0], eta1)[BURN_IN:]
    x = lfilter(spec.ma_x, [1.0], eta2)[BURN_IN:]
    return x, y


def batched_cross_cov(x, y, lag, n_batches=100):
    """Sample cross-covariance E[x_n y_{n+lag}] with a batched standard error."""
    if lag >= 0:
        a, b = x[: x.size - lag], y[lag:]
    else:
        a, b = x[-lag:], y[: y.size + lag]
    prod = a * b
    batches = np.array_split(prod, n_batches)
    means = np.array([bb.mean() for bb in batches])
    return prod.mean(), means.std(ddof=1) / math.sqrt(n_batches)


class TestSpecs:
    def test_case_coefficients(self):
        # the three built-in coupling filters
        assert MAFilterSpec.from_case("I").f_offsets == (0, 1, 2, 3)
        assert MAFilterSpec.from_case("I").f_coeffs == (0.7, 0.8, 0.7, 0.6)
        assert MAFilterSpec.from_case("II").f_offsets == (0, -1, -2, -3)
        assert MAFilterSpec.from_case("II").f_coeffs == (0.7, 0.8, 0.7, 0.3)
        assert MAFilterSpec.from_case("III").f_offsets == (2, 1, 0, -1, -2)
        assert MAFilterSpec.from_case("III").f_coeffs == (0.4, 0.8, 0.7, 0.8, 0.4)

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            MAFilterSpec.from_case("IV")

    def test_geometric_truncation_tail(self):
        spec = MAFilterSpec.from_case("I")
        assert abs(spec.h[-1]) < 1e-12 * 10  # last kept coefficient is near tol
        assert abs(spec.h0 * spec.a ** spec.h.size) < 1e-12  # first dropped is below
        assert abs(spec.g0 * spec.b ** spec.g.size) < 1e-12

    def test_barnett_coupling_formula(self):
        spec = BarnettModelSpec(transfer_entropy=0.02)
        F, b = 0.02, 0.8
        expected = math.sqrt(
            math.exp(-F) * (math.exp(F) - 1) * (math.exp(F) - b**2)
        )
        assert spec.coupling == pytest.approx(expected, rel=1e-14)
        assert BarnettModelSpec(transfer_entropy=0.0).coupling == 0.0

    def test_barnett_ma_expansion_matches_repeated_convolution(self):
        spec = BarnettModelSpec(ma_order=3)
        direct = np.array([1.0])
        for _ in range(3):
            direct = np.convolve(direct, [1.0, spec.f1])
        assert_allclose(spec.ma_y, direct, rtol=1e-14)
        assert BarnettModelSpec(ma_order=0).ma_y.tolist() == [1.0]

    def test_unstable_parameters_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            BarnettModelSpec(a=1.1)


class TestAnalyticCovariances:
    def test_zero_coupling_zero_cross(self):
        spec = MAFilterSpec(f_offsets=(), f_coeffs=())
        seqs = analytic_covariances(spec, 10)
        assert_allclose(seqs.xy, np.zeros(21))

    def test_rxx_at_zero_geometric_oracle(self):
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 5)
        # sum of h0^2 a^{2k} = h0^2 / (1 - a^2)
        assert xx_at(seqs, 0) == pytest.approx(0.64 / 0.99, rel=1e-10)

    def test_symmetry_structure(self):
        # auto sequences are even in the lag; the cross sequence is not
        # (Case I couples one-sidedly, so its filter is not palindromic)
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 12)
        assert_allclose(seqs.xx, seqs.xx[::-1], atol=1e-14)
        assert_allclose(seqs.yy, seqs.yy[::-1], atol=1e-14)
        assert not np.allclose(seqs.xy, seqs.xy[::-1])

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_ma_sequences_match_coupling_closed_form(self, case):
        # R_xy[m] = sum_k f_k R_xx[m - k] and
        # R_yy[m] = sum_k g_k g_{k+m} + sum_{k,l} f_k f_l R_xx[m + k - l].
        spec = MAFilterSpec.from_case(case)
        f = list(zip(spec.f_offsets, spec.f_coeffs))
        seqs = analytic_covariances(spec, 12)
        wide = analytic_covariances(spec, 12 + 2 * max(abs(k) for k, _ in f))
        g = spec.g
        for m in range(-12, 13):
            xy = sum(c * xx_at(wide, m - k) for k, c in f)
            gg = float(g[: g.size - abs(m)] @ g[abs(m) :])
            yy = gg + sum(ck * cl * xx_at(wide, m + k - l) for k, ck in f for l, cl in f)
            assert xy_at(seqs, m) == pytest.approx(xy, rel=0, abs=1e-14)
            assert yy_at(seqs, m) == pytest.approx(yy, rel=0, abs=1e-14)

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_sample_covariances_match_analytic(self, case):
        n = 1_000_000
        x, y = gen_ma_case(case, n, 101)
        seqs = analytic_covariances(MAFilterSpec.from_case(case), 8)
        for lag in (0, 1, 3):
            est, se = batched_cross_cov(x, x, lag)
            assert abs(est - xx_at(seqs, lag)) < 3 * se
        for lag in (-4, -1, 0, 2, 5):
            est, se = batched_cross_cov(x, y, lag)
            assert abs(est - xy_at(seqs, lag)) < 3 * se
        est, se = batched_cross_cov(y, y, 0)
        assert abs(est - yy_at(seqs, 0)) < 3 * se

    def test_barnett_sample_covariances_match_analytic(self):
        spec = BarnettModelSpec(transfer_entropy=0.2, ma_order=2)
        x, y = gen_barnett(spec, 1_000_000, 55)
        seqs = analytic_covariances(spec, 6)
        for lag in (0, 2):
            est, se = batched_cross_cov(x, x, lag)
            assert abs(est - xx_at(seqs, lag)) < 3 * se
        for lag in (-2, 0, 1, 4):
            est, se = batched_cross_cov(x, y, lag)
            assert abs(est - xy_at(seqs, lag)) < 3 * se
        est, se = batched_cross_cov(y, y, 1)
        assert abs(est - yy_at(seqs, 1)) < 3 * se

    def test_overlap_sums_keep_per_lag_dot_product_bits(self):
        # At lags inside, beside and beyond every response pair's overlap, and
        # for the empty response of an MA case's x to nu.
        specs = [MAFilterSpec.from_case(case) for case in MA_CASES] + [
            BarnettModelSpec(transfer_entropy=0.02, ma_order=r) for r in (0, 1, 5, 10)
        ]
        for spec in specs:
            for c in spec.noise_responses():
                for d in spec.noise_responses():
                    for (a, s), (b, t) in zip(c, d):
                        for max_lag in (10, 40, 400):
                            lags = np.arange(-max_lag, max_lag + 1) + s - t
                            got, ref = _overlap_sum(a, b, lags), overlap_sum(a, b, lags)
                            assert got.tobytes() == ref.tobytes()

    def test_toeplitz_windows_are_psd(self):
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 70)
        for w in (8, 32, 64):
            xs = [("x", i) for i in range(w)]
            ys = [("y", i) for i in range(w)]
            R = composite_from_sequences(seqs, xs, ys, [])
            assert np.linalg.eigvalsh(R.entries).min() > -1e-10

    def test_lag_range_errors(self):
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 4)
        with pytest.raises(ValueError, match="lag"):
            xx_at(seqs, 5)


class TestGenerators:
    def test_gen_ma_case_reproducible(self):
        x1, y1 = gen_ma_case("I", 5000, 7)
        x2, y2 = gen_ma_case("I", 5000, 7)
        assert_allclose(x1, x2)
        assert_allclose(y1, y2)

    def test_gen_ma_case_seeds_differ(self):
        x1, _ = gen_ma_case("I", 5000, 7)
        x2, _ = gen_ma_case("I", 5000, 8)
        assert not np.allclose(x1, x2)

    def test_length_too_short(self):
        for length in (0, -5):
            with pytest.raises(ValueError, match=f"length must be >= 1, got {length}"):
                gen_ma_case("I", length, 1)

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_short_series_is_prefix(self, case):
        # The AR recursions truncate nothing, so a short series loses nothing.
        x, y = gen_ma_case(case, 5000, 7)
        for length in (1, 100, 154):
            xs, ys = gen_ma_case(case, length, 7)
            assert np.array_equal(xs, x[:length]) and np.array_equal(ys, y[:length])

    def test_gen_barnett_reproducible(self):
        spec = BarnettModelSpec()
        x1, y1 = gen_barnett(spec, 2000, 3)
        x2, y2 = gen_barnett(spec, 2000, 3)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    @pytest.mark.parametrize("order", [0, 1, 10])
    def test_gen_barnett_matches_lfilter_reference(self, order):
        spec = BarnettModelSpec(transfer_entropy=0.3, ma_order=order)
        # gen_barnett draws from stream 0; the studies' cores also from others.
        for stream, (x, y) in [(0, gen_barnett(spec, 5000, 4)),
                               (2, barnett_on_stream(spec, 5000, 4, 2))]:
            ref_x, ref_y = lfilter_gen_barnett(spec, 5000, 4, stream)
            assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)

    @pytest.mark.parametrize("F", [0.0, 0.02])
    @pytest.mark.parametrize("order", [0, 1, 10])
    @pytest.mark.parametrize("block", [1, 7, 300, 1200, 5000])
    def test_blocks_concatenate_to_gen_barnett(self, block, order, F):
        # 300 divides the length, 7 does not; 1200 is one block, 5000 overshoots.
        spec = BarnettModelSpec(transfer_entropy=F, ma_order=order)
        x, y = gen_barnett(spec, 1200, 4)
        r = spec.ma_order
        cores = _barnett_cores(spec, 1200, block, 4, 0, r)
        blocks = [_ma_step(spec, c, r) for c in cores]
        sizes = [bx.size for bx, _ in blocks]
        assert sizes == [min(block, 1200 - s) for s in range(0, 1200, block)]
        assert all(by.size == n for (_, by), n in zip(blocks, sizes))
        assert np.array_equal(np.concatenate([bx for bx, _ in blocks]), x)
        assert np.array_equal(np.concatenate([by for _, by in blocks]), y)

    def test_gen_barnett_rejects_empty_length(self):
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            gen_barnett(BarnettModelSpec(), 0, 1)

    def test_decoupled_channels_uncorrelated(self):
        spec = BarnettModelSpec(transfer_entropy=0.0, ma_order=1)
        x, y = gen_barnett(spec, 400_000, 21)
        for lag in (-1, 0, 1, 3):
            est, se = batched_cross_cov(x, y, lag)
            assert abs(est) < 4 * se

    def test_stationary_after_burn_in(self):
        x, y = gen_barnett(BarnettModelSpec(ma_order=5), 100_000, 13)
        xm, ym = gen_ma_case("III", 100_000, 13)
        for seq in (x, y, xm, ym):
            half = seq.size // 2
            assert np.var(seq[:half]) == pytest.approx(np.var(seq[half:]), rel=0.05)

    def test_case_one_future_coupling_absent(self):
        # Case I couples y_n to x_{n..n-3} only: corr(x_{n+1}, y_n | ...)
        # shows up in the covariance sequence as xy at negative lags
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 6)
        # xy[m] = E[x_n y_{n+m}]: for m = -1 (y before x) only AR memory of x
        assert abs(xy_at(seqs, -4)) < 1e-3  # fast geometric decay
        assert xy_at(seqs, 0) > 0.4


class TestPrivateLfilter:
    """simulate's ar1 is scipy's C routine of lfilter, loaded without scipy.signal."""

    @pytest.mark.parametrize("with_zi", [False, True], ids=["no-zi", "zi"])
    @pytest.mark.parametrize("gain", [1.0, 0.8], ids=["unit", "gain"])
    @pytest.mark.parametrize("coef", [0.7, 1.0, 1.3, -0.5])
    def test_matches_scipy_lfilter(self, coef, gain, with_zi):
        # The private route, not a silent fallback to the public function.
        bound = inspect.getclosurevars(simulate.ar1).nonlocals["linear_filter"]
        assert bound.__module__ == "cohercause._sigtools"
        x = np.random.default_rng(5).standard_normal(200_003)
        b, a = [gain], [1.0, -coef]
        if not with_zi:
            # A zero state is lfilter's own start, as gen_ma_case uses it.
            out, _ = simulate.ar1(gain, coef, x, np.zeros(1))
            assert np.array_equal(out, lfilter(b, a, x))
            return
        zi = np.array([0.37])
        out, zf = simulate.ar1(gain, coef, x, zi)
        ref_out, ref_zf = lfilter(b, a, x, zi=zi)
        assert np.array_equal(out, ref_out) and np.array_equal(zf, ref_zf)

    def test_binding_runs_the_whole_import_protocol(self, monkeypatch):
        # A multi-phase build of the extension initialises in exec_module,
        # not in module_from_spec, so the binding must call both.
        executed = []
        real = simulate.spec_from_file_location

        def spec_from_file_location(name, path):
            spec = real(name, path)
            run = spec.loader.exec_module
            spec.loader.exec_module = lambda module: executed.append(module) or run(module)
            return spec

        monkeypatch.setattr(simulate, "spec_from_file_location", spec_from_file_location)
        bound = inspect.getclosurevars(simulate._bind_ar1()).nonlocals["linear_filter"]
        assert bound is not lfilter and len(executed) == 1

    def test_import_leaves_scipy_signal_unloaded(self):
        # A later importer still gets scipy.signal and its public lfilter.
        code = (
            "import sys, cohercause.cli; print('scipy.signal' in sys.modules); "
            "import scipy.signal; print(scipy.signal.lfilter.__module__)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\nscipy.signal._signaltools\n"

    def test_commands_leave_heavy_modules_unloaded(self, tmp_path):
        # scipy.linalg and scipy.special each load scipy._lib._array_api, which
        # clones numpy's namespace and so loads numpy.f2py and numpy.testing.
        # The Wishart factor is numpy's, so no run loads scipy's LAPACK either.
        # numpy.random loads with the package, so no run pays for it later.
        code = f"""
import sys
from cohercause import cli
heavy = ("scipy.signal", "scipy.linalg", "scipy.special", "scipy._lib._array_api",
         "numpy.f2py", "numpy.testing", "cohercause._flapack")
def loaded():
    return [m for m in heavy if m in sys.modules]
print(loaded(), "numpy.random" in sys.modules)
pair, out = {str(tmp_path / "pair.csv")!r}, {str(tmp_path)!r}
for argv in (
    ["simulate", "--case", "barnett", "--length", "3000", "--output", pair],
    ["test", "--input", pair],
    ["map", "--input", pair, "--s-range", "0..2", "--t-range", "0..2",
     "--output", out + "/data.csv"],
    ["map", "--case", "I", "--output", out + "/case.csv"],
    ["power", "--fast", "--orders", "0..1", "--output", out + "/power.csv"],
    ["calibrate", "--fast", "--window-mode", "independent-realizations"],
):
    assert cli.main(argv) == 0, argv
print(loaded())
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == "[] True"
        assert done.stdout.splitlines()[-1] == "[]"

    def test_failed_load_falls_back_to_public_lfilter(self, monkeypatch, tmp_path):
        def outputs():
            pairs = [gen_barnett(BarnettModelSpec(ma_order=r), 5000, 4) for r in (0, 10)]
            # Core blocks of 700 carry both AR(1) states across seven block boundaries.
            cores = list(_barnett_cores(BarnettModelSpec(), 5000, 700, 4, 2, 0))
            pairs.append(tuple(np.concatenate(core) for core in zip(*cores)))
            return pairs + [gen_ma_case(case, 5000, 4) for case in ("I", "II", "III")]

        private = outputs()
        # The extension's file is missing: the public lfilter serves.
        real = simulate.spec_from_file_location
        monkeypatch.setattr(simulate, "spec_from_file_location",
                            lambda name, path: real(name, str(tmp_path / "_sigtools.so")))
        fallback = simulate._bind_ar1()
        assert inspect.getclosurevars(fallback).nonlocals["linear_filter"] is lfilter
        monkeypatch.setattr(simulate, "ar1", fallback)
        for (x, y), (px, py) in zip(outputs(), private):
            assert np.array_equal(x, px) and np.array_equal(y, py)


def pairwise_samples(s, t, conditioning, depth):
    """Reference: the (x, y, z) sample lists of the pairwise statistic."""
    if conditioning == "past-of-x":
        z = [("x", j) for j in range(t, t - depth - 1, -1) if j != s][:depth]
    else:
        z = [("y", t - j) for j in range(1, depth + 1)]
    return [("x", s)], [("y", t)], z


def per_entry_composite(seqs, x_samples, y_samples, z_samples):
    """Reference: the per-entry loop composite_from_sequences ran before it
    indexed the stacked sequences at once."""
    samples = list(x_samples) + list(y_samples) + list(z_samples)
    dims = BlockDims(p=len(x_samples), q=len(y_samples), r=len(z_samples))
    n = dims.total
    m = np.zeros((n, n))
    for i, (ca, ta) in enumerate(samples):
        for j in range(i, n):
            cb, tb = samples[j]
            if ca == "x" and cb == "x":
                v = xx_at(seqs, tb - ta)
            elif ca == "y" and cb == "y":
                v = yy_at(seqs, tb - ta)
            elif ca == "x" and cb == "y":
                v = xy_at(seqs, tb - ta)
            else:
                v = xy_at(seqs, ta - tb)
            m[i, j] = v
            m[j, i] = v
    return CompositeCovariance.from_matrix(m, dims)


# Sample selections mixing channels and time orders within each block.
MIXED_SAMPLES = [
    ([("x", 0)], [("y", 0)], []),
    ([("x", 2), ("x", 0)], [("y", 1)], [("x", 3), ("y", 0)]),
    ([("y", -1), ("x", 1)], [("x", -2), ("y", 1)], [("y", -2), ("x", 0), ("y", 0)]),
]


class TestCompositeFromSequences:
    @pytest.mark.parametrize("case", ["I", "II", "III", "barnett"])
    def test_matches_per_entry_loop(self, case):
        spec = (
            BarnettModelSpec(transfer_entropy=0.02, ma_order=2)
            if case == "barnett"
            else MAFilterSpec.from_case(case)
        )
        seqs = analytic_covariances(spec, 30)
        selections = MIXED_SAMPLES + [
            pairwise_samples(s, 0, conditioning, 20)
            for conditioning in ("past-of-x", "past-of-y")
            for s in (-9, 0, 9)
        ]
        for samples in selections:
            R = composite_from_sequences(seqs, *samples)
            assert np.array_equal(R.entries, per_entry_composite(seqs, *samples).entries)

    def test_asymmetric_xx_reads_upper_triangle(self):
        # xx[m] != xx[-m]: the entry (i, j), i < j, reads lag t_j - t_i
        seqs = CovarianceSequences(
            max_lag=3,
            xx=np.array([0.05, 0.3, 0.6, 4.0, 0.5, 0.2, 0.1]),
            yy=np.array([0.1, 0.2, 0.4, 3.0, 0.4, 0.2, 0.1]),
            xy=np.array([0.02, -0.1, 0.3, 0.5, 0.2, 0.1, -0.05]),
        )
        for samples in MIXED_SAMPLES:
            R = composite_from_sequences(seqs, *samples)
            assert np.array_equal(R.entries, per_entry_composite(seqs, *samples).entries)
        R = composite_from_sequences(seqs, [("x", 2), ("x", 0)], [("y", 1)], [])
        assert R.entries[0, 1] == R.entries[1, 0] == 0.3

    def test_lag_range_error(self):
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 4)
        with pytest.raises(ValueError, match="lag 5 exceeds the tabulated range 4"):
            composite_from_sequences(seqs, [("x", 0)], [("y", 5)], [])


class TestModelComposite:
    @pytest.mark.parametrize("case", ["I", "II", "III", "barnett"])
    def test_sample_selection_matches_reference(self, case):
        spec = (
            BarnettModelSpec(transfer_entropy=0.02, ma_order=2)
            if case == "barnett"
            else MAFilterSpec.from_case(case)
        )
        seqs = analytic_covariances(spec, 50)
        for conditioning in ("past-of-x", "past-of-y"):
            for s, t in ((0, 0), (-7, 0), (5, 0), (2, 3), (9, -4)):
                for depth in (1, 6, 20):
                    R = model_composite_covariance(seqs, s, t, conditioning, T_cond=depth)
                    ref = composite_from_sequences(
                        seqs, *pairwise_samples(s, t, conditioning, depth)
                    )
                    assert np.array_equal(R.entries, ref.entries)
        for T in (1, 4, 10):
            ref = composite_from_sequences(
                seqs,
                [("x", -i) for i in range(1, T + 1)],
                [("y", 0)],
                [("y", -i) for i in range(1, T + 1)],
            )
            assert np.array_equal(lag_window_covariance(spec, T).entries, ref.entries)

    def test_zero_coupling_gives_zero_coherence(self):
        spec = MAFilterSpec(f_offsets=(), f_coeffs=())
        for s, t in ((0, 0), (3, 1), (-2, 4)):
            R = model_composite_covariance(spec, s, t, "past-of-x", T_cond=10)
            assert partial_coherence(R).rho2 < 1e-12

    def test_case_one_structural_zeros(self):
        spec = MAFilterSpec.from_case("I")
        seqs = analytic_covariances(spec, 40)
        for offset in (1, 2, 5, -4, -6):
            R = model_composite_covariance(seqs, offset, 0, "past-of-x", T_cond=20)
            assert partial_coherence(R).rho2 < 1e-10
        for offset in (0, -1, -2, -3):
            R = model_composite_covariance(seqs, offset, 0, "past-of-x", T_cond=20)
            assert partial_coherence(R).rho2 > 1e-3

    def test_case_two_structural_zeros_strictly_past(self):
        # zero for s < t; the present sample (s = t) carries coupling
        # through f_0 once x_t is excluded from the conditioning
        spec = MAFilterSpec.from_case("II")
        seqs = analytic_covariances(spec, 40)
        for offset in (-1, -2, -5, -10):
            R = model_composite_covariance(seqs, offset, 0, "past-of-x", T_cond=20)
            assert partial_coherence(R).rho2 < 1e-10
        R0 = model_composite_covariance(seqs, 0, 0, "past-of-x", T_cond=20)
        assert partial_coherence(R0).rho2 > 0.1

    def test_conditioning_never_contains_x_sample(self):
        spec = MAFilterSpec.from_case("I")
        R = model_composite_covariance(spec, 0, 0, "past-of-x", T_cond=15)
        assert R.dims == BlockDims(1, 1, 15)
        # eigenvalues stay clear of zero because x_s is not duplicated in z
        assert np.linalg.eigvalsh(R.entries).min() > 1e-8

    def test_lag_range_exceeded(self):
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 10)
        with pytest.raises(ValueError, match="lag range"):
            model_composite_covariance(seqs, 0, 0, "past-of-x", T_cond=20)

    def test_population_value_approaches_transfer_entropy_limit(self):
        target = 1.0 - math.exp(-0.02)
        spec = BarnettModelSpec(transfer_entropy=0.02, ma_order=1)
        rho2 = partial_coherence(lag_window_covariance(spec, 20)).rho2
        assert rho2 == pytest.approx(target, rel=0.01)


class TestSequenceCsv:
    def test_round_trip(self, tmp_path):
        x, y = gen_barnett(BarnettModelSpec(), 500, 1)
        path = tmp_path / "pair.csv"
        write_sequence_csv(str(path), x, y)
        data = read_sequence_csv(str(path))
        assert_allclose(data["x"], x)
        assert_allclose(data["y"], y)
        assert_allclose(data["t"], np.arange(500))

    def test_bytes_match_csv_writer_loop(self, tmp_path):
        x, y = gen_barnett(BarnettModelSpec(), 500, 1)
        x = np.r_[x, -0.0, 5e-324, -1e-300, 1.7976931348623157e308, -2.5e17, 0.1]
        y = np.r_[y, 3.0, -1e300, 1e-17, -5e-324, 123.456, -0.0]
        write_sequence_csv(str(tmp_path / "fast.csv"), x, y)
        csv_writer_sequence(str(tmp_path / "loop.csv"), x, y)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize(
        "length",
        [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3],
        ids=["0", "1", "B-1", "B", "B+1", "2B+3"],
    )
    def test_bytes_match_csv_writer_loop_across_blocks(self, tmp_path, length):
        x, y = gen_barnett(BarnettModelSpec(), 2 * _CSV_BLOCK_ROWS + 3, 5)
        x, y = x[:length], y[:length]
        write_sequence_csv(str(tmp_path / "fast.csv"), x, y)
        csv_writer_sequence(str(tmp_path / "loop.csv"), x, y)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_lists_written_as_floats(self, tmp_path):
        path = tmp_path / "pair.csv"
        write_sequence_csv(str(path), [1, 0.5], [-2, 3.25])
        assert path.read_text() == "t,x,y\n0,1.0,-2.0\n1,0.5,3.25\n"

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pair.csv"
        path.write_bytes(b"t,x,y\n0,1.0,2.0\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_sequence_csv(str(path), np.zeros(3), np.ones(3))
        assert path.read_bytes() == b"t,x,y\n0,1.0,2.0\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_write_failing_mid_stream_keeps_existing_file(self, tmp_path, monkeypatch):
        # The header and the first block of rows reach the temporary file; the
        # write of the second block fails.
        path = tmp_path / "pair.csv"
        path.write_bytes(b"t,x,y\n0,1.0,2.0\n")
        fdopen = os.fdopen
        written = []

        def failing_fdopen(*args, **kwargs):
            fh = fdopen(*args, **kwargs)
            write = fh.write

            def failing_write(text):
                if len(written) == 2:
                    assert len(list(tmp_path.glob("*.tmp"))) == 1
                    raise OSError("disk full")
                written.append(text)
                return write(text)

            fh.write = failing_write
            return fh

        monkeypatch.setattr(os, "fdopen", failing_fdopen)
        n = 2 * _CSV_BLOCK_ROWS + 3
        with pytest.raises(OSError, match="disk full"):
            write_sequence_csv(str(path), np.zeros(n), np.ones(n))
        assert written[0] == "t,x,y\n" and written[1].count("\n") == _CSV_BLOCK_ROWS
        assert path.read_bytes() == b"t,x,y\n0,1.0,2.0\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failing_pieces_keep_existing_file(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_bytes(b"t,x,y\n0,1.0,2.0\n")

        def pieces():
            yield "t,x,y\n"
            raise ValueError("bad row")

        with pytest.raises(ValueError, match="bad row"):
            atomic_write(str(path), pieces())
        assert path.read_bytes() == b"t,x,y\n0,1.0,2.0\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_write_memory_does_not_grow_with_length(self, tmp_path):
        # The rows are formatted and written one block of B rows at a time, so
        # the traced peak is one block's temporaries (~0.7 MB: two lists of
        # floats, the row strings, the joined text and its encoded bytes) at any
        # length. Between 2B and 16B rows a row grows by at most one byte, the
        # fifth digit of t, and the block texts differ by the spread of their
        # reprs' lengths; allowing one byte per row for each of the two reprs,
        # three copies of a block's text (row strings, joined text, encoded
        # bytes) grow by at most 3 * B * 3 bytes.
        short, long = 2 * _CSV_BLOCK_ROWS, 16 * _CSV_BLOCK_ROWS
        x, y = gen_barnett(BarnettModelSpec(), long, 1)
        slack = 3 * _CSV_BLOCK_ROWS * 3
        peaks = {}
        for n in (short, long):
            tracemalloc.start()
            try:
                write_sequence_csv(str(tmp_path / "pair.csv"), x[:n], y[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[long] <= peaks[short] + slack
        assert peaks[long] < 2 * 2**20

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "pair.csv"
        write_sequence_csv(str(path), np.zeros(3), np.zeros(3))
        raw = path.read_bytes()
        assert b"\r" not in raw


# Each model-spec, covariance and writer check raises with its message.
@pytest.mark.parametrize(
    "error, call, message",
    [
        pytest.param(ValueError, lambda: MAFilterSpec((1, 2), (0.5,)),
                     "f_offsets and f_coeffs must have equal length", id="ma-lengths"),
        pytest.param(ValueError, lambda: MAFilterSpec((1, 1), (0.5, 0.2)),
                     "f_offsets must be distinct", id="ma-duplicate-offsets"),
        pytest.param(ValueError, lambda: MAFilterSpec((1,), (0.5,), a=1.0),
                     "filter ratios must satisfy |a| < 1 and |b| < 1", id="ma-unstable"),
        pytest.param(ValueError, lambda: BarnettModelSpec(ma_order=-1),
                     "ma_order must be >= 0, got -1", id="barnett-ma-order"),
        pytest.param(ValueError, lambda: BarnettModelSpec(transfer_entropy=-0.1),
                     "transfer entropy must be >= 0", id="barnett-negative-F"),
        pytest.param(ValueError, lambda: analytic_covariances(BarnettModelSpec(), -1),
                     "max_lag must be >= 0, got -1", id="max-lag"),
        pytest.param(TypeError, lambda: analytic_covariances(object(), 3),
                     "unsupported model spec object", id="unsupported-spec"),
        pytest.param(ValueError, lambda: lag_window_covariance(BarnettModelSpec(), 0),
                     "T must be >= 1, got 0", id="window-T"),
        pytest.param(TypeError, lambda: lag_window_covariance(
            analytic_covariances(MAFilterSpec.from_case("I"), 3), 3),
                     "unsupported model spec CovarianceSequences", id="window-sequences"),
        pytest.param(ValueError, lambda: write_sequence_csv("unused.csv", np.zeros(3), np.zeros(4)),
                     "x and y must be one-dimensional with equal length", id="csv-shapes"),
        pytest.param(ValueError, lambda: stream_rng(1, -1),
                     "stream key indices must be non-negative", id="negative-stream-key"),
    ],
)
def test_input_check_messages(error, call, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
