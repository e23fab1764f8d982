import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cohercause import (
    BarnettModelSpec,
    BlockDims,
    CovarianceError,
    DataPanel,
    LagSpec,
    Role,
    gen_barnett,
    lag_embed,
    likelihood_ratio,
    partial_coherence_one_onto_two,
    read_sequence_csv,
    sample_covariance,
    write_sequence_csv,
)
from cohercause import inference
from cohercause import test_causal_influence as causal_influence_test

from helpers import DEGENERATE_BLOCKS, degenerate_pair, random_nonsingular


def barnett_panel(seed=1, length=2000, T=10, F=0.02):
    x, y = gen_barnett(BarnettModelSpec(transfer_entropy=F, ma_order=1), length, seed)
    return lag_embed(x, y, LagSpec.influence_test(T=T))


def row_loop_embed(x_seq, y_seq, spec):
    """Reference: the per-row loop lag_embed ran before its rows were views."""
    roles = (spec.x_role, spec.y_role, spec.z_role)
    all_offsets = [off for role in roles for off in role.offsets]
    off_min, off_max = min(all_offsets), max(all_offsets)
    rows = []
    t_first = max(0, -off_min)
    t_last = x_seq.size - 1 - max(0, off_max)
    n_cols = (t_last - t_first) // spec.stride + 1
    for role in roles:
        seq = x_seq if role.channel == "x" else y_seq
        for off in role.offsets:
            start = t_first + off
            stop = start + (n_cols - 1) * spec.stride + 1
            rows.append(seq[start:stop:spec.stride])
    return np.array(rows)


# (x, y, z) roles: the test embedding, a map embedding with a future x
# sample, offsets all negative (t itself in no role) and all positive.
REFERENCE_ROLES = {
    "influence": (Role("x", (-1, -2, -3, -4)), Role("y", (0,)), Role("y", (-1, -2, -3, -4))),
    "pairwise-future": (Role("x", (3,)), Role("y", (0,)), Role("x", (0, -1, -2))),
    "all-negative": (Role("x", (-2, -5)), Role("y", (-1,)), Role("y", (-3, -4))),
    "all-positive": (Role("x", (1, 4)), Role("y", (2,)), Role("x", (3,))),
}


class TestLagSpec:
    def test_duplicate_sample_across_roles_rejected(self):
        with pytest.raises(ValueError, match="more than one role"):
            LagSpec(
                x_role=Role("x", (-1, -2)),
                y_role=Role("y", (0,)),
                z_role=Role("x", (-2, -3)),
            )

    def test_duplicate_offset_within_role_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Role("x", (-1, -1))

    def test_influence_test_dims(self):
        spec = LagSpec.influence_test(T=10)
        assert spec.dims == BlockDims(10, 1, 10)
        assert spec.x_role.offsets == tuple(range(-1, -11, -1))
        assert spec.z_role.channel == "y"

    def test_pairwise_excludes_x_sample_from_conditioning(self):
        spec = LagSpec.pairwise(offset=0, T_cond=5, conditioning="past-of-x")
        assert spec.dims == BlockDims(1, 1, 5)
        assert 0 not in spec.z_role.offsets
        assert spec.z_role.offsets == (-1, -2, -3, -4, -5)
        # future x sample: nothing to exclude
        spec2 = LagSpec.pairwise(offset=3, T_cond=5, conditioning="past-of-x")
        assert spec2.z_role.offsets == (0, -1, -2, -3, -4)

    @pytest.mark.parametrize("conditioning", ["past-of-x", "past-of-y"])
    def test_pairwise_needs_conditioning_depth(self, conditioning):
        with pytest.raises(ValueError, match="T_cond must be >= 1, got 0"):
            LagSpec.pairwise(2, T_cond=0, conditioning=conditioning)

    def test_pairwise_past_of_y(self):
        spec = LagSpec.pairwise(offset=2, T_cond=4, conditioning="past-of-y")
        assert spec.z_role == Role("y", (-1, -2, -3, -4))

    def test_rows_in_block_order(self):
        assert LagSpec.influence_test(T=2).rows == (
            ("x", -1), ("x", -2), ("y", 0), ("y", -1), ("y", -2)
        )
        spec = LagSpec.pairwise(offset=-1, T_cond=3, conditioning="past-of-x")
        assert spec.rows == (("x", -1), ("y", 0), ("x", 0), ("x", -2), ("x", -3))


class TestLagEmbed:
    def test_hand_construction(self):
        # T = 1 on three-sample sequences gives exactly two columns
        spec = LagSpec(
            x_role=Role("x", (-1,)),
            y_role=Role("y", (0,)),
            z_role=Role("y", (-1,)),
        )
        panel = lag_embed([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], spec)
        assert_allclose(panel.data, [[1.0, 2.0], [5.0, 6.0], [4.0, 5.0]])

    def test_influence_test_shape(self):
        panel = barnett_panel(length=1500, T=10)
        assert panel.dims == BlockDims(10, 1, 10)
        assert panel.M == 1500 - 10

    def test_stride(self):
        spec = LagSpec(
            x_role=Role("x", (-1,)),
            y_role=Role("y", (0,)),
            z_role=Role("y", (-1,)),
            stride=2,
        )
        panel = lag_embed(np.arange(1.0, 8.0), np.arange(10.0, 17.0), spec)
        # columns at t = 1, 3, 5
        assert_allclose(panel.data[0], [1.0, 3.0, 5.0])
        assert_allclose(panel.data[1], [11.0, 13.0, 15.0])

    def test_embedding_matches_column_construction(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        spec = LagSpec.influence_test(T=3)
        panel = lag_embed(x, y, spec)
        t0 = 3
        col0 = np.concatenate([[x[t0 - 1], x[t0 - 2], x[t0 - 3]], [y[t0]],
                               [y[t0 - 1], y[t0 - 2], y[t0 - 3]]])
        assert_allclose(np.asarray(panel.data)[:, 0], col0)

    @pytest.mark.parametrize("roles", REFERENCE_ROLES.values(), ids=REFERENCE_ROLES.keys())
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("length", [23, 24, 25])
    def test_consecutive_matches_row_loop(self, roles, stride, length):
        rng = np.random.default_rng(length)
        x, y = rng.standard_normal((2, length))
        spec = LagSpec(*roles, stride=stride)
        panel = lag_embed(x, y, spec)
        assert np.array_equal(np.asarray(panel.data), row_loop_embed(x, y, spec))
        # Each row is a read-only view of a sequence, which itself stays writable.
        for row in panel.data:
            assert not row.flags.writeable
            assert np.shares_memory(row, x) or np.shares_memory(row, y)
        assert x.flags.writeable and y.flags.writeable

    def test_panel_reads_its_rows_in_place(self):
        x, y = np.arange(10.0), np.arange(10.0, 20.0)
        panel = lag_embed(x, y, LagSpec.influence_test(T=2))
        assert panel.data[0][0] == x[1]
        x[1] = -1.0
        assert panel.data[0][0] == -1.0
        matrix = np.arange(6.0).reshape(3, 2)
        from_matrix = DataPanel(matrix, BlockDims(1, 1, 1))
        assert from_matrix.M == 2 and matrix.flags.writeable
        assert all(np.shares_memory(row, matrix) for row in from_matrix.data)

    @pytest.mark.parametrize("roles", REFERENCE_ROLES.values(), ids=REFERENCE_ROLES.keys())
    def test_shortest_feasible_length(self, roles):
        # one column needs exactly the span [min(0, off), max(0, off)]
        offsets = [off for role in roles for off in role.offsets]
        span = max(0, *offsets) - min(0, *offsets) + 1
        x, y = np.arange(2.0 * span).reshape(2, span)
        spec = LagSpec(*roles)
        assert lag_embed(x, y, spec).M == 1
        with pytest.raises(ValueError, match="insufficient data"):
            lag_embed(x[:-1], y[:-1], spec)

    def test_mode_and_shape_must_agree(self):
        spec = LagSpec.influence_test(T=2)
        with pytest.raises(ValueError, match="one-dimensional"):
            lag_embed(np.zeros((3, 50)), np.zeros((3, 50)), spec)

    def test_insufficient_data(self):
        spec = LagSpec.influence_test(T=10)
        with pytest.raises(ValueError, match="insufficient on|insufficient data"):
            lag_embed(np.zeros(5), np.zeros(5), spec)


class TestSampleCovariance:
    def test_single_column_outer_product(self):
        spec = LagSpec(Role("x", (0,)), Role("y", (0,)), Role("y", (-1,)))
        panel = lag_embed([3.0, 2.0], [1.0, 4.0], spec)
        assert panel.M == 1
        d = np.array([2.0, 4.0, 1.0])
        S = sample_covariance(panel, center=False)
        assert_allclose(S.entries, np.outer(d, d))

    def test_orthogonal_rows_give_diagonal(self):
        data = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                         [1.0, 1.0, -1.0, -1.0]])
        panel = DataPanel(data=data, dims=BlockDims(1, 1, 1))
        S = sample_covariance(panel, center=False)
        assert_allclose(S.entries, np.diag(np.diag(S.entries)))

    def test_centering_removes_row_means(self):
        panel = barnett_panel(length=500, T=2)
        S = sample_covariance(panel, center=True)
        D = np.asarray(panel.data)
        D = D - D.mean(axis=1, keepdims=True)
        assert_allclose(S.entries, D @ D.T, rtol=1e-12)

    def test_barnett_panel_covariance_is_psd(self):
        panel = barnett_panel(length=1000, T=10)
        assert panel.M == 990
        S = sample_covariance(panel)
        assert np.linalg.eigvalsh(S.entries).min() > -1e-8

    def test_gram_of_row_views_holds_one_chunk(self):
        # The Gram gathers each column chunk of the views into one reused
        # buffer, for the centring sums and again for the Gram. Its traced peak
        # is then that one chunk plus the n x n Grams and length-n sums and
        # scales, even where a row is longer than a chunk, so that one
        # row-long temporary would show.
        rows = LagSpec.influence_test(T=10).rows
        n = len(rows)
        chunk = inference._GRAM_CHUNK_BYTES // (n * 8)
        M = n * chunk + chunk // 2
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, M + 10))
        views = inference._row_views(x, y, rows)
        assert len(views[0]) == M
        chunk_bytes = n * chunk * 8
        assert M * 8 > chunk_bytes
        # Gram and product (2 n^2 doubles), 6 scale vectors, each array's and
        # view's object header (under 1 KiB per row), and the ufunc buffer of
        # 8192 doubles that numpy fills to broadcast a scale over the last,
        # shorter chunk.
        slack = 2 * n * n * 8 + 6 * n * 8 + n * 1024 + 8192 * 8
        tracemalloc.start()
        try:
            inference._scaled_gram(views, center=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunk_bytes <= peak < chunk_bytes + slack

    def test_embedded_test_copies_no_panel(self):
        # The library route holds D as views of the sequences: testing the panel
        # allocates the Gram's one chunk buffer and the null draws, far below
        # one n x M copy of the panel.
        spec = LagSpec.influence_test(T=10)
        M = 100_000
        x, y = np.random.default_rng(5).standard_normal((2, M + 10))
        causal_influence_test(lag_embed(x[:100], y[:100], spec), n_mc=20_000)  # warm-up
        panel_bytes = spec.dims.total * M * 8
        tracemalloc.start()
        try:
            causal_influence_test(lag_embed(x, y, spec), n_mc=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < panel_bytes // 4


class TestLikelihoodRatio:
    def test_orthogonal_blocks_give_zero(self):
        # x and y rows exactly orthogonal, z orthogonal to both
        data = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [1.0, -1.0, 1.0, -1.0],
                [1.0, 1.0, -1.0, -1.0],
            ]
        )
        panel = DataPanel(data=data, dims=BlockDims(1, 1, 1))
        S = sample_covariance(panel, center=False)
        assert likelihood_ratio(S) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_matches_sample_partial_correlation(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((3, 200))
        panel = DataPanel(data=data, dims=BlockDims(1, 1, 1))
        S = sample_covariance(panel, center=False).entries
        # scalar sample partial-correlation oracle from raw moments
        rxy = S[0, 1] / math.sqrt(S[0, 0] * S[1, 1])
        rxz = S[0, 2] / math.sqrt(S[0, 0] * S[2, 2])
        ryz = S[1, 2] / math.sqrt(S[1, 1] * S[2, 2])
        oracle = ((rxy - rxz * ryz) / math.sqrt((1 - rxz**2) * (1 - ryz**2))) ** 2
        stat = likelihood_ratio(sample_covariance(panel, center=False))
        assert stat == pytest.approx(oracle, rel=1e-10)

    def test_rank_deficient_panel_raises(self):
        spec = LagSpec.influence_test(T=3)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 9))
        panel = lag_embed(x, y, spec)  # M = 6 < p+q+r = 7
        with pytest.raises(CovarianceError):
            likelihood_ratio(sample_covariance(panel))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_block_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        panel = barnett_panel(seed=seed % 1000, length=800, T=3)
        stat = likelihood_ratio(sample_covariance(panel))
        tx = random_nonsingular(rng, 3)
        ty = random_nonsingular(rng, 1)
        tz = random_nonsingular(rng, 3)
        import scipy.linalg as la

        T = la.block_diag(tx, ty, tz)
        transformed = DataPanel(data=T @ panel.data, dims=panel.dims)
        stat2 = likelihood_ratio(sample_covariance(transformed))
        assert stat2 == pytest.approx(stat, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.floats(-150, 150), min_size=7, max_size=7),
    )
    def test_extreme_row_scale_invariance(self, seed, exponents):
        panel = barnett_panel(seed=seed % 1000, length=800, T=3)
        scales = 10.0 ** np.array(exponents)[:, None]
        scaled = DataPanel(data=scales * panel.data, dims=panel.dims)
        assert likelihood_ratio(sample_covariance(scaled)) == pytest.approx(
            likelihood_ratio(sample_covariance(panel)), abs=2e-14
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.floats(-300, 300), min_size=7, max_size=7),
    )
    def test_causal_influence_any_row_scale(self, seed, exponents):
        # Scales whose data-scale Gram underflows or overflows.
        panel = barnett_panel(seed=seed % 1000, length=800, T=3)
        scales = 10.0 ** np.array(exponents)[:, None]
        scaled = DataPanel(data=scales * panel.data, dims=panel.dims)
        assert causal_influence_test(scaled, method="bartlett").statistic == pytest.approx(
            causal_influence_test(panel, method="bartlett").statistic, abs=2e-14
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-310, 1e307])
    def test_causal_influence_beyond_normal_range(self, scale):
        # Subnormal x rows (1 / s would overflow) and x rows near the float
        # maximum (their sum would overflow). At 1e-310 the subnormal x
        # samples keep about 44 significant bits.
        panel = barnett_panel(length=5000)
        data = np.array(panel.data)
        data[: panel.dims.p] *= scale
        scaled = DataPanel(data=data, dims=panel.dims)
        assert causal_influence_test(scaled, method="bartlett").statistic == pytest.approx(
            causal_influence_test(panel, method="bartlett").statistic, abs=2e-14
        )

    def test_column_permutation_invariance(self):
        panel = barnett_panel(length=600, T=3)
        rng = np.random.default_rng(4)
        perm = rng.permutation(panel.M)
        permuted = DataPanel(data=np.asarray(panel.data)[:, perm], dims=panel.dims)
        assert likelihood_ratio(sample_covariance(permuted)) == pytest.approx(
            likelihood_ratio(sample_covariance(panel)), abs=1e-12
        )


class TestDegenerateInputs:
    @pytest.mark.parametrize("case", sorted(DEGENERATE_BLOCKS))
    def test_error_names_block(self, case):
        x, y = degenerate_pair(case)
        panel = lag_embed(x, y, LagSpec.influence_test(T=4))
        with pytest.raises(
            CovarianceError, match=f"^{DEGENERATE_BLOCKS[case]} is rank-deficient$"
        ):
            likelihood_ratio(sample_covariance(panel))

    @pytest.mark.parametrize("case", sorted(DEGENERATE_BLOCKS))
    def test_one_onto_two_names_block(self, case):
        x, y = degenerate_pair(case)
        panel = lag_embed(x, y, LagSpec.influence_test(T=4))
        with pytest.raises(
            CovarianceError, match=f"^{DEGENERATE_BLOCKS[case]} is rank-deficient$"
        ):
            partial_coherence_one_onto_two(sample_covariance(panel))


class TestCausalInfluence:
    def test_zero_statistic_never_rejects(self):
        data = np.array(
            [
                [1.0, 1.0, 1.0, 1.0, 0.0],
                [1.0, -1.0, 1.0, -1.0, 0.0],
                [1.0, 1.0, -1.0, -1.0, 0.0],
            ]
        )
        panel = DataPanel(data=data, dims=BlockDims(1, 1, 1))
        out = causal_influence_test(panel, alpha=0.5, n_mc=5000, center=False)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert not out.reject_null
        assert out.p_value > 0.9
        assert "non-causality" in out.describe()

    def test_decision_field_consistency(self):
        for seed in (1, 2, 3):
            panel = barnett_panel(seed=seed, length=1200, T=5, F=0.05)
            for method in ("wilks-mc", "bartlett"):
                out = causal_influence_test(
                    panel, alpha=0.05, method=method, n_mc=20_000, seed=seed
                )
                assert out.reject_null == (out.statistic > out.threshold)
                assert out.reject_null == (out.p_value < out.alpha)

    @pytest.mark.parametrize("method", ["wilks-mc", "bartlett"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_range(self, method, alpha):
        panel = barnett_panel(seed=1, length=600, T=3)
        with pytest.raises(ValueError, match="alpha must lie in"):
            causal_influence_test(panel, alpha=alpha, method=method, n_mc=20_000)

    def test_too_few_null_draws_rejected(self):
        # With 10 draws the 0.05 threshold was the largest draw, so a strong
        # coupling rejected while reporting p = 1/11 > alpha.
        panel = barnett_panel(seed=1, length=2000, T=10, F=0.3)
        with pytest.raises(ValueError, match="n_mc=10 gives insufficient tail resolution"):
            causal_influence_test(panel, alpha=0.05, n_mc=10)

    def test_strong_coupling_is_detected(self):
        panel = barnett_panel(seed=9, length=5000, T=10, F=0.5)
        out = causal_influence_test(panel, alpha=0.05, method="bartlett")
        assert out.reject_null
        assert "causal influence" in out.describe()

    def test_centered_m_used_in_null_spec(self):
        panel = barnett_panel(seed=5, length=1000, T=10)
        out = causal_influence_test(panel, method="bartlett")
        assert out.M == panel.M - 1
        out2 = causal_influence_test(panel, method="bartlett", center=False)
        assert out2.M == panel.M

    def test_wilks_solvency_enforced(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 30))
        panel = lag_embed(x, y, LagSpec.influence_test(T=10))  # M_eff = 19 <= p+q+r
        with pytest.raises(ValueError, match="insufficient samples"):
            causal_influence_test(panel)

    def test_json_field_names(self):
        panel = barnett_panel(seed=2, length=800, T=3)
        out = causal_influence_test(panel, method="bartlett")
        payload = json.loads(out.to_json())
        assert list(payload) == [
            "statistic", "threshold", "p_value", "alpha", "method",
            "reject_null", "p", "q", "r", "M", "seed",
        ]
        assert payload["p"] == 3 and payload["q"] == 1 and payload["r"] == 3


class TestSequenceCsvErrors:
    def test_missing_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,x\n0,1.0\n")
        with pytest.raises(ValueError, match="column 'y'"):
            read_sequence_csv(str(f))

    def test_bad_number_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,x,y\n0,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_sequence_csv(str(f))

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,x,y\n0,1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_sequence_csv(str(f))

    @pytest.mark.parametrize("header", ["t,x,y,x", "t, x ,y,x "])
    def test_repeated_column_rejected(self, tmp_path, header):
        # The second x must not silently replace the first.
        f = tmp_path / "pair.csv"
        f.write_text(f"{header}\n0,1,5,100\n1,2,6,200\n2,4,7,300\n")
        with pytest.raises(ValueError) as info:
            read_sequence_csv(str(f))
        assert str(info.value) == f"{f}: line 1: column 'x' appears more than once"

    def test_extra_channels_returned(self, tmp_path):
        f = tmp_path / "ok.csv"
        f.write_text("t,x,y,w\n0,1.0,2.0,9.0\n1,1.5,2.5,8.0\n")
        data = read_sequence_csv(str(f))
        assert_allclose(data["w"], [9.0, 8.0])

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_sequence_csv(str(f))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_cell_reports_line_and_column(self, tmp_path, cell):
        f = tmp_path / "pair.csv"
        f.write_text(f"t,x,y\n0,1.0,2.0\n\n1,{cell},0.5\n2,3.0,nan\n")
        with pytest.raises(ValueError) as info:
            read_sequence_csv(str(f))
        # Line 3 is blank, so the first bad cell sits on line 4.
        assert str(info.value) == (
            f"{f}: line 4: non-finite value {cell!r} in column 'x'"
        )

    def test_non_finite_in_extra_channel_rejected(self, tmp_path):
        f = tmp_path / "pair.csv"
        f.write_text("t,x,y,w\n0,1.0,2.0,9.0\n1,1.5,2.5,inf\n")
        message = "line 3: non-finite value 'inf' in column 'w'"
        with pytest.raises(ValueError, match=message):
            read_sequence_csv(str(f))


def reference_read_sequence_csv(path):
    """Reference: the row-wise reader that parsed every file before loadtxt."""
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
        columns = [[] for _ in names]
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
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for line_no, row in enumerate(reader, start=2):
                for name, cell in zip(names, row):
                    if not math.isfinite(float(cell)):
                        raise ValueError(
                            f"{path}: line {line_no}: non-finite value {cell!r} "
                            f"in column {name!r}"
                        )
    return data


CSV_EDGE_FILES = {
    "blank-lines": "t,x,y\n0,1,2\n\n1,2,3\n\n",
    "leading-blank-lines": "t,x,y\n\n\r\n0,1,2\n",
    "whitespace-only-line": "t,x,y\n0,1,2\n   \n1,2,3\n",
    "spaces-around-cells": "t,x,y\n0, 1.5 ,2\n1,\t2\t, 3\n",
    "quoted-cells": 't,x,y\n0,"1.5",2\n1,2,"3"\n',
    "underscore-digits": "t,x,y\n0,1_0,2\n",
    "crlf": "t,x,y\r\n0,1,2\r\n1,2,3\r\n",
    "no-final-newline": "t,x,y\n0,1,2\n1,2,3",
    "trailing-comma": "t,x,y\n0,1,2,\n",
    "hash-cell": "t,x,y\n0,1,2\n1,#,3\n",
    "infinity": "t,x,y\n0,1,2\n1,Infinity,3\n",
    "overflow": "t,x,y\n0,1e400,2\n",
    "nan-before-parse-error": "t,x,y\n0,nan,2\n1,oops,3\n",
    "header-only": "t,x,y\n",
    "header-and-blank-lines": "t,x,y\n\n\r\n",
    "extra-channels": "t,x,y,w\n0,1,2,9\n1,1.5,2.5,8\n",
    "too-few-fields-throughout": "t,x,y\n0,1\n1,2\n",
    "padded-header": " t , x ,y\n0,1,2\n",
    "one-row": "t,x,y\n0,-1.25e-3,7\n",
}


class TestSequenceCsvReference:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(CSV_EDGE_FILES))
    def test_matches_row_wise_reader(self, tmp_path, name):
        f = tmp_path / f"{name}.csv"
        f.write_bytes(CSV_EDGE_FILES[name].encode())
        try:
            expected = reference_read_sequence_csv(str(f))
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                read_sequence_csv(str(f))
            assert str(info.value) == str(exc)
            return
        data = read_sequence_csv(str(f))
        assert list(data) == list(expected)
        for key, col in expected.items():
            assert np.array_equal(data[key], col)

    def test_simulated_pair_matches_row_wise_reader(self, tmp_path):
        x, y = gen_barnett(BarnettModelSpec(transfer_entropy=0.02, ma_order=1), 2000, 3)
        f = tmp_path / "pair.csv"
        write_sequence_csv(str(f), x, y)
        data, expected = read_sequence_csv(str(f)), reference_read_sequence_csv(str(f))
        assert all(np.array_equal(data[k], expected[k]) for k in ("t", "x", "y"))


# Each embedding, panel and test-method check raises with its message.
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Role("w", (0,)), "channel must be 'x' or 'y', got 'w'",
                     id="role-channel"),
        pytest.param(lambda: Role("x", ()), "a role needs at least one offset",
                     id="role-no-offsets"),
        pytest.param(lambda: LagSpec(Role("x", (-1,)), Role("y", (0,)), Role("y", (-1,)), 0),
                     "stride must be >= 1, got 0", id="stride"),
        pytest.param(lambda: LagSpec.pairwise(0, 3, "past-of-z"),
                     "unknown conditioning 'past-of-z'; expected past-of-x or past-of-y",
                     id="pairwise-conditioning"),
        pytest.param(lambda: DataPanel(np.zeros((2, 5)), BlockDims(1, 1, 1)),
                     "panel must be 3 equal-length rows, got 2 of shapes [(5,)]",
                     id="panel-rows"),
        pytest.param(lambda: DataPanel(np.zeros((3, 0)), BlockDims(1, 1, 1)),
                     "panel needs at least one column", id="panel-no-columns"),
        pytest.param(lambda: lag_embed(np.zeros(10), np.zeros(11), LagSpec.influence_test(2)),
                     "x and y must be one-dimensional with equal length", id="embed-shapes"),
        pytest.param(lambda: causal_influence_test(barnett_panel(), method="x"),
                     "unknown method 'x'; expected wilks-mc or bartlett", id="test-method"),
    ],
)
def test_input_check_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
