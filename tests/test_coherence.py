import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cohercause import (
    BlockDims,
    CompositeCovariance,
    CovarianceError,
    block_diag_transform,
    information_measures,
    partial_coherence,
    partial_coherence_one_onto_two,
    spectral_partial_coherence,
)
from cohercause.inference import likelihood_ratio
from cohercause.simulate import (
    BarnettModelSpec,
    MAFilterSpec,
    analytic_covariances,
    composite_from_sequences,
)

from helpers import CORPUS_DIMS, random_composite, random_nonsingular, random_pd
from reference import (
    assemble_composite,
    coherence_matrix,
    conditional_covariances,
    conditional_estimator_gain,
    model_composite_covariance,
    partial_canonical_correlations,
)

D111 = BlockDims(1, 1, 1)


def scalar_partial_correlation(rxy, rxz, ryz):
    """Classical scalar partial-correlation oracle."""
    return (rxy - rxz * ryz) / math.sqrt((1 - rxz**2) * (1 - ryz**2))


def triple_composite(rxy, rxz, ryz):
    return assemble_composite(
        [[1.0]], [[rxy]], [[rxz]], [[1.0]], [[ryz]], [[1.0]], D111
    )


def zero_cross_composite():
    """rxy = rxz * ryz, so the conditional cross-covariance is exactly zero."""
    return triple_composite(0.18, 0.6, 0.3)


class TestCoherenceMatrix:
    def test_zero_partial_cross_covariance(self):
        # rxy = rxz * ryz cancels exactly after conditioning
        R = triple_composite(0.18, 0.6, 0.3)
        assert_allclose(coherence_matrix(R), [[0.0]], atol=1e-15)

    def test_scalar_example_matches_partial_correlation(self):
        R = triple_composite(0.5, 0.6, 0.3)
        expected = scalar_partial_correlation(0.5, 0.6, 0.3)
        assert_allclose(coherence_matrix(R), [[expected]], rtol=1e-12)

    def test_r_zero_reduces_to_ordinary_coherence(self):
        dims = BlockDims(2, 2, 0)
        R = assemble_composite(
            np.eye(2), 0.3 * np.eye(2), np.zeros((2, 0)), np.eye(2),
            np.zeros((2, 0)), np.zeros((0, 0)), dims,
        )
        assert_allclose(coherence_matrix(R), 0.3 * np.eye(2), atol=1e-14)

    def test_degenerate_conditional_raises(self):
        # y is an exact function of z, so R_yy|z = 0
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        R = CompositeCovariance.from_matrix(m, D111)
        with pytest.raises(CovarianceError, match="^y given z is rank-deficient$"):
            coherence_matrix(R)

    @pytest.mark.parametrize("fn", [coherence_matrix, conditional_estimator_gain])
    @pytest.mark.parametrize(
        "rxy, rxz, ryz, block",
        [(0.0, 0.0, 1.0 - 1e-14, "y"), (0.0, 1.0 - 1e-14, 0.0, "x")],
    )
    def test_ill_conditioned_given_z_follows_kernel_rule(self, fn, rxy, rxz, ryz, block):
        # The conditional variance is ~2e-14 of the unconditional one: the
        # kernel's pivot rule, as in partial_coherence, not a silent [[0.]].
        R = triple_composite(rxy, rxz, ryz)
        with pytest.raises(CovarianceError, match=f"^{block} given z is rank-deficient$"):
            fn(R)
        with pytest.raises(CovarianceError, match="is rank-deficient$"):
            partial_coherence(R)


class TestCanonicalCorrelations:
    def test_zero_matrix(self):
        assert_allclose(partial_canonical_correlations(np.zeros((2, 3))), np.zeros(2))

    def test_scalar(self):
        assert_allclose(partial_canonical_correlations([[0.4193]]), [0.4193])

    def test_diagonal_sorted_descending(self):
        k = partial_canonical_correlations([[0.2, 0.0], [0.0, 0.5]])
        assert_allclose(k, [0.5, 0.2])

    def test_clamped_into_unit_interval(self):
        k = partial_canonical_correlations([[1.0 + 1e-12]])
        assert 0.0 <= k[0] < 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            partial_canonical_correlations([[np.nan]])


class TestPartialCoherence:
    def test_zero_cross(self):
        res = partial_coherence(zero_cross_composite())
        assert res.rho2 == pytest.approx(0.0, abs=1e-14)
        assert res.det_q == pytest.approx(1.0, abs=1e-14)

    def test_scalar_example(self):
        res = partial_coherence(triple_composite(0.5, 0.6, 0.3))
        expected = scalar_partial_correlation(0.5, 0.6, 0.3) ** 2
        assert res.rho2 == pytest.approx(expected, rel=1e-12)
        assert_allclose(res.canonical_correlations, [math.sqrt(expected)], rtol=1e-12)

    def test_result_invariants(self):
        res = partial_coherence(random_composite(np.random.default_rng(5), BlockDims(3, 2, 4)))
        assert abs(res.rho2 - (1.0 - np.prod(1 - res.canonical_correlations**2))) < 1e-10
        assert abs(res.rho2 - (1.0 - res.det_q)) < 1e-14
        assert np.all((res.canonical_correlations >= 0) & (res.canonical_correlations <= 1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(CORPUS_DIMS))
    def test_rho2_in_unit_interval(self, seed, dims):
        res = partial_coherence(random_composite(np.random.default_rng(seed), dims))
        assert 0.0 <= res.rho2 <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_swap_symmetry(self, seed):
        dims = BlockDims(3, 2, 4)
        R = random_composite(np.random.default_rng(seed), dims)
        swapped = np.block(
            [
                [R.yy, R.xy.T, R.yz],
                [R.xy, R.xx, R.xz],
                [R.yz.T, R.xz.T, R.zz],
            ]
        )
        Rs = CompositeCovariance.from_matrix(swapped, BlockDims(2, 3, 4))
        assert partial_coherence(Rs).rho2 == pytest.approx(
            partial_coherence(R).rho2, abs=1e-10
        )


def condition_number(A):
    vals = np.linalg.eigvalsh(A)
    return vals[-1] / vals[0]


class TestKernelAgainstReferenceRoutes:
    """The Cholesky kernel behind rho2 against the independent routes."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(CORPUS_DIMS),
        st.sampled_from([0.5, 1e-3, 1e-6]),
    )
    def test_matches_singular_values_and_one_onto_two(self, seed, dims, jitter):
        R = CompositeCovariance.from_matrix(
            random_pd(np.random.default_rng(seed), dims.total, jitter), dims
        )
        res = partial_coherence(R)
        cond = conditional_covariances(R)
        kappa = max(condition_number(cond.xx_z), condition_number(cond.yy_z))
        # The singular-value route loses digits with sqrt(kappa).
        allowance = max(1e-9, math.sqrt(kappa) * 1e-12)
        det_q_svd = np.prod(1.0 - res.canonical_correlations**2)
        assert abs(res.rho2 - (1.0 - det_q_svd)) <= allowance
        assert abs(res.rho2 - partial_coherence_one_onto_two(R)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(CORPUS_DIMS),
        st.sampled_from([0.5, 1e-3, 1e-6]),
    )
    def test_canonical_correlations_match_svd_route(self, seed, dims, jitter):
        # The kernel reads k from the eigenvalues of W W^T; the reference
        # takes the singular values of the symmetric-root coherence matrix.
        # k^2 is compared: a small k carries the error of k^2 over 2k.
        R = CompositeCovariance.from_matrix(
            random_pd(np.random.default_rng(seed), dims.total, jitter), dims
        )
        res = partial_coherence(R)
        cond = conditional_covariances(R)
        kappa = max(condition_number(cond.xx_z), condition_number(cond.yy_z))
        allowance = max(1e-9, math.sqrt(kappa) * 1e-12)
        k_svd = partial_canonical_correlations(coherence_matrix(R))
        k2 = res.canonical_correlations**2
        assert_allclose(k2, k_svd**2, rtol=0, atol=allowance)
        # The result's matrix differs from the reference by rotations only.
        sv = np.linalg.svd(res.coherence_matrix, compute_uv=False)
        assert_allclose(sv**2, k2, rtol=0, atol=allowance)


class TestOneOntoTwo:
    def test_zero_cross(self):
        assert partial_coherence_one_onto_two(zero_cross_composite()) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_scalar_example_matches_two_onto_one(self):
        R = triple_composite(0.5, 0.6, 0.3)
        assert partial_coherence_one_onto_two(R) == pytest.approx(
            partial_coherence(R).rho2, abs=1e-12
        )

    def test_framings_agree_on_random_corpus(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            R = random_composite(rng, BlockDims(3, 2, 4))
            assert abs(
                partial_coherence_one_onto_two(R) - partial_coherence(R).rho2
            ) < 1e-10

    @pytest.mark.parametrize("offset", [-19, -1])
    def test_ill_conditioned_past_is_not_jittered(self, offset):
        # S_vv has condition number ~1.4e12 but clean Cholesky pivots; a
        # jitter there used to move rho2 from 3.2e-6 to 0 at offset -19.
        seqs = analytic_covariances(BarnettModelSpec(transfer_entropy=0.02, ma_order=10), 40)
        R = model_composite_covariance(seqs, offset, 0, "past-of-y", T_cond=20)
        assert partial_coherence_one_onto_two(R) == pytest.approx(
            likelihood_ratio(R), rel=1e-4
        )


class TestEstimatorGain:
    def test_zero_gain_iff_zero_partial_cross(self):
        assert_allclose(
            conditional_estimator_gain(zero_cross_composite()), [[0.0]], atol=1e-15
        )

    def test_scalar_example(self):
        R = triple_composite(0.5, 0.6, 0.3)
        assert_allclose(conditional_estimator_gain(R), [[0.32 / 0.91]], rtol=1e-12)

    def test_r_zero_reduces_to_regression_gain(self):
        dims = BlockDims(1, 1, 0)
        R = assemble_composite(
            [[1.0]], [[0.5]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)),
            np.zeros((0, 0)), dims,
        )
        assert_allclose(conditional_estimator_gain(R), [[0.5]], rtol=1e-14)


class TestInformationMeasures:
    def test_zero_coherence(self):
        im = information_measures(0.0)
        assert im.kl_divergence == 0.0
        assert im.transfer_entropy == 0.0
        assert im.gg_measure == 1.0

    def test_transfer_entropy_round_trip(self):
        im = information_measures(1.0 - math.exp(-0.02))
        assert im.transfer_entropy == pytest.approx(0.02, rel=1e-12)
        assert im.gg_measure == pytest.approx(math.exp(-0.02), rel=1e-12)

    def test_single_canonical_correlation(self):
        # k = 0.5: divergence is -log(1 - 0.25) / 2
        im = information_measures(1.0 - (1.0 - 0.5**2))
        assert im.kl_divergence == pytest.approx(-0.5 * math.log(0.75), rel=1e-12)

    def test_identities_hold_exactly(self):
        im = information_measures(0.37)
        assert im.mutual_information == im.kl_divergence
        assert im.transfer_entropy == 2.0 * im.kl_divergence
        assert im.gg_measure * (1.0 / (1.0 - 0.37)) == pytest.approx(1.0, rel=1e-14)

    def test_saturated(self):
        im = information_measures(1.0)
        assert math.isinf(im.kl_divergence)
        assert math.isinf(im.transfer_entropy)
        assert im.gg_measure == 0.0

    def test_accepts_result_object(self):
        res = partial_coherence(triple_composite(0.5, 0.6, 0.3))
        assert information_measures(res).gg_measure == pytest.approx(res.det_q)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            information_measures(1.5)


class TestBlockDiagTransform:
    def test_identity_transforms(self):
        R = triple_composite(0.5, 0.6, 0.3)
        out = block_diag_transform(R, np.eye(1), np.eye(1), np.eye(1))
        assert_allclose(out.entries, R.entries)

    def test_scalar_scaling_preserves_rho2(self):
        R = triple_composite(0.5, 0.6, 0.3)
        out = block_diag_transform(R, [[2.0]], [[3.0]], [[5.0]])
        assert partial_coherence(out).rho2 == pytest.approx(
            partial_coherence(R).rho2, abs=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(CORPUS_DIMS))
    def test_random_transform_invariance(self, seed, dims):
        rng = np.random.default_rng(seed)
        R = random_composite(rng, dims)
        out = block_diag_transform(
            R,
            random_nonsingular(rng, dims.p),
            random_nonsingular(rng, dims.q),
            random_nonsingular(rng, dims.r),
        )
        assert abs(partial_coherence(out).rho2 - partial_coherence(R).rho2) < 1e-8
        assert_allclose(
            partial_coherence(out).canonical_correlations,
            partial_coherence(R).canonical_correlations,
            atol=1e-8,
        )

    def test_singular_transform_rejected(self):
        R = triple_composite(0.5, 0.6, 0.3)
        with pytest.raises(ValueError, match="singular"):
            block_diag_transform(R, [[0.0]], [[1.0]], [[1.0]])


class TestSpectral:
    def test_zero_cross_sequence(self):
        delta = np.array([1.0])
        sp = spectral_partial_coherence(delta, delta, np.array([0.0]), 128)
        assert_allclose(sp.narrowband_k2, np.zeros(128))
        assert sp.broadband_rho2 == 0.0

    def test_white_sequences_flat_spectrum(self):
        delta = np.array([1.0])
        sp = spectral_partial_coherence(delta, delta, 0.6 * delta, 256)
        assert_allclose(sp.narrowband_k2, np.full(256, 0.36), rtol=1e-12)
        assert sp.broadband_rho2 == pytest.approx(0.36, rel=1e-12)

    def test_case1_szego_matches_finite_window_rate(self):
        # Oracle: per-sample geometric rate of the window-64 Toeplitz
        # partial coherence (the raw value saturates to 1 as the window
        # grows; the rate is what the spectral integral resolves).
        seqs = analytic_covariances(MAFilterSpec.from_case("I"), 128)
        sp = spectral_partial_coherence(seqs.xx, seqs.yy, seqs.xy, 4096)
        W = 64
        xs = [("x", i) for i in range(W)]
        ys = [("y", i) for i in range(W)]
        R = composite_from_sequences(seqs, xs, ys, [])
        det_q = partial_coherence(R).det_q
        window_rate = 1.0 - det_q ** (1.0 / W)
        assert sp.broadband_rho2 == pytest.approx(window_rate, rel=0.02)

    def test_grid_must_exceed_support(self):
        with pytest.raises(ValueError, match="support"):
            spectral_partial_coherence(np.ones(65), np.ones(65), np.ones(65), 64)

    def test_non_positive_spectrum_rejected(self):
        # an MA(1) with unit coefficient has a spectral zero
        seq = np.array([-1.0, 2.0, -1.0])
        with pytest.raises(ValueError, match="positive"):
            spectral_partial_coherence(seq, np.array([1.0]), np.array([0.1]), 64)


# Each transform and spectral-input check raises with its message.
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: block_diag_transform(
            triple_composite(0.5, 0.6, 0.3), np.eye(2), [[1.0]], [[1.0]]),
                     "tx must be 1x1, got (2, 2)", id="transform-shape"),
        pytest.param(lambda: spectral_partial_coherence(
            np.ones(4), np.ones(3), np.ones(3), 64),
                     "covariance sequences must be one-dimensional with odd length",
                     id="spectral-even-length"),
    ],
)
def test_input_check_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
