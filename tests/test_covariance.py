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
    lag_window_covariance,
    northwest_readout,
    partial_coherence,
    schur_complement,
)
from cohercause.simulate import BarnettModelSpec

from helpers import random_composite, random_pd
from reference import assemble_composite, conditional_covariances, inv_sqrt_spd, log_det_spd

D111 = BlockDims(1, 1, 1)


def scalar_example():
    """Unit-diagonal 3x3 with rxy=0.5, rxz=0.6, ryz=0.3."""
    return assemble_composite(
        [[1.0]], [[0.5]], [[0.6]], [[1.0]], [[0.3]], [[1.0]], D111
    )


class TestAssemble:
    def test_identity_blocks(self):
        R = assemble_composite(
            [[1.0]], [[0.0]], [[0.0]], [[1.0]], [[0.0]], [[1.0]], D111
        )
        assert_allclose(R.entries, np.eye(3))

    def test_scalar_example_is_psd(self):
        R = scalar_example()
        # eigenvalue oracle for the 3x3 case
        assert np.linalg.eigvalsh(R.entries).min() > 0

    def test_barnett_window_covariance_is_psd(self):
        R = lag_window_covariance(BarnettModelSpec(transfer_entropy=0.02, ma_order=1), 10)
        assert R.dims == BlockDims(10, 1, 10)
        assert np.linalg.eigvalsh(R.entries).min() > 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(CovarianceError, match="shape"):
            assemble_composite(
                np.eye(2), [[0.5]], [[0.6]], [[1.0]], [[0.3]], [[1.0]], D111
            )

    def test_psd_violation_raises(self):
        with pytest.raises(CovarianceError, match="positive semidefinite"):
            assemble_composite(
                [[1.0]], [[0.99]], [[0.99]], [[1.0]], [[-0.99]], [[1.0]], D111
            )

    def test_r_zero_requires_empty_z_blocks(self):
        dims = BlockDims(1, 1, 0)
        R = assemble_composite(
            [[1.0]], [[0.2]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)),
            np.zeros((0, 0)), dims,
        )
        assert R.entries.shape == (2, 2)
        with pytest.raises(CovarianceError, match="empty"):
            assemble_composite(
                [[1.0]], [[0.2]], [[0.1]], [[1.0]], [[0.1]], [[1.0]], dims
            )

    def test_direct_construction_rejects_asymmetry(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(CovarianceError, match="symmetric"):
            CompositeCovariance(m, D111)
        # from_matrix symmetrizes first
        R = CompositeCovariance.from_matrix(m, D111)
        assert_allclose(R.entries, R.entries.T)

    def test_entries_are_immutable(self):
        R = scalar_example()
        with pytest.raises(ValueError):
            R.entries[0, 0] = 2.0


class TestSchurComplement:
    def test_scalar_example_uu(self):
        R = scalar_example()
        # scalar oracle: r_aa - r_az^2 per entry, r_xy - r_xz r_yz across
        expected = np.array(
            [[1 - 0.6**2, 0.5 - 0.6 * 0.3], [0.5 - 0.6 * 0.3, 1 - 0.3**2]]
        )
        assert_allclose(schur_complement(R, "uu"), expected, atol=1e-14)

    def test_zero_cross_covariance_is_identity_on_uu(self):
        R = assemble_composite(
            [[1.0]], [[0.5]], [[0.0]], [[1.0]], [[0.0]], [[2.0]], D111
        )
        assert_allclose(schur_complement(R, "uu"), R.uu, atol=1e-15)

    def test_exact_cancellation(self):
        # rxy = rxz * ryz makes the partial cross-covariance vanish
        R = assemble_composite(
            [[1.0]], [[0.18]], [[0.6]], [[1.0]], [[0.3]], [[1.0]], D111
        )
        cond = conditional_covariances(R)
        assert_allclose(cond.xy_z, [[0.0]], atol=1e-15)

    def test_r_zero_round_trip(self):
        dims = BlockDims(2, 2, 0)
        R = random_composite(np.random.default_rng(0), dims)
        assert_allclose(schur_complement(R, "uu"), R.uu)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            schur_complement(scalar_example(), "zz")

    def test_blocks_of_uu_match_named_targets(self):
        R = random_composite(np.random.default_rng(3), BlockDims(3, 2, 4))
        cond = conditional_covariances(R)
        assert_allclose(cond.xx_z, schur_complement(R, "xx"), atol=1e-12)
        assert_allclose(cond.yy_z, schur_complement(R, "yy"), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_in_psd_order(self, seed):
        # conditioning on more can only shrink the error covariance
        R = random_composite(np.random.default_rng(seed), BlockDims(3, 2, 4))
        cond = conditional_covariances(R)
        assert np.linalg.eigvalsh(cond.xx_z - cond.xx_v).min() > -1e-10
        assert np.linalg.eigvalsh(R.xx - cond.xx_z).min() > -1e-10

    def test_rank_one_conditioning_raises(self):
        # z repeats one variable twice: R_zz is exactly rank one. The
        # system is consistent, but no route regularizes it: the reference
        # Schur complement and the kernel both name z.
        dims = BlockDims(1, 1, 2)
        m = np.eye(4)
        m[2, 3] = m[3, 2] = 1.0
        m[0, 2] = m[2, 0] = m[0, 3] = m[3, 0] = 0.3
        R = CompositeCovariance.from_matrix(m, dims)
        with pytest.raises(CovarianceError, match="^z is rank-deficient$"):
            schur_complement(R, "uu")
        with pytest.raises(CovarianceError, match="^z is rank-deficient$"):
            partial_coherence(R)

    def test_zero_conditioning_block_raises(self):
        dims = BlockDims(1, 1, 1)
        m = np.diag([1.0, 1.0, 0.0])
        R = CompositeCovariance.from_matrix(m, dims)
        with pytest.raises(CovarianceError, match="^z is rank-deficient$"):
            schur_complement(R, "uu")

    def test_non_finite_entries_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(CovarianceError, match="finite"):
            CompositeCovariance.from_matrix(m, D111)


class TestNorthwestReadout:
    def test_identity(self):
        R = CompositeCovariance.from_matrix(np.eye(3), D111)
        assert_allclose(northwest_readout(R), np.eye(2), atol=1e-14)

    def test_scalar_example_matches_schur(self):
        R = scalar_example()
        assert_allclose(
            northwest_readout(R), schur_complement(R, "uu"), rtol=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_equals_schur_on_random_pd(self, seed):
        R = random_composite(np.random.default_rng(seed), BlockDims(2, 2, 1))
        nw = northwest_readout(R)
        sc = schur_complement(R, "uu")
        assert_allclose(nw, sc, rtol=1e-10, atol=1e-12)

    def test_singular_raises(self):
        m = np.ones((3, 3))
        R = CompositeCovariance.from_matrix(m, D111)
        with pytest.raises(CovarianceError):
            northwest_readout(R)


class TestSpdPrimitives:
    def test_inv_sqrt_identity(self):
        assert_allclose(inv_sqrt_spd(np.eye(3)), np.eye(3))

    def test_inv_sqrt_diagonal(self):
        assert_allclose(inv_sqrt_spd(np.diag([4.0, 9.0])), np.diag([0.5, 1 / 3]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_inv_sqrt_residual(self, seed):
        A = random_pd(np.random.default_rng(seed), 4)
        B = inv_sqrt_spd(A)
        assert_allclose(B, B.T)
        assert_allclose(B @ A @ B, np.eye(4), atol=1e-10)

    def test_inv_sqrt_rejects_non_pd(self):
        with pytest.raises(CovarianceError):
            inv_sqrt_spd(np.diag([1.0, -1.0]))

    def test_log_det_identity(self):
        assert log_det_spd(np.eye(5)) == 0.0

    def test_log_det_diagonal(self):
        assert_allclose(log_det_spd(np.diag([2.0, 3.0])), np.log(6.0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_log_det_matches_eigenvalue_oracle(self, seed):
        A = random_pd(np.random.default_rng(seed), 6)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(A))))
        assert_allclose(log_det_spd(A), oracle, rtol=1e-10, atol=1e-10)

    def test_log_det_rejects_non_pd(self):
        with pytest.raises(CovarianceError):
            log_det_spd(np.zeros((2, 2)))


# Each block-dimension and shape check raises with its message.
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: BlockDims(0, 1, 0), "p and q must be >= 1, got p=0, q=1",
                     id="dims-p"),
        pytest.param(lambda: BlockDims(1, 1, -1), "r must be >= 0, got r=-1", id="dims-r"),
        pytest.param(lambda: CompositeCovariance(np.eye(2), BlockDims(1, 1, 1)),
                     "expected a 3x3 matrix for dims BlockDims(p=1, q=1, r=1), got (2, 2)",
                     id="composite-shape"),
    ],
)
def test_input_check_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
