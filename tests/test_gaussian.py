"""Tests for Gaussian states, passive propagation, and imperfection channels."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from cvcluster.gaussian import (
    LEVEL_LIMIT_DB,
    ComplexUnitary,
    GaussianState,
    SqueezedInputSpec,
    apply_unitary,
    combination_variance,
    impure_squeezed_inputs,
    impure_squeezed_vacuum,
    lossy_channel,
    lossy_channels,
    phase_jitter,
    phase_jitters,
    squeezing_db_to_r,
    symplectic_form,
    tensor,
    vacuum,
    variance_to_db,
)
from cvcluster.networks import linear_cluster_unitary

from helpers import cluster_state, haar_unitary, pure_inputs

TOL = 1e-12


def min_uncertainty_eig(state):
    herm = state.cov + 0.25j * symplectic_form(state.n_modes)
    return float(np.min(np.linalg.eigvalsh(herm)))


class TestVacuum:
    def test_single_mode(self):
        state = vacuum(1)
        assert np.array_equal(state.cov, np.diag([0.25, 0.25]))

    def test_four_modes(self):
        assert np.array_equal(vacuum(4).cov, 0.25 * np.eye(8))

    def test_uncertainty_saturated(self):
        # vacuum sits exactly on the uncertainty boundary
        assert abs(min_uncertainty_eig(vacuum(2))) < TOL

    @pytest.mark.parametrize("n,message", [
        (0, "^mode count must be >= 1"), (-1, "^mode count must be >= 1"),
        (2.5, "^n must be an integer"), (True, "^n must be an integer"), ("2", "^n must be an integer"),
    ])
    def test_bad_mode_count_rejected(self, n, message):
        with pytest.raises(ValueError, match=message):
            vacuum(n)

    @pytest.mark.parametrize("n", [2, 2.0, np.int64(2)])
    def test_integral_mode_count_passes(self, n):
        assert np.array_equal(vacuum(n).cov, 0.25 * np.eye(4))


class TestIntegerArguments:
    """Channel modes follow `as_integer`: 2, 2.0 and numpy ints pass."""

    @pytest.mark.parametrize("mode", [2.0, np.int64(2)])
    def test_integral_mode_passes(self, mode):
        state = cluster_state("linear4", [0.6] * 4)
        assert np.array_equal(lossy_channel(state, mode, 0.5).cov_factor, lossy_channel(state, 2, 0.5).cov_factor)
        assert np.array_equal(phase_jitter(state, mode, 0.1).cov_factor, phase_jitter(state, 2, 0.1).cov_factor)
        assert np.array_equal(lossy_channels(state, {mode: 0.5}).cov_factor, lossy_channel(state, 2, 0.5).cov_factor)
        assert np.array_equal(phase_jitters(state, {mode: 0.1}).cov_factor, phase_jitter(state, 2, 0.1).cov_factor)

    @pytest.mark.parametrize("mode", [True, 1.5, "1"])
    @pytest.mark.parametrize("channel", [
        lambda s, m: lossy_channel(s, m, 0.5),
        lambda s, m: phase_jitter(s, m, 0.1),
        lambda s, m: lossy_channels(s, {m: 0.5}),
        lambda s, m: phase_jitters(s, {m: 0.1}),
    ], ids=["lossy_channel", "phase_jitter", "lossy_channels", "phase_jitters"])
    def test_non_integer_mode_rejected(self, channel, mode):
        with pytest.raises(ValueError, match="^mode must be an integer"):
            channel(vacuum(2), mode)


class TestFactorAdoption:
    """A state takes over the float64 factor array its channel built instead of copying it."""

    @pytest.mark.parametrize("channel", [
        lambda s: impure_squeezed_inputs([-6.0] * 4, [9.0] * 4),
        lambda s: tensor([s, vacuum(1)]),
        lambda s: apply_unitary(s, linear_cluster_unitary()),
        lambda s: lossy_channel(s, 2, 0.9),
        lambda s: phase_jitter(s, 3, 0.05),
        lambda s: lossy_channels(s, {1: 0.9, 4: 0.7}),
        lambda s: phase_jitters(s, {2: 0.05, 4: 0.1}),
    ], ids=["impure_squeezed_inputs", "tensor", "apply_unitary", "lossy_channel", "phase_jitter",
            "lossy_channels", "phase_jitters"])
    def test_channel_state_holds_the_array_it_built(self, monkeypatch, channel):
        state = cluster_state("linear4", [0.6] * 4)
        built = []
        init = GaussianState.__init__

        def recording(self, cov=None, *, cov_factor=None):
            built.append(cov_factor)
            init(self, cov, cov_factor=cov_factor)

        monkeypatch.setattr(GaussianState, "__init__", recording)
        out = channel(state)
        assert np.shares_memory(out.cov_factor, built[-1])
        assert not built[-1].flags.writeable

    @pytest.mark.parametrize("factor", [[[1, 0], [0, 2]], np.array([[1, 0], [0, 2]])])
    def test_list_or_int_array_is_converted_to_float(self, factor):
        state = GaussianState(cov_factor=factor)
        assert state.cov_factor.dtype == np.float64
        assert np.array_equal(state.cov, np.diag([1.0, 4.0]))
        assert not state.cov_factor.flags.writeable
        if isinstance(factor, np.ndarray):
            assert factor.flags.writeable and not np.shares_memory(state.cov_factor, factor)


class TestImpureSqueezedInputs:
    def test_mirrored_levels_give_pure_inputs(self):
        state = impure_squeezed_inputs([-6.0, -0.5, 0.0], [6.0, 0.5, 0.0])
        for mode in range(3):
            block = state.cov[np.ix_([mode, 3 + mode], [mode, 3 + mode])]
            assert np.linalg.det(block) == pytest.approx(1 / 16, rel=1e-12)

    @pytest.mark.parametrize("squeezing,antisqueezing", [([], []), ([-6.0] * 4, [6.0] * 3), ([-6.0], [])])
    def test_level_lists_need_one_nonzero_length(self, squeezing, antisqueezing):
        message = f"^expected as many antisqueezing as squeezing levels, at least one, got {len(antisqueezing)} and"
        with pytest.raises(ValueError, match=message):
            impure_squeezed_inputs(squeezing, antisqueezing)

    @pytest.mark.parametrize("s,a", [(-6.0, 4.0), (1.0, 1.0), (-1.0, -1.0), (math.nan, 6.0), (-6.0, math.inf),
                                     (-3100.0, 3100.0), (-6.0, 3100.0)])
    def test_levels_follow_the_spec_rule(self, s, a):
        with pytest.raises(ValueError) as spec:
            SqueezedInputSpec(s, a)
        with pytest.raises(ValueError) as inputs:
            impure_squeezed_inputs([-6.0, s], [6.0, a])
        assert str(inputs.value) == str(spec.value)


class TestImpureSqueezedVacuum:
    def test_independent_levels(self):
        state = impure_squeezed_vacuum(SqueezedInputSpec(-5.5, 9.1))
        assert np.allclose(state.cov, np.diag([0.25 * 10 ** 0.91, 0.25 * 10 ** -0.55]), atol=1e-15)

    def test_zero_levels_is_vacuum(self):
        state = impure_squeezed_vacuum(SqueezedInputSpec(0.0, 0.0))
        assert np.allclose(state.cov, vacuum(1).cov, atol=TOL)

    def test_unphysical_levels_rejected(self):
        with pytest.raises(ValueError, match="unphysical"):
            SqueezedInputSpec(-6.0, 4.0)

    def test_sign_conventions_enforced(self):
        with pytest.raises(ValueError):
            SqueezedInputSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            SqueezedInputSpec(-1.0, -1.0)

    def test_levels_bounded_before_the_variances_overflow(self):
        deepest = impure_squeezed_vacuum(SqueezedInputSpec(-LEVEL_LIMIT_DB, LEVEL_LIMIT_DB))
        assert np.all(np.isfinite(deepest.cov_factor)) and np.all(deepest.cov_factor.diagonal() > 0)
        with pytest.raises(ValueError, match="squeezing_db"):
            SqueezedInputSpec(-3100.0, 3100.0)
        with pytest.raises(ValueError, match="antisqueezing_db"):
            SqueezedInputSpec(-6.0, 3100.0)


class TestTensor:
    def test_vacua_compose(self):
        assert np.array_equal(tensor([vacuum(1), vacuum(1)]).cov, vacuum(2).cov)

    def test_mode_count_sums(self):
        assert tensor([vacuum(2), vacuum(1), vacuum(3)]).n_modes == 6

    def test_block_structure_preserves_order(self):
        r = 0.7
        state = tensor([pure_inputs([r]), vacuum(1)])
        assert np.allclose(np.diag(state.cov),
                           [0.25 * math.exp(2 * r), 0.25, 0.25 * math.exp(-2 * r), 0.25],
                           atol=TOL)
        # no correlations between independent parts
        off = state.cov - np.diag(np.diag(state.cov))
        assert np.max(np.abs(off)) < TOL

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor([])


class TestSymplectic:
    def test_identity(self):
        s = ComplexUnitary(np.eye(3)).symplectic
        assert np.array_equal(s, np.eye(6))

    def test_all_mode_fourier(self):
        s = ComplexUnitary(1j * np.eye(2)).symplectic
        expected = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert np.array_equal(s, expected)

    def test_linear_network_is_symplectic(self):
        s = linear_cluster_unitary().symplectic
        omega = symplectic_form(4)
        assert np.max(np.abs(s @ omega @ s.T - omega)) < TOL
        assert not s.flags.writeable

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ComplexUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestApplyUnitary:
    def test_vacuum_invariant(self):
        rng = np.random.default_rng(3)
        state = apply_unitary(vacuum(4), haar_unitary(4, rng))
        assert np.allclose(state.cov, 0.25 * np.eye(8), atol=1e-14)

    def test_inverse_restores(self):
        rng = np.random.default_rng(4)
        u = haar_unitary(4, rng)
        state = pure_inputs([0.3, 0.6, 0.9, 1.2])
        back = apply_unitary(apply_unitary(state, u), u.adjoint())
        assert np.max(np.abs(back.cov - state.cov)) < TOL

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        state = pure_inputs(rng.uniform(-0.5, 1.5, 4))
        out = apply_unitary(state, haar_unitary(4, rng))
        assert np.trace(out.cov) == pytest.approx(np.trace(state.cov), abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            apply_unitary(vacuum(3), linear_cluster_unitary())


ETA = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
SIGMA = st.just(0.0) | st.floats(1e-8, 10.0)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_channels_equal_the_one_mode_chain(data):
    # one pass per channel kind over any subset of modes, in any order, gives
    # the factor of the one-mode channels chained in that order, bit for bit
    n = data.draw(st.integers(1, 64), label="modes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = rng.uniform(-30.0, 0.0, n)
    state = apply_unitary(impure_squeezed_inputs(levels, -levels + rng.uniform(0.0, 6.0, n)), haar_unitary(n, rng))
    for kind, one_pass, one_mode, value in (
        ("loss", lossy_channels, lossy_channel, ETA), ("jitter", phase_jitters, phase_jitter, SIGMA),
    ):
        order = data.draw(st.permutations(range(1, n + 1)), label=f"{kind} order")
        values = {mode: data.draw(value, label=f"{kind} {mode}") for mode in order[:data.draw(st.integers(0, n))]}
        chained = state
        for mode, v in values.items():
            chained = one_mode(chained, mode, v)
        state = one_pass(state, values)
        assert np.array_equal(state.cov_factor, chained.cov_factor)


def test_inputs_built_at_once_equal_their_tensor():
    s, a = [-6.3, -3000.0, 0.0, -0.5], [11.0, 3000.0, 0.0, 0.5]
    parts = tensor([impure_squeezed_vacuum(SqueezedInputSpec(si, ai)) for si, ai in zip(s, a)])
    assert np.array_equal(impure_squeezed_inputs(s, a).cov_factor, parts.cov_factor)


class TestLossyChannel:
    def test_full_transmission_is_identity(self):
        state = cluster_state("linear4", [0.5] * 4)
        out = lossy_channel(state, 2, 1.0)
        assert np.array_equal(out.cov, state.cov)

    def test_zero_transmission_gives_vacuum_mode(self):
        state = cluster_state("linear4", [0.5] * 4)
        out = lossy_channel(state, 1, 0.0)
        assert out.cov[0, 0] == pytest.approx(0.25, abs=TOL)
        assert out.cov[4, 4] == pytest.approx(0.25, abs=TOL)
        # correlations to the lost mode vanish
        for k in (0, 4):
            row = np.delete(out.cov[k], [0, 4])
            assert np.max(np.abs(row)) < TOL

    def test_half_transmission_formula(self):
        v = 0.25 * math.exp(-2 * 0.7)
        out = lossy_channel(pure_inputs([0.7]), 1, 0.5)
        assert out.cov[1, 1] == pytest.approx(0.5 * v + 0.125, abs=1e-15)

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_out_of_range_rejected(self, eta):
        with pytest.raises(ValueError):
            lossy_channel(vacuum(1), 1, eta)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            lossy_channel(vacuum(2), 3, 0.5)
        # checked before an identity channel (eta 1, sigma 0) is dropped
        for channel in (lambda s: lossy_channel(s, 9, 1.0), lambda s: phase_jitter(s, 9, 0.0),
                        lambda s: phase_jitters(s, {9: 0.0, 1: 0.1})):
            with pytest.raises(ValueError, match=r"mode index 9 out of range 1\.\.2"):
                channel(vacuum(2))


class TestPhaseJitter:
    def test_zero_sigma_is_identity(self):
        state = pure_inputs([0.8])
        assert phase_jitter(state, 1, 0.0) is state

    def test_full_dephasing_symmetrizes(self):
        state = pure_inputs([0.8])
        out = phase_jitter(state, 1, 50.0)
        mid = (state.cov[0, 0] + state.cov[1, 1]) / 2
        assert out.cov[0, 0] == pytest.approx(mid, rel=1e-9)
        assert out.cov[1, 1] == pytest.approx(mid, rel=1e-9)

    def test_the_noise_factor_clips_what_rounding_leaves_below_zero(self):
        # the built-in networks leave each output mode's x and p uncorrelated, and the noise Cholesky then has
        # nothing to clip; a rotated deep-squeezed mode makes it clip, its noise being singular to rounding
        clipped = []
        for phi in np.linspace(0.0, np.pi, 64):
            factor = np.zeros((4, 4))
            for mode, level in ((0, LEVEL_LIMIT_DB), (1, 30.0)):
                rotation = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
                amplitudes = np.sqrt(0.25 * 10.0 ** (np.array([level, -level]) / 10.0))
                factor[np.ix_([mode, 2 + mode], [2 * mode, 2 * mode + 1])] = rotation * amplitudes
            out = phase_jitters(GaussianState(cov_factor=factor), {1: 1e-8, 2: 3.0}).cov_factor
            assert np.isfinite(out).all()
            clipped.append(out[2, 5] == 0.0)  # mode 1's lpp
        assert any(clipped) and not all(clipped)

    def test_small_sigma_interpolates(self):
        state = impure_squeezed_inputs([-6.0], [6.0])
        out = phase_jitter(state, 1, 0.1)
        mid = (state.cov[0, 0] + state.cov[1, 1]) / 2
        assert state.cov[1, 1] < out.cov[1, 1] < mid

    def test_cross_correlations_shrink(self):
        state = cluster_state("linear4", [0.6] * 4)
        sigma = 0.3
        out = phase_jitter(state, 1, sigma)
        expected = state.cov[0, 1] * math.exp(-sigma ** 2 / 2)
        assert out.cov[0, 1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.3, 1.0])
    def test_sampled_rotations_average_to_the_closed_form(self, sigma):
        # R cov R^T of one mode's explicit rotation, averaged over seeded draws
        # theta ~ N(0, sigma^2): a check of the closed-form moments that shares
        # no formula with them (the mpmath reference is in test_precision.py);
        # local phases give the cluster modes x-p correlations
        phases = ComplexUnitary(np.diag(np.exp(0.4j * np.arange(1, 5))))
        state = apply_unitary(cluster_state("linear4", [0.6, 0.4, 0.8, 0.5]), phases)
        cov, n, mode, draws, chunks = state.cov, state.n_modes, 2, 20_000, 10
        ix, ip = mode - 1, n + mode - 1
        rng = np.random.default_rng(11)
        total, squares = np.zeros_like(cov), np.zeros_like(cov)
        for _ in range(chunks):
            thetas = rng.normal(0.0, sigma, draws)
            rot = np.tile(np.eye(2 * n), (draws, 1, 1))
            rot[:, ix, ix] = rot[:, ip, ip] = np.cos(thetas)
            rot[:, ix, ip], rot[:, ip, ix] = -np.sin(thetas), np.sin(thetas)
            rotated = rot @ cov @ rot.transpose(0, 2, 1)
            total += rotated.sum(axis=0)
            squares += (rotated ** 2).sum(axis=0)
        samples = draws * chunks
        mean = total / samples
        stderr = np.sqrt(np.maximum(squares / samples - mean ** 2, 0.0) / samples)
        assert np.all(np.abs(phase_jitter(state, mode, sigma).cov - mean) <= 5.0 * stderr + 1e-12)

    def test_underflowing_sigma_is_identity(self):
        # sigma^2 underflows to 0, so the noise block is exactly zero
        state = pure_inputs([0.8])
        out = phase_jitter(state, 1, 1e-170)
        assert np.array_equal(out.cov, state.cov)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            phase_jitter(vacuum(1), 1, -0.1)


class TestCombinationVariance:
    def test_vacuum_quadrature(self):
        c = np.zeros(2)
        c[0] = 1.0
        assert combination_variance(vacuum(1), c) == pytest.approx(0.25, abs=1e-15)

    def test_linear_cluster_edge_correlation(self):
        r1 = 0.9
        state = cluster_state("linear4", [r1, 0.4, 0.2, 0.6])
        c = np.zeros(8)
        c[4] = 1.0   # p_1
        c[1] = -1.0  # -x_2
        assert combination_variance(state, c) == pytest.approx(2 * math.exp(-2 * r1) / 4, rel=1e-12)

    def test_bilinear_scaling(self):
        rng = np.random.default_rng(6)
        state = pure_inputs(rng.uniform(0, 1, 4))
        c = rng.standard_normal(8)
        assert combination_variance(state, 2 * c) == pytest.approx(4 * combination_variance(state, c), rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            combination_variance(vacuum(2), np.ones(3))


class TestVarianceToDb:
    def test_equal_is_zero(self):
        assert variance_to_db(0.4, 0.4) == 0.0

    @pytest.mark.parametrize("level,ref", [(-5.4, 0.5), (-5.8, 0.75)])
    def test_round_trip(self, level, ref):
        assert variance_to_db(ref * 10 ** (level / 10), ref) == pytest.approx(level, abs=1e-12)

    @pytest.mark.parametrize("v,ref", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_nonpositive_rejected(self, v, ref):
        with pytest.raises(ValueError):
            variance_to_db(v, ref)


class TestStateValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[0.25, 0.1], [0.0, 0.25]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(cov)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(0.1 * np.eye(2))

    def test_deep_squeezed_covariance_accepted_and_factored(self):
        # entries near 1e8 carry rounding far above an absolute 1e-8, and the
        # smallest eigenvalues of cov fall below that rounding
        deep = cluster_state("tshape4", [squeezing_db_to_r(-90.0)] * 4)
        state = GaussianState(deep.cov)
        scale = np.max(np.abs(deep.cov))
        assert np.max(np.abs(state.cov - deep.cov)) < 1e-14 * scale

    def test_needs_exactly_one_covariance_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            GaussianState()
        with pytest.raises(ValueError, match="exactly one"):
            GaussianState(0.25 * np.eye(2), cov_factor=0.5 * np.eye(2))

    def test_shape_mismatch_rejected(self):
        for cov in (0.25 * np.ones((2, 4)), 0.25 * np.eye(3)):
            with pytest.raises(ValueError, match="shape"):
                GaussianState(cov)

    @pytest.mark.parametrize("factor", [[[1.0, 2.0, 3.0]], np.ones((3, 2)), np.ones(4), np.ones((0, 2)),
                                        np.ones((2, 2, 2)), 0.5],
                             ids=["1x3", "3x2", "1-D", "0x2", "3-D", "scalar"])
    def test_factor_shape_rejected(self, factor):
        with pytest.raises(ValueError, match="^cov_factor .*shape"):
            GaussianState(cov_factor=factor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_rejected(self, bad):
        factor = 0.5 * np.eye(4)
        factor[3, 1] = bad
        with pytest.raises(ValueError, match="^cov_factor must be finite"):
            GaussianState(cov_factor=factor)
        with pytest.raises(ValueError, match="^cov_factor must be finite"):
            GaussianState(cov_factor=factor.tolist())

    def test_states_are_immutable(self):
        state = vacuum(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 1.0


class TestChannelInvariants:
    """Uncertainty and purity behavior under propagation and noise."""

    @pytest.mark.parametrize("seed", range(5))
    def test_uncertainty_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = pure_inputs(rng.uniform(-0.5, 1.5, 4))
        state = apply_unitary(state, haar_unitary(4, rng))
        state = lossy_channel(state, int(rng.integers(1, 5)), float(rng.uniform(0, 1)))
        state = phase_jitter(state, int(rng.integers(1, 5)), float(rng.uniform(0, 0.5)))
        assert min_uncertainty_eig(state) > -1e-10

    def test_purity_preserved_by_networks(self):
        rng = np.random.default_rng(21)
        state = apply_unitary(pure_inputs(rng.uniform(0, 1.2, 4)), haar_unitary(4, rng))
        assert np.linalg.det(state.cov) == pytest.approx((1 / 16) ** 4, abs=1e-9)

    def test_loss_strictly_increases_determinant(self):
        state = cluster_state("linear4", [0.7] * 4)
        lossy = lossy_channel(state, 2, 0.8)
        assert np.linalg.det(lossy.cov) > np.linalg.det(state.cov)
