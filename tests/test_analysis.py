"""Tests for graphs, nullifier evaluation, closed forms, and witnesses."""

import math

import numpy as np
import pytest

from cvcluster.analysis import (
    WITNESS_BOUND,
    GraphSpec,
    NullifierReport,
    UnsupportedGraphError,
    WitnessReport,
    analytic_residual_variances,
    full_inseparability_verdict,
    graph_by_name,
    linear4,
    nullifier_coefficients,
    nullifier_report,
    square4,
    tshape4,
    witness_tested_on,
)
from cvcluster.gaussian import (
    apply_unitary,
    combination_variances,
    impure_squeezed_inputs,
    lossy_channel,
    phase_jitter,
    squeezing_db_to_r,
    vacuum,
    variance_to_db,
)

from cvcluster.networks import linear_to_square_phases

from helpers import (
    NETWORKS,
    cluster_state,
    db_to_variance,
    equivalence_identities_check,
    graph_for,
)

TOL = 1e-12

VACUUM_RESIDUALS = {
    "linear4": (0.5, 0.75, 0.75, 0.5),
    "square4": (0.75, 0.75, 0.75, 0.75),
    "tshape4": (1.0, 0.5, 0.5, 0.5),
}


class TestGraphSpec:
    def test_linear_neighbors(self):
        g = linear4()
        assert g.neighbors(1) == (2,)
        assert g.neighbors(2) == (1, 3)
        assert g.neighbors(4) == (3,)

    def test_square_neighbors(self):
        g = square4()
        assert g.neighbors(1) == (3, 4)
        assert g.neighbors(3) == (1, 2)

    def test_tshape_neighbors(self):
        g = tshape4()
        assert g.neighbors(1) == (2, 3, 4)
        assert g.neighbors(3) == (1,)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphSpec(3, frozenset({(2, 2)}))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="range"):
            GraphSpec(3, frozenset({(1, 4)}))

    @pytest.mark.parametrize("edge", [(1.5, 2), (True, 2), (1, "2"), (None, 2)])
    def test_edge_labels_must_be_integers(self, edge):
        with pytest.raises(ValueError, match="edges"):
            GraphSpec(4, frozenset({edge}))

    @pytest.mark.parametrize("n_nodes", [2.5, True, "4", 0])
    def test_node_count_must_be_a_positive_integer(self, n_nodes):
        with pytest.raises(ValueError, match="n_nodes"):
            GraphSpec(n_nodes, frozenset())

    def test_integral_labels_are_stored_as_ints(self):
        graph = GraphSpec(np.int64(4), frozenset({(2.0, np.int64(1))}))
        assert graph == GraphSpec(4, frozenset({(1, 2)}))
        assert all(type(node) is int for edge in graph.edges for node in (graph.n_nodes, *edge))

    def test_named_graph_shape_enforced(self):
        with pytest.raises(ValueError, match="linear4"):
            GraphSpec(4, frozenset({(1, 2)}), "linear4")

    def test_unknown_name_lookup_rejected(self):
        with pytest.raises(ValueError, match="unknown graph"):
            graph_by_name("pentagon5")


class TestNullifierCoefficients:
    def test_linear_end_node(self):
        c = nullifier_coefficients(linear4(), 1)
        assert np.array_equal(c, [0, -1, 0, 0, 1, 0, 0, 0])

    def test_tshape_center_node(self):
        c = nullifier_coefficients(tshape4(), 1)
        assert np.array_equal(c, [0, -1, -1, -1, 1, 0, 0, 0])

    def test_square_node(self):
        c = nullifier_coefficients(square4(), 3)
        assert np.array_equal(c, [-1, -1, 0, 0, 0, 0, 1, 0])

    def test_bad_node_rejected(self):
        with pytest.raises(ValueError, match="range"):
            nullifier_coefficients(linear4(), 5)


class TestNullifierReport:
    def test_ideal_linear_first_node(self):
        r = 0.55
        report = nullifier_report(cluster_state("linear4", [r] * 4), linear4())
        assert report.variances[0] == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)

    def test_vacuum_inputs_give_reference_levels(self):
        report = nullifier_report(apply_unitary(vacuum(4), NETWORKS["linear4"][0]()), linear4())
        assert report.variances == pytest.approx(VACUUM_RESIDUALS["linear4"], abs=TOL)
        assert report.levels_db == pytest.approx((0.0,) * 4, abs=1e-12)
        assert report.graph.references == (0.5, 0.75, 0.75, 0.5)

    def test_square_levels_equal_input_squeezing(self):
        s = -4.2
        r = squeezing_db_to_r(s)
        report = nullifier_report(cluster_state("square4", [r] * 4), square4())
        assert report.levels_db == pytest.approx((s,) * 4, abs=1e-10)

    def test_analytic_column(self):
        r = (0.2, 0.4, 0.6, 0.8)
        report = nullifier_report(cluster_state("linear4", r), linear4(), squeezing_r=r)
        assert report.analytic_variances == pytest.approx(analytic_residual_variances("linear4", r), rel=1e-12)

    @pytest.mark.parametrize("entry", [nullifier_report, full_inseparability_verdict])
    def test_dimension_mismatch_rejected(self, entry):
        with pytest.raises(ValueError, match="^state has 3 modes but graph has 4 nodes$"):
            entry(vacuum(3), linear4())

    def test_one_variance_per_node(self):
        with pytest.raises(ValueError, match="^2 variances for the 4 nodes of graph 'linear4'$"):
            NullifierReport(graph_by_name("linear4"), (0.1, 0.2))

    def test_one_squeezing_parameter_per_node(self):
        with pytest.raises(ValueError, match="^3 squeezing parameters for the 4 nodes of graph 'tshape4'$"):
            NullifierReport(tshape4(), (0.1,) * 4, (0.5,) * 3)

    def test_numpy_columns_are_kept_as_python_floats(self):
        report = NullifierReport(square4(), np.array([0.1, 0.2, 0.3, 0.4]), np.full(4, 0.7))
        assert report == NullifierReport(square4(), [0.1, 0.2, 0.3, 0.4], (0.7,) * 4)
        assert {type(v) for v in [*report.variances, *report.levels_db, *report.analytic_variances]} == {float}


class TestAnalyticResiduals:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_vacuum_coefficient_sums(self, name):
        values = analytic_residual_variances(name, (0.0, 0.0, 0.0, 0.0))
        assert values == pytest.approx(VACUUM_RESIDUALS[name], abs=1e-15)

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_matches_simulation_on_random_squeezing(self, name):
        # oracle: full covariance propagation vs the closed forms
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = rng.uniform(-0.3, 1.5, 4)
            simulated = nullifier_report(cluster_state(name, r), graph_for(name)).variances
            assert np.max(np.abs(np.array(simulated) - analytic_residual_variances(name, r))) < 1e-10

    @pytest.mark.parametrize("kind", ["ring", "linear"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown network"):
            analytic_residual_variances(kind, (0, 0, 0, 0))

    @pytest.mark.parametrize("r", [(0.1, 0.2), [(0.1, 0.2, 0.3, 0.4)]])
    def test_wrong_shape_rejected(self, r):
        with pytest.raises(ValueError, match="expected 4 squeezing parameters"):
            analytic_residual_variances("linear4", r)


class TestEquivalenceIdentities:
    def test_ideal_states(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            result = equivalence_identities_check(cluster_state("linear4", rng.uniform(-0.3, 1.5, 4)))
            assert result.ok
            assert max(result.residuals) < TOL

    def test_vacuum_sides_hit_reference_values(self):
        state = apply_unitary(vacuum(4), NETWORKS["linear4"][0]())
        result = equivalence_identities_check(state)
        assert result.ok
        # each identity combination has three unit terms on vacuum
        square_state = apply_unitary(vacuum(4), NETWORKS["square4"][0]())
        for a, variance in enumerate(nullifier_report(square_state, square4()).variances, 1):
            assert variance == pytest.approx(0.75, abs=TOL), f"node {a}"

    def test_holds_under_loss(self):
        state = cluster_state("linear4", [0.6] * 4)
        for mode in range(1, 5):
            state = lossy_channel(state, mode, 0.9)
        result = equivalence_identities_check(state)
        assert result.ok
        assert max(result.residuals) < TOL

    def test_wrong_mode_count_rejected(self):
        with pytest.raises(ValueError, match="4-mode"):
            equivalence_identities_check(vacuum(3))


class TestWitnessReport:
    def test_a_graph_without_a_pairing_has_no_witness(self):
        with pytest.raises(UnsupportedGraphError, match="^no witness pairing is defined for graph 'custom'$"):
            WitnessReport(GraphSpec(4, linear4().edges, "custom"), (0.2,))

    def test_one_sum_per_inequality(self):
        with pytest.raises(ValueError, match="^2 sums for the 3 inequalities of graph 'square4'$"):
            WitnessReport(square4(), (0.2, 0.3))

    def test_numpy_sums_are_kept_as_python_floats(self):
        report = WitnessReport(tshape4(), np.array([0.4, 0.5, 1.0]))
        assert report == WitnessReport(tshape4(), [0.4, 0.5, 1.0])
        assert {type(v) for v in report.lhs_values} == {float}
        assert report.fully_inseparable is False

    def test_linear_measured_levels(self):
        refs = (0.5, 0.75, 0.75, 0.5)
        v = [db_to_variance(db, ref) for db, ref in zip((-5.4, -5.8, -5.3, -5.8), refs)]
        report = WitnessReport(linear4(), [v[0] + v[1], v[2] + v[1], v[2] + v[3]])
        assert report.lhs_values == pytest.approx((0.34, 0.42, 0.35), abs=0.01)
        assert report.fully_inseparable

    def test_tshape_measured_levels(self):
        refs = (1.0, 0.5, 0.5, 0.5)
        v = [db_to_variance(db, ref) for db, ref in zip((-6.0, -5.2, -4.9, -5.2), refs)]
        report = WitnessReport(tshape4(), [v[1] + v[0], v[2] + v[0], v[3] + v[0]])
        # one-decimal dB readings reconstruct to ~(0.40, 0.41, 0.40)
        assert report.lhs_values == pytest.approx((0.42, 0.43, 0.42), abs=0.03)
        assert report.lhs_values == pytest.approx((0.402, 0.413, 0.402), abs=0.002)
        assert report.fully_inseparable

    def test_vacuum_variances_fail(self):
        state = apply_unitary(vacuum(4), NETWORKS["linear4"][0]())
        report = full_inseparability_verdict(state, linear4())
        assert report.lhs_values == pytest.approx((1.25, 1.5, 1.25), abs=1e-15)
        assert not report.fully_inseparable
        assert all(lhs >= WITNESS_BOUND for lhs in report.lhs_values)


class TestFullInseparabilityVerdict:
    def test_ideal_linear_six_db(self):
        r = squeezing_db_to_r(-6.0)
        report = full_inseparability_verdict(cluster_state("linear4", [r] * 4), linear4())
        expected = (1.25 * 10 ** -0.6, 1.5 * 10 ** -0.6, 1.25 * 10 ** -0.6)
        assert report.lhs_values == pytest.approx(expected, rel=1e-12)
        assert report.fully_inseparable

    def test_ideal_tshape_six_db(self):
        r = squeezing_db_to_r(-6.0)
        report = full_inseparability_verdict(cluster_state("tshape4", [r] * 4), tshape4())
        assert report.fully_inseparable
        assert report.delegated_to is None

    def test_vacuum_fails(self):
        state = apply_unitary(vacuum(4), NETWORKS["linear4"][0]())
        assert not full_inseparability_verdict(state, linear4()).fully_inseparable

    def test_zero_squeezing_with_loss_fails(self):
        state = apply_unitary(vacuum(4), NETWORKS["linear4"][0]())
        for mode in range(1, 5):
            state = lossy_channel(state, mode, 0.7)
        report = full_inseparability_verdict(state, linear4())
        assert not report.fully_inseparable
        assert all(lhs >= 1.0 for lhs in report.lhs_values)

    def test_square_delegates_to_linear(self):
        r = [0.5, 0.7, 0.9, 1.1]
        square_report = full_inseparability_verdict(cluster_state("square4", r), square4())
        linear_report = full_inseparability_verdict(cluster_state("linear4", r), linear4())
        assert square_report.delegated_to == "linear4"
        assert square_report.graph_name == "square4"
        assert square_report.lhs_values == pytest.approx(linear_report.lhs_values, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_witness_sums_add_pairs_of_the_measured_rows(self, name):
        make_unitary, make_graph = NETWORKS[name]
        state = apply_unitary(impure_squeezed_inputs([-5.5, -6.3, -5.8, -6.0], [9.1, 11.9, 10.5, 11.2]), make_unitary())
        state = phase_jitter(lossy_channel(state, 2, 0.9), 3, 0.05)
        graph = make_graph()
        rows, (first, second) = graph.measured_rows
        variances = combination_variances(state.cov_factor, rows)
        assert variances[:4].tolist() == list(nullifier_report(state, graph).variances)
        lhs = full_inseparability_verdict(state, graph).lhs_values
        assert list(lhs) == (variances[first] + variances[second]).tolist()
        if name == "square4":
            # the linear4 rows pulled back through the local phases measure the state with the phases undone
            linear_state = apply_unitary(state, linear_to_square_phases().adjoint())
            assert variances[4:] == pytest.approx(nullifier_report(linear_state, linear4()).variances, rel=1e-15)

    def test_custom_graph_rejected(self):
        graph = GraphSpec(4, frozenset({(1, 2), (3, 4)}), "custom")
        with pytest.raises(UnsupportedGraphError, match="custom"):
            full_inseparability_verdict(vacuum(4), graph)

    def test_the_graph_a_witness_is_tested_on(self):
        assert [witness_tested_on(g()) for g in (linear4, square4, tshape4)] == ["linear4", "linear4", "tshape4"]
        # a custom graph has no pairing, even with the edges of a built-in one
        assert witness_tested_on(GraphSpec(4, linear4().edges, "custom")) is None

    def test_witness_never_flips_when_variances_shrink(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            v = rng.uniform(0.05, 0.49, 4)
            before = WitnessReport(linear4(), [v[0] + v[1], v[2] + v[1], v[2] + v[3]])
            k = rng.integers(0, 4)
            v[k] *= rng.uniform(0.1, 0.999)
            after = WitnessReport(linear4(), [v[0] + v[1], v[2] + v[1], v[2] + v[3]])
            if before.fully_inseparable:
                assert after.fully_inseparable


class TestNetworkProperties:
    """Structural claims about the three generating networks."""

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_antisqueezing_never_enters_nullifiers(self, name):
        s = (-6.0,) * 4
        variances = []
        for extra in (0.0, 6.0, 12.0):
            state = impure_squeezed_inputs(s, tuple(-v + extra for v in s))
            out = apply_unitary(state, NETWORKS[name][0]())
            variances.append(nullifier_report(out, graph_for(name)).variances)
        for other in variances[1:]:
            assert np.max(np.abs(np.array(other) - np.array(variances[0]))) < TOL

    @pytest.mark.parametrize("name,node,active", [
        ("linear4", 1, (1,)), ("linear4", 2, (3, 4)), ("linear4", 3, (1, 2)), ("linear4", 4, (4,)),
        ("square4", 1, (1, 2)), ("square4", 2, (1, 2)), ("square4", 3, (3, 4)), ("square4", 4, (3, 4)),
        ("tshape4", 1, (2,)), ("tshape4", 2, (1,)), ("tshape4", 3, (1, 3, 4)), ("tshape4", 4, (1, 3, 4)),
    ])
    def test_monotonic_in_participating_squeezing(self, name, node, active):
        base = np.array([0.4, 0.4, 0.4, 0.4])
        v0 = analytic_residual_variances(name, base)[node - 1]
        for k in range(1, 5):
            bumped = base.copy()
            bumped[k - 1] += 0.3
            vk = analytic_residual_variances(name, bumped)[node - 1]
            if k in active:
                assert vk < v0, f"variance of node {node} should decrease in r_{k}"
            else:
                assert vk == pytest.approx(v0, abs=1e-15), f"node {node} should ignore r_{k}"

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_strong_squeezing_limit(self, name):
        r = squeezing_db_to_r(-60.0)
        report = nullifier_report(cluster_state(name, [r] * 4), graph_for(name))
        assert report.levels_db == pytest.approx((-60.0,) * 4, abs=1e-6)


class TestDbToVariance:
    """The helper the witness tests build their variances with."""

    def test_inverts_variance_to_db(self):
        assert db_to_variance(-5.4, 0.5) == pytest.approx(0.5 * 10 ** -0.54, abs=1e-15)
        assert variance_to_db(db_to_variance(-5.4, 0.5), 0.5) == pytest.approx(-5.4, abs=1e-12)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            db_to_variance(-3.0, 0.0)
