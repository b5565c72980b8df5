"""Stacked propagation and measurement: a sweep sends all its grid points through each stage at once.

The stacked factors, and the variances, witness sums and analytic column
measured on them, must equal, bit for bit, what the state functions and the
analysis give each point alone; points are stacked only with points of the
same column layout, and a pass holds at most `STACK_BYTES` of final factors.
"""

import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import pytest

from cvcluster import scenarios
from cvcluster.analysis import (
    NAMED_GRAPH_EDGES,
    analytic_residual_variances,
    full_inseparability_verdict,
    nullifier_report,
    nullifier_variances,
    witness_sums,
    witness_tested_on,
)
from cvcluster.gaussian import (
    ARRAY_FORM_MIN_POINTS,
    LEVEL_LIMIT_DB,
    GaussianState,
    apply_unitary,
    impure_squeezed_inputs,
    jitter_factors,
    lossy_channels,
    phase_jitters,
)
from cvcluster.networks import emit_netlist, linear_program
from cvcluster.scenarios import SWEEP_AXES, STACK_BYTES, ScenarioConfig, load_config, run_scenario, run_sweep

MEASURED_GAP = str(Path(__file__).resolve().parent.parent / "configs" / "measured_gap.json")
LINEAR_EDGES = ((1, 2), (2, 3), (3, 4))

# transmissivities and sigmas, with the ends that change a point's column layout
ETA = st.just(1.0) | st.floats(0.0, 1.0)
SIGMA = st.just(0.0) | st.floats(0.0, 0.5)
# sigmas from the largest decade of floats down to the one from which the square overflows, about 1.34e154
HUGE_SIGMAS = [1e308, 1e155, 1e154]
# the same, with the edges where the channels cancel: all loss, loss of 1e-9, sigma 1e-8, sigma whose square
# underflows to 0 (a zero noise factor), large sigma and sigma whose square overflows
EDGE_ETA = ETA | st.sampled_from([0.0, 1.0 - 1e-9])
EDGE_SIGMA = SIGMA | st.sampled_from([1e-8, 1e-200, *HUGE_SIGMAS]) | st.floats(0.0, 10.0)


@pytest.fixture(scope="module")
def linear_netlist(tmp_path_factory):
    path = tmp_path_factory.mktemp("netlist") / "linear.net"
    path.write_text(emit_netlist(linear_program()))
    return str(path)


WIDE_MODES = 8
WIDE_PAIRS = [(a, b) for a in range(1, WIDE_MODES + 1) for b in range(a + 1, WIDE_MODES + 1)]


@pytest.fixture(scope="module")
def wide_netlist(tmp_path_factory):
    """An 8-mode netlist that couples every mode: beam splitters between neighbours and next neighbours."""
    n = WIDE_MODES
    lines = [f"MODES {n}", *(f"BS+ {a} {a + 1} 0.6" for a in range(1, n)), *(f"F {a}" for a in range(1, n + 1)),
             *(f"BS- {a} {a + 2} 0.3" for a in range(1, n - 1))]
    path = tmp_path_factory.mktemp("netlist") / "wide.net"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def chained(point: ScenarioConfig, unitary) -> np.ndarray:
    """The point's final factor from the public state functions, one stage after the other."""
    state = impure_squeezed_inputs(point.squeezing_db, point.antisqueezing_db)
    losses = {mode: eta for mode, eta in enumerate(point.loss, start=1) if eta < 1.0}
    if point.loss_placement == "pre":
        state = lossy_channels(state, losses)
    state = apply_unitary(state, unitary)
    if point.loss_placement == "post":
        state = lossy_channels(state, losses)
    return phase_jitters(state, dict(enumerate(point.jitter, start=1))).cov_factor


@st.composite
def sweeps(draw, netlist):
    """An accepted base config with levels down to -LEVEL_LIMIT_DB, and a sweep of up to 40 points along one axis.

    Grids longer than ARRAY_FORM_MIN_POINTS take the kernels' array form, and
    shorter ones, or a pass of one point, their scalar form.
    """
    network = draw(st.sampled_from(["linear4", "square4", "tshape4", netlist]))
    level = st.floats(-12.0, 0.0) | st.floats(-LEVEL_LIMIT_DB, 0.0) | st.just(-LEVEL_LIMIT_DB)
    squeezing = draw(st.lists(level, min_size=4, max_size=4))
    excess = draw(st.lists(st.none() | st.floats(0.0, 10.0), min_size=4, max_size=4))
    antisqueezing = [0.0 - s if e is None else min(e - s, LEVEL_LIMIT_DB) for s, e in zip(squeezing, excess)]
    cfg = ScenarioConfig(
        network,
        squeezing_db=squeezing,
        antisqueezing_db=antisqueezing,
        loss=draw(st.lists(EDGE_ETA, min_size=4, max_size=4)),
        loss_placement=draw(st.sampled_from(["pre", "post"])),
        jitter=draw(st.lists(EDGE_SIGMA, min_size=4, max_size=4)),
        graph_edges=LINEAR_EDGES if network == netlist else None,
    )
    axis = draw(st.sampled_from(SWEEP_AXES))
    impure = [a for s, a in zip(squeezing, antisqueezing) if a != -s]
    lowest = max(-s for s in squeezing)
    value = {
        "loss": EDGE_ETA,
        "jitter": EDGE_SIGMA,
        "squeezing_db": st.floats(max([-LEVEL_LIMIT_DB] + [-a for a in impure]), 0.0),
        "antisqueezing_db": st.floats(lowest, max(lowest, 20.0)) | st.floats(lowest, LEVEL_LIMIT_DB),
    }[axis]
    return cfg, axis, draw(value), draw(value), draw(st.integers(1, max(40, 4 * ARRAY_FORM_MIN_POINTS)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_stacked_factors_equal_the_chained_state_functions(data, linear_netlist):
    cfg, axis, start, stop, steps = data.draw(sweeps(linear_netlist))
    # a budget of a few points per pass as well, so that groups split into several passes
    budget = data.draw(st.sampled_from([STACK_BYTES, 1, 3 * 8 * 8 * 24]), label="budget")
    points = [cfg._sweep_point(axis, float(v)) for v in np.linspace(start, stop, steps)]
    network = scenarios._resolve_network(cfg)
    with mock.patch.object(scenarios, "STACK_BYTES", budget):
        factors = {i: f for indices, stack in scenarios._propagate(points, network[0]) for i, f in zip(indices, stack)}
        result = run_sweep(cfg, axis, start, stop, steps)
    assert sorted(factors) == list(range(steps))
    for i, point in enumerate(points):
        alone = chained(point, network[0])  # the scalar forms: each state function is a stack of one
        assert factors[i].shape == alone.shape and factors[i].tobytes() == alone.tobytes(), i
    assert [r.to_json() for r in result.reports] == [run_scenario(point).to_json() for point in points]


def test_the_jitter_array_form_clips_as_the_scalar_form():
    # the built-in networks leave each output mode's x and p uncorrelated, and the noise Cholesky then has
    # nothing to clip; a rotated deep-squeezed mode makes it clip, its noise being singular to rounding
    k = 64
    stack = np.zeros((k, 4, 4))
    for i, phi in enumerate(np.linspace(0.0, np.pi, k)):
        for mode, level in ((0, LEVEL_LIMIT_DB), (1, 30.0)):
            rotation = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            amplitudes = np.sqrt(0.25 * 10.0 ** (np.array([level, -level]) / 10.0))
            stack[i][np.ix_([mode, 2 + mode], [2 * mode, 2 * mode + 1])] = rotation * amplitudes
    sigmas = {1: 1e-8, 2: 3.0}
    stacked = jitter_factors(stack, (1, 2), [list(sigmas.values())] * k)
    for i in range(k):
        alone = phase_jitters(GaussianState(cov_factor=stack[i]), sigmas).cov_factor
        assert stacked[i].tobytes() == alone.tobytes(), i
    clipped = stacked[:, 2, 5] == 0.0  # mode 1's lpp
    assert clipped.any() and not clipped.all()


@pytest.mark.parametrize("sigma", HUGE_SIGMAS)
def test_a_stacked_pass_at_huge_sigma_equals_the_stack_of_one(sigma):
    # past about 1.34e154 sigma^2 is inf: the moments take their limits, and no product may overflow on the stack
    unitary = scenarios._resolve_network(ScenarioConfig("linear4"))[0]
    state = apply_unitary(impure_squeezed_inputs([-5.5, -6.3, -5.8, -6.0], [9.1, 11.9, 10.5, 11.2]), unitary)
    rows = [[sigma, 0.01 + 0.03 * i, sigma, 1e-8] for i in range(ARRAY_FORM_MIN_POINTS)]
    stacked = jitter_factors(np.repeat(state.cov_factor[None], len(rows), axis=0), (1, 2, 3, 4), rows)
    for i, row in enumerate(rows):
        alone = phase_jitters(state, dict(enumerate(row, start=1))).cov_factor
        assert stacked[i].tobytes() == alone.tobytes(), i


# Each channel edge that a pass of ARRAY_FORM_MIN_POINTS points, the kernels' array form, must carry as the
# stack of one does: the deepest and the zero level, all loss, loss of 1e-9 and none, and sigma whose square
# underflows, tiny and large sigma, and sigma at, past and far past the overflow of its square.
ARRAY_FORM_EDGES = [
    ("squeezing_db", -LEVEL_LIMIT_DB), ("squeezing_db", 0.0),
    ("loss", 0.0), ("loss", 1.0 - 1e-9), ("loss", 1.0),
    *(("jitter", sigma) for sigma in (1e-200, 1e-8, 10.0, 1e154, 1e155, 1e308)),
]


@pytest.mark.parametrize("placement", ["pre", "post"])
@pytest.mark.parametrize("network", ["linear4", "square4", "tshape4", "netlist"])
@pytest.mark.parametrize("field, value", ARRAY_FORM_EDGES, ids=[f"{f}={v!r}" for f, v in ARRAY_FORM_EDGES])
def test_an_array_form_pass_at_each_channel_edge_equals_the_stack_of_one(field, value, network, placement,
                                                                        linear_netlist):
    # the edge value on modes 1 and 3 of every point, and the points of the pass apart in another channel
    varied = "loss" if field == "jitter" else "jitter"
    points = []
    for i in range(ARRAY_FORM_MIN_POINTS):
        fields = {"squeezing_db": [-5.5, -6.3, -5.8, -6.0], "antisqueezing_db": [9.1, 11.9, 10.5, 11.2],
                  "loss": [0.9, 0.95, 0.92, 0.97], "jitter": [0.03, 0.01, 0.02, 0.05]}
        fields[varied] = [v * (1.0 - 0.05 * i) for v in fields[varied]]
        for mode in (0, 2):
            fields[field][mode] = value
            if field == "squeezing_db":
                fields["antisqueezing_db"][mode] = 0.0 - value  # pure
        points.append(ScenarioConfig(linear_netlist if network == "netlist" else network, loss_placement=placement,
                                     graph_edges=LINEAR_EDGES if network == "netlist" else None, **fields))
    unitary, graph = scenarios._resolve_network(points[0])
    [(indices, stack)] = scenarios._propagate(points, unitary)
    assert indices == list(range(ARRAY_FORM_MIN_POINTS))
    rows = scenarios._measure(points, stack, graph)
    for i, point in enumerate(points):
        alone = scenarios._stack([point], scenarios._layout(point), unitary)
        assert stack[i].tobytes() == alone[0].tobytes(), i
        assert rows[i] == scenarios._measure([point], alone, graph)[0], i


def test_a_sweep_stacks_the_points_of_each_layout_in_one_pass(monkeypatch):
    # eta 1 on every mode is the lossless layout; the other 20 points all lose on every mode
    passes = []

    def counting(squeezing_db, antisqueezing_db):
        passes.append(len(squeezing_db))
        return original(squeezing_db, antisqueezing_db)

    original = scenarios.input_factors
    monkeypatch.setattr(scenarios, "input_factors", counting)
    result = run_sweep(load_config(MEASURED_GAP), "loss", 1.0, 0.5, 21)
    assert passes == [1, 20]
    assert len(result.reports) == 21


def test_a_pass_holds_at_most_the_byte_budget(tmp_path):
    n = 64
    beam_splitters = [f"BS+ {a} {a + 1} 0.7071067811865475" for a in range(1, n)]
    path = tmp_path / "wide.net"
    path.write_text("\n".join([f"MODES {n}", *beam_splitters, *(f"F {a}" for a in range(1, n + 1))]) + "\n")
    cfg = ScenarioConfig(str(path), squeezing_db=[-6.0] * n, loss=0.9, jitter=0.03,
                         graph_edges=[(a, a + 1) for a in range(1, n)])
    point_bytes = 8 * (2 * n) * (3 * 2 * n)  # every mode lossy and jittered: 2n rows, 6n columns
    steps = 6 * STACK_BYTES // point_bytes
    assert steps * point_bytes > 5 * STACK_BYTES
    run_sweep(cfg, "loss", 0.9, 0.5, 2)  # the first run builds the network, which later runs share
    tracemalloc.start()
    try:
        result = run_sweep(cfg, "loss", 0.9, 0.5, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.reports) == steps
    # a pass holds its stage's input and output stacks; the pass before it was dropped once measured
    assert peak < 2.25 * STACK_BYTES, peak


@st.composite
def measured_sweeps(draw, netlist):
    """A base config on a built-in network or the 8-mode netlist, and a sweep."""
    network = draw(st.sampled_from(["linear4", "square4", "tshape4", netlist]))
    wide = network == netlist
    n = WIDE_MODES if wide else 4
    squeezing = draw(st.lists(st.floats(-40.0, 0.0), min_size=n, max_size=n))
    cfg = ScenarioConfig(
        network,
        squeezing_db=squeezing,
        antisqueezing_db=[e - s for s, e in zip(squeezing, draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))],
        loss=draw(st.lists(ETA, min_size=n, max_size=n)),
        loss_placement=draw(st.sampled_from(["pre", "post"])),
        jitter=draw(st.lists(SIGMA, min_size=n, max_size=n)),
        # the complete graph gives every nullifier 8 terms
        graph_edges=draw(st.just(WIDE_PAIRS) | st.lists(st.sampled_from(WIDE_PAIRS), min_size=1, unique=True))
        if wide else None,
    )
    axis = draw(st.sampled_from(["loss", "jitter"]))
    value = ETA if axis == "loss" else SIGMA
    return cfg, axis, draw(value), draw(value), draw(st.integers(1, 40))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_pass_measures_each_point_as_the_analysis_does_alone(data, wide_netlist):
    cfg, axis, start, stop, steps = data.draw(measured_sweeps(wide_netlist))
    budget = data.draw(st.sampled_from([STACK_BYTES, 1, 3 * 8 * 16 * 48]), label="budget")
    points = [cfg._sweep_point(axis, float(v)) for v in np.linspace(start, stop, steps)]
    unitary, graph = scenarios._resolve_network(cfg)
    witness = witness_tested_on(graph) is not None
    with mock.patch.object(scenarios, "STACK_BYTES", budget):
        passes = list(scenarios._propagate(points, unitary))
    assert sorted(i for indices, _ in passes for i in indices) == list(range(steps))
    for indices, stack in passes:
        members = [points[i] for i in indices]
        variances = nullifier_variances(stack, graph)
        lhs = witness_sums(stack, graph, variances) if witness else None
        built_in = graph.name in NAMED_GRAPH_EDGES
        analytic = analytic_residual_variances(graph.name, [p.squeezing_r for p in members]) if built_in else None
        rows = scenarios._measure(members, stack, graph)
        for j, (point, factor) in enumerate(zip(members, stack)):
            state = GaussianState(cov_factor=factor)
            alone = nullifier_report(state, graph, point.squeezing_r)
            assert variances[j].tolist() == list(alone.variances)
            # the sum of squares of F^T c, one combination at a time, as the analysis has always evaluated it
            assert variances[j].tolist() == [float((factor.T @ c) @ (factor.T @ c)) for c in graph.coefficients]
            if witness:
                assert lhs[j].tolist() == list(full_inseparability_verdict(state, graph).lhs_values)
            if built_in:
                assert analytic[j].tolist() == analytic_residual_variances(graph.name, point.squeezing_r).tolist()
                assert analytic[j].tolist() == [e.analytic_variance for e in alone.entries]
            expected = (variances[j].tolist(), None if lhs is None else lhs[j].tolist(),
                        None if analytic is None else analytic[j].tolist())
            assert rows[j] == expected
