"""Input-frame measurement: every point of a scenario or a sweep is measured from its config alone.

A sweep measures its points in passes of consecutive points, each holding at
most `STACK_BYTES` of the kernel's arrays.  A point must report, byte for
byte, what `run_scenario` reports for it alone, in its JSON report and its
CSV row, whatever pass it is in; its variances must agree with the forward
state functions (inputs, channels, network, then the analysis of the final
factor) at shallow levels, where the forward factor loses little to
cancellation; and the pulled-back nullifiers of the paper's networks must
hold no antisqueezed input quadrature.
"""

import tracemalloc
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
)
from cvcluster.gaussian import (
    LEVEL_LIMIT_DB,
    GaussianState,
    apply_unitary,
    impure_squeezed_inputs,
    lossy_channels,
    phase_jitters,
)
from cvcluster.networks import emit_netlist, linear_program
from cvcluster.scenarios import SWEEP_AXES, STACK_BYTES, ScenarioConfig, run_scenario, run_sweep

LINEAR_EDGES = ((1, 2), (2, 3), (3, 4))

# transmissivities and sigmas, with their ends
ETA = st.just(1.0) | st.floats(0.0, 1.0)
SIGMA = st.just(0.0) | st.floats(0.0, 0.5)
# sigmas from the largest decade of floats down to the one from which the square overflows, about 1.34e154
HUGE_SIGMAS = [1e308, 1e155, 1e154]
# the same, with the edges where the channels cancel: all loss, loss of 1e-9, sigma 1e-8, sigma whose square
# underflows to 0, large sigma and sigma whose square overflows
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


def chained(point: ScenarioConfig, unitary) -> GaussianState:
    """The point's final state from the public state functions, one stage after the other."""
    state = impure_squeezed_inputs(point.squeezing_db, point.antisqueezing_db)
    losses = {mode: eta for mode, eta in enumerate(point.loss, start=1) if eta < 1.0}
    if point.loss_placement == "pre":
        state = lossy_channels(state, losses)
    state = apply_unitary(state, unitary)
    if point.loss_placement == "post":
        state = lossy_channels(state, losses)
    return phase_jitters(state, dict(enumerate(point.jitter, start=1)))


@st.composite
def sweeps(draw, netlist):
    """An accepted base config with levels down to -LEVEL_LIMIT_DB, and a sweep of up to 40 points along one axis."""
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
    return cfg, axis, draw(value), draw(value), draw(st.integers(1, 40))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_sweep_point_reports_what_the_scenario_reports_alone(data, linear_netlist):
    cfg, axis, start, stop, steps = data.draw(sweeps(linear_netlist))
    # budgets of one and of three points per pass as well, so that a sweep splits into passes
    frame = scenarios._frame(*scenarios._resolve_network(cfg))
    budget = data.draw(st.sampled_from([STACK_BYTES, 1, 3 * frame.point_bytes]), label="budget")
    with mock.patch.object(scenarios, "STACK_BYTES", budget):
        result = run_sweep(cfg, axis, start, stop, steps)
    points = [cfg._sweep_point(axis, value) for value in result.values]
    alone = [run_scenario(point) for point in points]
    assert [r.to_json() for r in result.reports] == [r.to_json() for r in alone]
    # the CSV is written from the measurements; its rows hold what each report alone holds
    header, *rows = result.to_csv().splitlines()
    assert rows == [csv_row(axis, value, report.to_dict()) for value, report in zip(result.values, alone)]
    assert all(row.count(",") == header.count(",") for row in rows)


def csv_row(axis: str, value: float, report: dict) -> str:
    """A sweep's CSV row for a report's `to_dict`: blank witness cells when it has no witness."""
    nodes, witness = report["nullifiers"]["nodes"], report["witness"]
    cells = [axis, repr(value), *(repr(n["variance"]) for n in nodes), *(repr(n["level_db"]) for n in nodes)]
    if witness is None:
        cells += [""] * 4
    else:
        cells += [repr(i["lhs"]) for i in witness["inequalities"]]
        cells.append("true" if witness["fully_inseparable"] else "false")
    return ",".join(cells)


@st.composite
def shallow_sweeps(draw, netlist):
    """A base config at shallow levels on a built-in network or the 8-mode netlist, and a sweep."""
    network = draw(st.sampled_from(["linear4", "square4", "tshape4", netlist]))
    wide = network == netlist
    n = WIDE_MODES if wide else 4
    squeezing = draw(st.lists(st.floats(-15.0, 0.0), min_size=n, max_size=n))
    excess = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    cfg = ScenarioConfig(
        network,
        squeezing_db=squeezing,
        antisqueezing_db=[e - s for s, e in zip(squeezing, excess)],
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
def test_the_frame_agrees_with_the_forward_state_functions_at_shallow_levels(data, wide_netlist):
    cfg, axis, start, stop, steps = data.draw(shallow_sweeps(wide_netlist))
    unitary, graph = network = scenarios._resolve_network(cfg)
    points = [cfg._sweep_point(axis, float(v)) for v in np.linspace(start, stop, steps)]
    built_in = graph.name in NAMED_GRAPH_EDGES
    for point, row in zip(points, scenarios._measure(points, network)):
        variances, lhs = row
        state = chained(point, unitary)
        np.testing.assert_allclose(variances, nullifier_report(state, graph).variances, rtol=4e-15, atol=0.0)
        analytic = [e.analytic_variance for e in run_scenario(point, network, row).nullifiers.entries]
        if built_in:
            np.testing.assert_allclose(lhs, full_inseparability_verdict(state, graph).lhs_values, rtol=4e-15, atol=0.0)
            assert analytic == analytic_residual_variances(graph.name, point.squeezing_r).tolist()
        else:
            assert lhs is None and analytic == [None] * WIDE_MODES


# Each channel edge a pass must carry as a point alone: the deepest and the zero level, all loss, loss of 1e-9 and
# none, and sigma whose square underflows, tiny and large sigma, and sigma at, past and far past the overflow of
# its square.
CHANNEL_EDGES = [
    ("squeezing_db", -LEVEL_LIMIT_DB), ("squeezing_db", 0.0),
    ("loss", 0.0), ("loss", 1.0 - 1e-9), ("loss", 1.0),
    *(("jitter", sigma) for sigma in (1e-200, 1e-8, 10.0, 1e154, 1e155, 1e308)),
]


@pytest.mark.parametrize("placement", ["pre", "post"])
@pytest.mark.parametrize("network", ["linear4", "square4", "tshape4", "netlist"])
@pytest.mark.parametrize("field, value", CHANNEL_EDGES, ids=[f"{f}={v!r}" for f, v in CHANNEL_EDGES])
def test_a_pass_at_each_channel_edge_measures_each_point_as_alone(field, value, network, placement,
                                                                  linear_netlist):
    # the edge value on modes 1 and 3 of every point, and the points of the pass apart in another channel
    varied = "loss" if field == "jitter" else "jitter"
    points = []
    for i in range(5):
        fields = {"squeezing_db": [-5.5, -6.3, -5.8, -6.0], "antisqueezing_db": [9.1, 11.9, 10.5, 11.2],
                  "loss": [0.9, 0.95, 0.92, 0.97], "jitter": [0.03, 0.01, 0.02, 0.05]}
        fields[varied] = [v * (1.0 - 0.05 * i) for v in fields[varied]]
        for mode in (0, 2):
            fields[field][mode] = value
            if field == "squeezing_db":
                fields["antisqueezing_db"][mode] = 0.0 - value  # pure
        points.append(ScenarioConfig(linear_netlist if network == "netlist" else network, loss_placement=placement,
                                     graph_edges=LINEAR_EDGES if network == "netlist" else None, **fields))
    network = scenarios._resolve_network(points[0])
    rows = scenarios._measure(points, network)
    for i, point in enumerate(points):
        assert rows[i] == scenarios._measure([point], network)[0], i
        assert all(v > 0.0 for v in rows[i][0]), i


def test_a_pass_holds_at_most_the_byte_budget(tmp_path):
    n = 64
    beam_splitters = [f"BS+ {a} {a + 1} 0.7071067811865475" for a in range(1, n)]
    path = tmp_path / "wide.net"
    path.write_text("\n".join([f"MODES {n}", *beam_splitters, *(f"F {a}" for a in range(1, n + 1))]) + "\n")
    cfg = ScenarioConfig(str(path), squeezing_db=[-6.0] * n, loss=0.9, jitter=0.03,
                         graph_edges=[(a, a + 1) for a in range(1, n)])
    run_sweep(cfg, "loss", 0.9, 0.5, 2)  # the first run builds the network and its frame, which later runs share
    point_bytes = scenarios._frame(*scenarios._resolve_network(cfg)).point_bytes
    steps = 6 * STACK_BYTES // point_bytes
    assert steps * point_bytes > 5 * STACK_BYTES
    tracemalloc.start()
    try:
        result = run_sweep(cfg, "loss", 0.9, 0.5, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.reports) == steps
    # a pass's arrays are dropped once it is measured, before the next pass
    assert peak < 1.5 * STACK_BYTES, peak


# The squared weights of each node's pulled-back nullifier on the squeezed inputs p_1 .. p_4, from
# `analytic_residual_variances`; square4 adds the linear4 nullifiers it is tested on.
SQUEEZED_WEIGHTS = {
    "linear4": [[2, 0, 0, 0], [0, 0, 2.5, 0.5], [0.5, 2.5, 0, 0], [0, 0, 0, 2]],
    "square4": [[0.5, 2.5, 0, 0]] * 2 + [[0, 0, 2.5, 0.5]] * 2
    + [[2, 0, 0, 0], [0, 0, 2.5, 0.5], [0.5, 2.5, 0, 0], [0, 0, 0, 2]],
    "tshape4": [[0, 4, 0, 0], [2, 0, 0, 0], [0.5, 0, 1, 0.5], [0.5, 0, 1, 0.5]],
}


def pulled_back(cfg: ScenarioConfig) -> np.ndarray:
    """The (R, 8) rows S^T c of the config's frame: weights on the inputs x_1 .. x_4, then p_1 .. p_4."""
    frame = scenarios._frame(*scenarios._resolve_network(cfg))
    return frame.terms[frame.term_starts]


@pytest.mark.parametrize("network", sorted(SQUEEZED_WEIGHTS))
def test_the_nullifiers_hold_no_antisqueezed_input(network):
    # the abstract's claim: no antisqueezing components are left in the cluster states
    rows = pulled_back(ScenarioConfig(network))
    assert (rows[:, :4] == 0.0).all()
    # the float64 network entries are rounded, so the squares are the closed-form weights to within 2 ulp
    np.testing.assert_allclose(rows[:, 4:] ** 2, SQUEEZED_WEIGHTS[network], rtol=5e-16, atol=0.0)


def test_the_linear_netlist_leaks_at_the_rounding_of_its_factors(linear_netlist):
    leak = np.abs(pulled_back(ScenarioConfig(linear_netlist, graph_edges=LINEAR_EDGES))[:, :4])
    assert 0.0 < leak.max() <= 1.2e-16
