"""Stacked propagation: a sweep sends all its grid points through each stage at once.

The stacked factors must equal, bit for bit, what the chained state
functions give each point alone; points are stacked only with points of the
same column layout, and a pass holds at most `STACK_BYTES` of final factors.
"""

import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import pytest

from cvcluster import scenarios
from cvcluster.gaussian import apply_unitary, impure_squeezed_inputs, lossy_channels, phase_jitters
from cvcluster.networks import emit_netlist, linear_program
from cvcluster.scenarios import SWEEP_AXES, STACK_BYTES, ScenarioConfig, load_config, run_scenario, run_sweep

MEASURED_GAP = str(Path(__file__).resolve().parent.parent / "configs" / "measured_gap.json")
LINEAR_EDGES = ((1, 2), (2, 3), (3, 4))

# transmissivities and sigmas, with the ends that change a point's column layout
ETA = st.just(1.0) | st.floats(0.0, 1.0)
SIGMA = st.just(0.0) | st.floats(0.0, 0.5)


@pytest.fixture(scope="module")
def linear_netlist(tmp_path_factory):
    path = tmp_path_factory.mktemp("netlist") / "linear.net"
    path.write_text(emit_netlist(linear_program()))
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
    """An accepted base config, and a sweep of up to 40 accepted points along one axis."""
    network = draw(st.sampled_from(["linear4", "square4", "tshape4", netlist]))
    squeezing = draw(st.lists(st.floats(-12.0, 0.0), min_size=4, max_size=4))
    excess = draw(st.lists(st.none() | st.floats(0.0, 10.0), min_size=4, max_size=4))
    antisqueezing = [0.0 - s if e is None else e - s for s, e in zip(squeezing, excess)]
    cfg = ScenarioConfig(
        network,
        squeezing_db=squeezing,
        antisqueezing_db=antisqueezing,
        loss=draw(st.lists(ETA, min_size=4, max_size=4)),
        loss_placement=draw(st.sampled_from(["pre", "post"])),
        jitter=draw(st.lists(SIGMA, min_size=4, max_size=4)),
        graph_edges=LINEAR_EDGES if network == netlist else None,
    )
    axis = draw(st.sampled_from(SWEEP_AXES))
    impure = [a for s, a in zip(squeezing, antisqueezing) if a != -s]
    value = {
        "loss": ETA,
        "jitter": SIGMA,
        "squeezing_db": st.floats(max([-12.0] + [-a for a in impure]), 0.0),
        "antisqueezing_db": st.floats(max(-s for s in squeezing), 20.0),
    }[axis]
    return cfg, axis, draw(value), draw(value), draw(st.integers(1, 40))


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
        factors = dict(scenarios._propagate(points, network[0]))
        result = run_sweep(cfg, axis, start, stop, steps)
    assert sorted(factors) == list(range(steps))
    for i, point in enumerate(points):
        assert np.array_equal(factors[i], chained(point, network[0])), i
    assert [r.to_json() for r in result.reports] == [run_scenario(point).to_json() for point in points]


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
    # a pass holds its stage's input and output stacks, and the last factor of the pass before it
    assert peak < 4 * STACK_BYTES, peak
