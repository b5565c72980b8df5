"""Metamorphic relation: each nullifier variance is affine in a uniform transmissivity.

Loss eta on every mode maps the covariance to eta cov + (1 - eta) I/4, and
it does so before the network as after it: a passive network and a phase
rotation leave the vacuum covariance I/4 unchanged.  So node a's variance is

    V(eta) = eta V(1) + (1 - eta) ref_a,

with ref_a = (1 + |N(a)|)/4 its vacuum reference, whatever the levels,
placement and jitter.  The relation needs no high-precision reference.  A
loss sweep sets eta on every mode, and each of its points is checked
against the lossless scenario.  The search is derandomized and keeps no
example database.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from cvcluster.gaussian import LEVEL_LIMIT_DB
from cvcluster.networks import emit_netlist, linear_program
from cvcluster.scenarios import ScenarioConfig, run_scenario, run_sweep

# Worst relative deviation measured over 2000 random configs of the space drawn
# below, every point of a 12-point sweep checked: 7.0e-16 (levels to -20 dB
# with jitter up to 10 rad), 6.4e-16 (levels to -3000 dB, the netlist and
# jitter).  An earlier measurement of the shallow space gave 1.4e-15, so the
# bound stays at about three times that.
TOLERANCE = 4e-15

SHALLOW = st.floats(-20.0, 0.0)
SIGMA = st.just(0.0) | st.just(1e-8) | st.floats(0.0, 0.5) | st.floats(0.0, 10.0)


@pytest.fixture(scope="module")
def netlist(tmp_path_factory):
    path = tmp_path_factory.mktemp("netlist") / "linear.net"
    path.write_text(emit_netlist(linear_program()))
    return str(path)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_each_variance_is_affine_in_a_uniform_transmissivity(data, netlist):
    network = data.draw(st.sampled_from(["linear4", "square4", "tshape4", netlist]))
    level = SHALLOW | st.floats(-LEVEL_LIMIT_DB, 0.0) if data.draw(st.booleans(), label="deep") else SHALLOW
    squeezing = data.draw(st.lists(level, min_size=4, max_size=4))
    excess = data.draw(st.lists(st.none() | st.floats(0.0, 10.0), min_size=4, max_size=4))
    cfg = ScenarioConfig(
        network,
        squeezing_db=squeezing,
        antisqueezing_db=[0.0 - s if e is None else min(e - s, LEVEL_LIMIT_DB) for s, e in zip(squeezing, excess)],
        loss_placement=data.draw(st.sampled_from(["pre", "post"])),
        jitter=data.draw(st.lists(SIGMA, min_size=4, max_size=4)),
        graph_edges=((1, 2), (2, 3), (3, 4)) if network == netlist else None,
    )
    lossless = run_scenario(cfg).nullifiers
    steps = data.draw(st.sampled_from([1, 4, 12]), label="steps")
    sweep = run_sweep(cfg, "loss", data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0)), steps)
    for eta, report in zip(sweep.values, sweep.reports):
        columns = zip(lossless.variances, report.nullifiers.variances, lossless.graph.references)
        for node, (at_one, variance, reference) in enumerate(columns, start=1):
            expected = eta * at_one + (1.0 - eta) * reference
            assert abs(variance - expected) <= TOLERANCE * expected, (eta, node, variance, expected)
