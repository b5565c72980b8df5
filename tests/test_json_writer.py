"""JSON reports: `ScenarioReport.to_json` against `json.dumps`.

`to_json` fills the values of a report into the template of its shape, and
its bytes must be those of `json.dumps(report.to_dict(), sort_keys=True,
indent=2)` plus a newline.  The drawn reports cover every shape a run
gives: the three built-in networks, netlists without a graph and with a
linear or a star graph, a 1-mode and an 8-mode netlist, decomposition checks
on and off; and the extremes of each per-mode field.  The searches are
derandomized and keep no example database.  Hand-built reports check the
fallback to `json.dumps` for what the template cannot write, and the
template cache is checked against its bound.
"""

import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import pytest

from cvcluster import scenarios
from cvcluster.analysis import NullifierReport, WitnessReport, graph_by_name
from cvcluster.networks import NETWORK_CACHE_SIZE, emit_netlist, linear_program
from cvcluster.scenarios import (
    DecompositionCheck,
    DecompositionReport,
    ScenarioConfig,
    ScenarioReport,
    run_scenario,
)

CHAIN8 = tuple((k, k + 1) for k in range(1, 8))
# kind -> (netlist, graph_edges); a netlist of None is the built-in network of that name
KINDS = {
    "linear4": (None, None), "square4": (None, None), "tshape4": (None, None),
    "netlist": ("linear4", None),
    "netlist, linear graph": ("linear4", ((1, 2), (2, 3), (3, 4))),
    "netlist, star graph": ("linear4", ((1, 2), (1, 3), (1, 4))),
    "1-mode netlist": ("one", ()),
    "8-mode netlist, chain graph": ("eight", CHAIN8),
}


@pytest.fixture(scope="module")
def netlists(tmp_path_factory):
    """Netlist files by name; the 4-mode linear network's name is not ASCII."""
    folder = tmp_path_factory.mktemp("netlists")
    texts = {
        "linear4": ("réseau linéaire ñ.net", emit_netlist(linear_program())),
        "one": ("one.net", "MODES 1\nF 1\n"),
        "eight": ("eight.net", "MODES 8\n" + "".join(f"F {k}\nBS+ {k} {k + 1} 0.6\n" for k in range(1, 8))),
    }
    paths = {}
    for name, (filename, text) in texts.items():
        (folder / filename).write_text(text)
        paths[name] = str(folder / filename)
    return paths


def network_of(kind, netlists):
    netlist, edges = KINDS[kind]
    return (kind if netlist is None else netlists[netlist]), edges


def n_modes_of(kind):
    return {"1-mode netlist": 1, "8-mode netlist, chain graph": 8}.get(kind, 4)


@st.composite
def accepted_config(draw, network, graph_edges, n):
    """An accepted config on `network`, the extremes of each per-mode field drawn often."""
    def per_mode(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    squeezing = per_mode(st.sampled_from([-3000.0, 0.0]) | st.floats(-3000.0, 0.0))
    return ScenarioConfig(
        network=network,
        squeezing_db=squeezing,
        antisqueezing_db=[min(0.0 - s + draw(st.floats(0.0, 10.0)), 3000.0) for s in squeezing],
        loss=per_mode(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        loss_placement=draw(st.sampled_from(["pre", "post"])),
        jitter=per_mode(st.sampled_from([0.0, 1e-8, 1e308]) | st.floats(0.0, 10.0)),
        output_format="json",
        graph_edges=graph_edges,
        verify_decompositions=draw(st.booleans()),
    )


def written_by_json_dumps(report) -> bool:
    return report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_reports_are_written_as_json_dumps_writes_them(data, kind, netlists):
    network, edges = network_of(kind, netlists)
    assert written_by_json_dumps(run_scenario(data.draw(accepted_config(network, edges, n_modes_of(kind)))))


# each extreme of each per-mode field, on every mode at once, both with and without decomposition checks
EXTREMES = {
    "-3000 dB, eta 0, sigma 1e308": dict(squeezing_db=-3000.0, loss=0.0, jitter=1e308, verify_decompositions=True),
    "-3000 dB, eta 1, sigma 1e-8": dict(squeezing_db=-3000.0, loss=1.0, jitter=1e-8, loss_placement="pre"),
    "-3000 dB, eta 1, sigma 0": dict(squeezing_db=-3000.0, loss=1.0, jitter=0.0, verify_decompositions=True),
    "0 dB, eta 0, sigma 1e-8": dict(squeezing_db=0.0, loss=0.0, jitter=1e-8, loss_placement="pre"),
}


@pytest.mark.parametrize("extreme", EXTREMES)
@pytest.mark.parametrize("kind", KINDS)
def test_reports_at_the_extremes_are_written_as_json_dumps_writes_them(kind, extreme, netlists):
    network, edges = network_of(kind, netlists)
    assert written_by_json_dumps(run_scenario(ScenarioConfig(network, graph_edges=edges, **EXTREMES[extreme])))


def test_the_template_cache_keeps_at_most_its_bound(netlists, monkeypatch):
    """More distinct shapes than the bound leave the bound's number of templates, and each report still writes."""
    shapes = set()

    class Templates(dict):
        def __setitem__(self, shape, template):
            shapes.add(shape)
            super().__setitem__(shape, template)

    monkeypatch.setattr(scenarios, "_TEMPLATES", Templates())
    graphs = [(netlists["eight"], 8, CHAIN8[:k]) for k in range(8)]
    graphs += [(netlists["linear4"], 4, ((1, 2), (2, 3), (3, 4))[:k]) for k in range(4)]
    graphs += [(netlists[name], n, None) for name, n in (("one", 1), ("linear4", 4), ("eight", 8))]
    configs = [ScenarioConfig(network, squeezing_db=[-6.0] * n, graph_edges=edges, verify_decompositions=verify)
               for network, n, edges in graphs for verify in (False, True)]
    configs += [ScenarioConfig(name, verify_decompositions=verify)
                for name in ("linear4", "square4", "tshape4") for verify in (False, True)]
    reports = [run_scenario(cfg) for cfg in configs]
    for report in reports + reports[:3]:
        assert written_by_json_dumps(report)
        assert len(scenarios._TEMPLATES) <= NETWORK_CACHE_SIZE
    assert len(shapes) > NETWORK_CACHE_SIZE
    assert len(scenarios._TEMPLATES) == NETWORK_CACHE_SIZE


def hand_built(variance=0.5, lhs=0.5, deviation=1e-16):
    """A linear4 report holding the given node-2 variance, first witness sum and first decomposition deviation."""
    graph = graph_by_name("linear4")
    check = DecompositionCheck("linear", deviation, 0.0, 1e-16, 1e-15)
    return ScenarioReport(
        ScenarioConfig("linear4", squeezing_db=-6.0, output_format="json", verify_decompositions=True),
        NullifierReport.for_graph(graph, [0.1, variance, 0.1, 0.1], (0.7,) * 4),
        WitnessReport.for_graph(graph, [lhs, 0.2, 0.2]),
        DecompositionReport((check, check), 0.0),
    )


@pytest.mark.parametrize("report", [
    hand_built(variance=math.inf), hand_built(lhs=math.nan), hand_built(lhs=-math.inf),
    hand_built(deviation=math.nan), hand_built(deviation=math.inf), hand_built(lhs=1.0),
    hand_built(deviation=0), hand_built(variance=np.float64(0.3), deviation=np.float64(1e-5)),
], ids=["inf variance", "NaN sum", "-inf sum", "NaN deviation", "inf deviation", "sum at the bound", "int deviation",
        "numpy floats"])
def test_hand_built_reports_are_written_as_json_dumps_writes_them(report):
    assert written_by_json_dumps(report)
