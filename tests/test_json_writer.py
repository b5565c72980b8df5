"""JSON reports: the writer behind `ScenarioReport.to_json` against `json.dumps`.

`to_json` writes `to_dict()` with its own small writer, whose bytes must be
those of `json.dumps(value, sort_keys=True, indent=2)`.  One property checks
the writer on any JSON-like value: keys and strings with non-ASCII, control
characters and lone surrogates, empty and deeply nested containers, tuples,
signed zeros, subnormals, NaN and infinities alone and inside float lists,
bools and ints beyond 64 bits.  The other checks the reports of drawn
accepted configs.  Both searches are derandomized and keep no example
database.
"""

import json
import math

from hypothesis import HealthCheck, example, given, settings, strategies as st
import pytest

from cvcluster.networks import emit_netlist, linear_program
from cvcluster.scenarios import ScenarioConfig, _json, run_scenario

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
# any code point, surrogates included, and a few that the encoder escapes
TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "é", "\x00", "\x1f\x7f", '"\\/', "\ud800", "a\udfffb", " ", "\U0001f600"])
SCALARS = st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**90) | FLOATS | TEXT
FLOAT_LISTS = st.lists(FLOATS, max_size=5)


def containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4))


VALUES = st.recursive(SCALARS | FLOAT_LISTS, containers, max_leaves=12)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(VALUES)
@example({"a": [[[]], ({},)], "b": {"c": {"d": [1.5, math.nan]}}})
@example([[1e308, 1e308], [math.inf, 0.5], (-0.0, 5e-324), [True, 1.0], [2**64, 1.0]])
@example({"\ud800": -math.inf, "é": None, "\x00": [math.nan]})
def test_the_writer_writes_the_bytes_of_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.fixture(scope="module")
def netlist(tmp_path_factory):
    """A netlist of the linear network, in a file whose name is not ASCII."""
    path = tmp_path_factory.mktemp("netlist") / "réseau linéaire ñ.net"
    path.write_text(emit_netlist(linear_program()))
    return str(path)


GRAPHS = {"linear4": None, "square4": None, "tshape4": None, "netlist": None,
          "netlist, linear graph": ((1, 2), (2, 3), (3, 4)), "netlist, star graph": ((1, 2), (1, 3), (1, 4))}


@st.composite
def accepted_config(draw, network, graph_edges):
    """An accepted config on `network`, with drawn levels, channels and decomposition checks."""
    squeezing = draw(st.lists(st.floats(-3000.0, 0.0), min_size=4, max_size=4))
    return ScenarioConfig(
        network=network,
        squeezing_db=squeezing,
        antisqueezing_db=[min(0.0 - s + draw(st.floats(0.0, 10.0)), 3000.0) for s in squeezing],
        loss=draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)),
        loss_placement=draw(st.sampled_from(["pre", "post"])),
        jitter=draw(st.lists(st.sampled_from([0.0, 1e-8]) | st.floats(0.0, 10.0), min_size=4, max_size=4)),
        output_format="json",
        graph_edges=graph_edges,
        verify_decompositions=draw(st.booleans()),
    )


@pytest.mark.parametrize("kind", GRAPHS)
@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_reports_are_written_as_json_dumps_writes_them(data, kind, netlist):
    network = netlist if kind.startswith("netlist") else kind
    report = run_scenario(data.draw(accepted_config(network, GRAPHS[kind])))
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
