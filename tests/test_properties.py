"""Property test: every config the CLI accepts ends in exit 0, 2 or 3.

Hypothesis drives `cli.main` over the config space: levels down to the
accepted bound, transmissivities in [0, 1], large jitter, NaN and inf as
option values and sweep bounds, on the built-in networks and a netlist.  A
run that exits 0 must report finite levels, and its JSON report must parse
back to the same bytes.  Only run sizes (sweep steps) are kept small; values
are not narrowed.  The search is derandomized and keeps no example database,
so every run tries the same inputs.
"""

import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from cvcluster.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSUPPORTED_GRAPH, main
from cvcluster.gaussian import LEVEL_LIMIT_DB
from cvcluster.networks import emit_netlist, linear_program
from cvcluster.scenarios import ScenarioReport

# Each drawn value comes from its accepted range 9 times in 10, else from
# anywhere (NaN and inf included), so most runs get past the config check.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([math.nan, math.inf, -math.inf])
LEVEL = st.floats(0.0, LEVEL_LIMIT_DB)
BEYOND_LEVEL = ANY_FLOAT | st.floats(LEVEL_LIMIT_DB, 2 * LEVEL_LIMIT_DB)
SIGMA = st.floats(0.0, 10.0) | st.floats(0.0, 1e300)
SWEEP_RANGES = {
    "squeezing_db": st.floats(-LEVEL_LIMIT_DB, 0.0),
    "antisqueezing_db": LEVEL,
    "loss": st.floats(0.0, 1.0),
    "jitter": SIGMA,
}


@pytest.fixture(scope="module")
def netlist(tmp_path_factory):
    path = tmp_path_factory.mktemp("netlist") / "linear.net"
    path.write_text(emit_netlist(linear_program()))
    return str(path)


def mostly(draw, accepted, other=ANY_FLOAT):
    return draw(other if draw(st.integers(0, 9)) == 0 else accepted)


def per_mode(draw, option, make):
    """`--option=v` with one value or one per mode (`make(mode)`), or nothing; returns (argv, values)."""
    count = draw(st.sampled_from([0, 1, 4]))
    values = [make(mode) for mode in range(count)]
    return ([f"--{option}={','.join(map(repr, values))}"] if values else []), values


@st.composite
def argv(draw, netlist_path):
    network = draw(st.sampled_from(["linear4", "square4", "tshape4", netlist_path]))
    args = ["--network", network]
    flags, squeezing = per_mode(draw, "squeezing-db", lambda m: -mostly(draw, LEVEL, BEYOND_LEVEL))
    args += flags
    # antisqueezing = -squeezing + excess, capped at the bound, keeps a >= -s
    mirrored = [-s for s in squeezing] * (4 // max(len(squeezing), 1)) or [0.0] * 4
    args += per_mode(draw, "antisqueezing-db", lambda m: mostly(draw, LEVEL.map(
        lambda excess: min(mirrored[m] + excess, LEVEL_LIMIT_DB)), BEYOND_LEVEL))[0]
    args += per_mode(draw, "loss", lambda m: mostly(draw, st.floats(0.0, 1.0)))[0]
    args += per_mode(draw, "jitter", lambda m: mostly(draw, SIGMA))[0]
    args += draw(st.sampled_from([[], ["--loss-placement", "pre"], ["--loss-placement", "post"]]))
    args += draw(st.sampled_from([[], ["--witness"], ["--no-witness"]]))
    if network == netlist_path and draw(st.booleans()):
        node = st.integers(1, 4) if draw(st.integers(0, 9)) else st.integers(-1, 6)
        edges = draw(st.lists(st.tuples(node, node), min_size=1, max_size=4))
        args += ["--graph-edges", ",".join(f"{a}-{b}" for a, b in edges)]
    if draw(st.booleans()):
        axis = draw(st.sampled_from(sorted(SWEEP_RANGES)))
        start, stop = mostly(draw, SWEEP_RANGES[axis]), mostly(draw, SWEEP_RANGES[axis])
        steps = mostly(draw, st.integers(1, 4), st.integers(-1, 0))
        return ["sweep", *args, "--axis", axis, f"--from={start!r}", f"--to={stop!r}", "--steps", str(steps)]
    if draw(st.integers(0, 9)) == 0:
        args.append("--verify-decompositions")
    return ["simulate", *args, "--format", draw(st.sampled_from(["json", "text"]))]


def check_output(command, out):
    if command == "sweep":
        header, *rows = out.splitlines()
        level_cols = [k for k, h in enumerate(header.split(",")) if h.startswith(("variance_", "level_db_"))]
        levels = [float(row.split(",")[k]) for row in rows for k in level_cols]
    elif out.startswith("{"):
        assert ScenarioReport.from_dict(json.loads(out)).to_json() == out
        nullifiers = json.loads(out)["nullifiers"]
        levels = [] if nullifiers is None else [node["level_db"] for node in nullifiers["nodes"]]
    else:
        lines = out.splitlines()
        start = next((k for k, line in enumerate(lines) if line.startswith("nullifier variances")), len(lines))
        levels = [float(line.split()[3]) for line in lines[start + 2:start + 6] if line.strip()]
    assert all(math.isfinite(v) for v in levels), levels


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_accepted_configs_end_in_a_defined_exit(data, netlist, capsys):
    args = data.draw(argv(netlist))
    code = main(args)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_UNSUPPORTED_GRAPH), (code, captured.err)
    assert "Traceback" not in captured.err
    if code == EXIT_OK:
        check_output(args[0], captured.out)
    else:
        assert captured.out == ""
