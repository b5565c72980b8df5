"""Tests for scenario configs, runs, sweeps, and report serialization."""

import dataclasses
import gc
import itertools
import json
import math
import weakref
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import pytest

from cvcluster import gaussian, networks, scenarios
from cvcluster.cli import main
from cvcluster.networks import emit_netlist, linear_program, tshape_program
from cvcluster.scenarios import (
    SWEEP_AXES,
    ConfigError,
    ScenarioConfig,
    ScenarioReport,
    SweepResult,
    load_config,
    run_scenario,
    run_sweep,
    verify_decompositions,
)

LINEAR_EDGES = ((1, 2), (2, 3), (3, 4))


@pytest.fixture
def linear_netlist(tmp_path):
    path = tmp_path / "linear.net"
    path.write_text(emit_netlist(linear_program()))
    return str(path)


def counting(counts: dict, name: str, fn):
    """`fn`, adding one to `counts[name]` per call."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_network_builds(monkeypatch) -> dict:
    """Count netlist parses, factor products and unitary checks, wherever cvcluster's modules call them."""
    counts = dict.fromkeys(("parse_netlist", "program_matrix", "ComplexUnitary"), 0)
    for name in ("parse_netlist", "program_matrix"):
        original = getattr(networks, name)
        for module in (networks, scenarios):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(counts, name, original))
    monkeypatch.setattr(gaussian.ComplexUnitary, "__init__",
                        counting(counts, "ComplexUnitary", gaussian.ComplexUnitary.__init__))
    return counts


class TestScenarioConfig:
    def test_create_expands_scalars(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        assert cfg.squeezing_db == (-6.0,) * 4
        assert cfg.antisqueezing_db == (6.0,) * 4
        assert cfg.loss == (1.0,) * 4
        assert cfg.jitter == (0.0,) * 4

    def test_dict_round_trip(self):
        cfg = ScenarioConfig(
            "tshape4",
            squeezing_db=[-5.5, -6.3, -5.8, -6.0],
            antisqueezing_db=[9.1, 11.9, 10.0, 11.0],
            loss=0.95,
            jitter=0.02,
            output_format="json",
        )
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="squeezing"):
            ScenarioConfig.from_dict({"network": "linear4", "squeezing": -6})

    @pytest.mark.parametrize("field,value,path", [
        ("squeezing_db", [1.0, -6, -6, -6], "squeezing_db[0]"),
        ("antisqueezing_db", [6.0, 6.0, -1.0, 6.0], "antisqueezing_db[2]"),
        ("antisqueezing_db", [6.0, 6.0, 2.0, 6.0], "antisqueezing_db[2]"),
        ("loss", [1.0, 1.2, 1.0, 1.0], "loss[1]"),
        ("jitter", [0.0, 0.0, 0.0, -0.5], "jitter[3]"),
        ("loss_placement", "during", "loss_placement"),
        ("output_format", "yaml", "output_format"),
        ("squeezing_db", [-6, -6, -6, -3100.0], "squeezing_db[3]"),
        ("antisqueezing_db", [6.0, 3100.0, 6.0, 6.0], "antisqueezing_db[1]"),
        ("loss", 10 ** 400, "loss"),
        ("loss", ["0.9"] * 4, "loss"),
        ("jitter", [False] * 4, "jitter"),
        ("squeezing_db", ["-6"] * 4, "squeezing_db"),
        ("loss", [True] * 4, "loss"),
        ("jitter", [0.0, math.nan, 0.0, 0.0], "jitter"),
        ("jitter", [0.0, 0.0, math.inf, 0.0], "jitter"),
        ("jitter", [0.0] * 3, "jitter"),
    ])
    def test_validation_reports_field_path(self, field, value, path):
        base = {"network": "linear4", "squeezing_db": -6.0, "antisqueezing_db": 6.0}
        base[field] = value
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(base)
        assert str(err.value).startswith(path)

    def test_wrong_mode_count_rejected(self):
        with pytest.raises(ConfigError, match="4 modes"):
            ScenarioConfig(network="linear4", squeezing_db=(-6.0, -6.0))

    @pytest.mark.parametrize("edges", [
        [[1, 9]], [[0, 1]], [[1, 2], [3, 3]], [[1, math.inf]],
        [[1, 2.9]], [["1", 2]], [[True, 2]], [[1, 2, 3]], [1, 2],
    ])
    def test_graph_edges_checked_against_the_mode_count(self, edges):
        data = {"network": "custom.net", "squeezing_db": [-6.0] * 4, "graph_edges": edges}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert err.value.field == "graph_edges"

    def test_omitted_antisqueezing_mirrors_everywhere(self, tmp_path, capsys):
        cfg = ScenarioConfig("linear4", squeezing_db=-6, output_format="json")
        assert cfg.antisqueezing_db == (6.0,) * 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"network": "linear4", "squeezing_db": -6, "output_format": "json"}))
        assert main(["simulate", "--network", "linear4", "--squeezing-db=-6", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert main(["simulate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == out
        assert run_scenario(load_config(path)).to_json() == out
        assert run_scenario(cfg).to_json() == out

    def test_graph_edges_forbidden_for_named_networks(self):
        with pytest.raises(ConfigError, match="graph_edges"):
            ScenarioConfig("linear4", graph_edges=LINEAR_EDGES)

    def test_load_config_file(self, tmp_path):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path) == cfg

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestRunScenario:
    def test_pure_inputs_reproduce_squeezing_level(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        report = run_scenario(cfg)
        assert report.nullifiers.levels_db == pytest.approx((-6.0,) * 4, abs=1e-10)
        assert report.witness.fully_inseparable

    def test_tshape_vacuum_inputs(self):
        cfg = ScenarioConfig("tshape4")
        report = run_scenario(cfg)
        assert report.nullifiers.variances == pytest.approx((1.0, 0.5, 0.5, 0.5), abs=1e-12)
        assert not report.witness.fully_inseparable

    def test_measured_style_inputs_certify(self):
        cfg = ScenarioConfig(
            "linear4",
            squeezing_db=[-5.5, -6.3, -5.8, -6.0],
            antisqueezing_db=[9.1, 11.9, 10.5, 11.2],
        )
        report = run_scenario(cfg)
        assert all(lhs < 1.0 for lhs in report.witness.lhs_values)
        assert report.witness.fully_inseparable

    def test_deterministic_json(self):
        cfg = ScenarioConfig("square4", squeezing_db=-5.0, antisqueezing_db=8.0,
                                    loss=0.9, jitter=0.05, output_format="json")
        assert run_scenario(cfg).to_json() == run_scenario(cfg).to_json()

    def test_report_round_trip(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0,
                                    verify_decompositions=True)
        report = run_scenario(cfg)
        recovered = ScenarioReport.from_dict(json.loads(report.to_json()))
        assert recovered == report
        assert recovered.to_json() == report.to_json()

    def test_netlist_matches_named_network(self, linear_netlist):
        named = run_scenario(ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0))
        custom = run_scenario(ScenarioConfig(
            linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0, graph_edges=LINEAR_EDGES,
        ))
        assert custom.nullifiers.variances == pytest.approx(named.nullifiers.variances, rel=1e-12)
        assert custom.nullifiers.graph_name == "custom"
        assert custom.witness is None

    def test_netlist_analytic_column_absent(self, linear_netlist):
        report = run_scenario(ScenarioConfig(
            linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0, graph_edges=LINEAR_EDGES,
        ))
        assert report.nullifiers.analytic_variances is None

    def test_loss_placement_matters_for_uneven_loss(self):
        pre = run_scenario(ScenarioConfig(
            "linear4", squeezing_db=-6.0, antisqueezing_db=6.0,
            loss=[0.5, 1.0, 1.0, 1.0], loss_placement="pre",
        ))
        post = run_scenario(ScenarioConfig(
            "linear4", squeezing_db=-6.0, antisqueezing_db=6.0,
            loss=[0.5, 1.0, 1.0, 1.0], loss_placement="post",
        ))
        assert np.max(np.abs(np.array(pre.nullifiers.variances) - post.nullifiers.variances)) > 1e-3

    def test_uniform_loss_weakens_but_preserves_verdict(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0, loss=0.9)
        report = run_scenario(cfg)
        ideal = run_scenario(ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0))
        assert all(v > vi for v, vi in zip(report.nullifiers.variances, ideal.nullifiers.variances))
        assert report.witness.fully_inseparable

    @pytest.mark.parametrize("loss_placement", ["pre", "post"])
    def test_pipeline_never_factors_a_dense_covariance(self, monkeypatch, loss_placement):
        def refuse(*args):
            raise AssertionError("a channel went through the dense covariance path")

        monkeypatch.setattr(gaussian, "_factor_covariance", refuse)
        cfg = ScenarioConfig(
            "tshape4", squeezing_db=-60.0, loss=[0.9, 0.8, 1.0, 0.95], loss_placement=loss_placement, jitter=0.03,
        )
        assert all(v > 0.0 for v in run_scenario(cfg).nullifiers.variances)

    def test_missing_netlist_is_config_error(self):
        with pytest.raises(ConfigError, match="network"):
            run_scenario(ScenarioConfig(network="/no/such/file.net"))

    @pytest.mark.parametrize("content", [b"\xff\xfeMODES 4\n", b"MODES 4\nF 1.5\n"], ids=["not-utf8", "bad-mode"])
    def test_unreadable_netlist_is_config_error(self, tmp_path, content):
        path = tmp_path / "bad.net"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="^network: "):
            run_scenario(ScenarioConfig(network=str(path), squeezing_db=[-6.0] * 4))

    def test_text_report_formatting(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        text = run_scenario(cfg).to_text()
        assert "network            : linear4" in text
        assert "-6.0" in text
        assert "fully inseparable: yes" in text


class TestSweep:
    def test_squeezing_sweep_levels_track_axis(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        result = run_sweep(cfg, "squeezing_db", -12.0, 0.0, 13)
        assert result.values == pytest.approx(tuple(np.linspace(-12, 0, 13)))
        for value, report in zip(result.values, result.reports):
            assert report.nullifiers.levels_db == pytest.approx((value,) * 4, abs=1e-9)

    def test_squeezing_sweep_to_zero_keeps_antisqueezing_unsigned(self):
        # a mirrored mode's antisqueezing is the negated axis value, which must not become -0.0
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0)
        last = run_sweep(cfg, "squeezing_db", -6.0, 0.0, 3).reports[-1]
        assert [math.copysign(1.0, a) for a in last.config.antisqueezing_db] == [1.0] * 4
        assert "antisqueezing [dB] : 0.0 0.0 0.0 0.0\n" in last.to_text()

    def test_network_matrices_are_built_once_not_per_point(self, monkeypatch):
        # a unitary builds its quadrature matrix once, so no new unitary means no new matrix
        counts = {"ComplexUnitary": 0, "InputFrame": 0}
        for name in counts:
            cls = getattr(gaussian, name)
            monkeypatch.setattr(cls, "__init__", counting(counts, name, cls.__init__))
        cfg = ScenarioConfig("square4", squeezing_db=-6.3, antisqueezing_db=11.0, loss=0.93, jitter=0.04)
        run_sweep(cfg, "loss", 0.5, 1.0, 1)  # the first use builds what later sweeps share
        per_sweep = []
        for steps in (3, 30):
            counts.update(dict.fromkeys(counts, 0))
            run_sweep(cfg, "loss", 0.5, 1.0, steps)
            per_sweep.append(dict(counts))
        assert per_sweep[0] == per_sweep[1]

    def test_a_frame_cleared_from_its_cache_is_freed_without_the_cycle_collector(self):
        # the frame's per-point caches hold no reference back to it, so reference counting alone frees it
        cfg = ScenarioConfig("tshape4", squeezing_db=-6.0, loss=0.9, jitter=0.02)
        run_sweep(cfg, "jitter", 0.0, 0.1, 3)  # fills the frame's caches
        frame = weakref.ref(scenarios._frame(*scenarios._resolve_network(cfg)))
        gc.disable()
        try:
            scenarios._frame.cache_clear()
            assert frame() is None
        finally:
            gc.enable()

    def test_a_loss_sweep_computes_the_squeezing_parameters_once(self, monkeypatch):
        # a point off the squeezing axis shares its base config's squeezing parameters
        counts = {"squeezing_db_to_r": 0}
        monkeypatch.setattr(scenarios, "squeezing_db_to_r",
                            counting(counts, "squeezing_db_to_r", scenarios.squeezing_db_to_r))
        cfg = ScenarioConfig("linear4", squeezing_db=-6.3, antisqueezing_db=11.0, loss=0.93, jitter=0.04)
        result = run_sweep(cfg, "loss", 0.5, 1.0, 200)
        assert json.loads(result.reports[-1].to_json())["inputs"]["squeezing_r"] == list(cfg.squeezing_r)
        assert counts["squeezing_db_to_r"] <= 4

    def test_loss_sweep_monotone_variances(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        result = run_sweep(cfg, "loss", 1.0, 0.0, 6)
        variances = np.array([r.nullifiers.variances for r in result.reports])
        assert np.all(np.diff(variances, axis=0) >= -1e-12)

    def test_csv_shape(self):
        cfg = ScenarioConfig("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        lines = run_sweep(cfg, "jitter", 0.0, 0.2, 3).to_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["axis", "value"]
        assert header[-1] == "fully_inseparable"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "jitter"
        assert float(first[1]) == 0.0
        assert len(first) == len(header)

    def test_zero_steps_rejected(self):
        cfg = ScenarioConfig("linear4")
        with pytest.raises(ConfigError, match="steps"):
            run_sweep(cfg, "loss", 1.0, 0.0, 0)

    @pytest.mark.parametrize("start,stop,steps,field", [
        (1.0, 0.0, True, "steps"), (1.0, 0.0, 2.5, "steps"), (1.0, 0.0, "3", "steps"),
        (True, 0.5, 3, "start"), ("1", 0.5, 3, "start"), (1.0, None, 3, "stop"), (1.0, 0.5 + 0j, 3, "stop"),
    ])
    def test_grid_values_must_be_numbers_of_their_kind(self, start, stop, steps, field):
        kind = "an integer" if field == "steps" else "a real number"
        value = {"start": start, "stop": stop, "steps": steps}[field]
        with pytest.raises(ConfigError) as exc:
            run_sweep(ScenarioConfig("linear4"), "loss", start, stop, steps)
        assert (exc.value.field, str(exc.value)) == (field, f"{field}: expected {kind}, got {value!r}")

    @pytest.mark.parametrize("start,stop,field", [(10**400, 0, "start"), (0, 10**400, "stop"), (-10**308, 10**308, "start")])
    def test_grid_bounds_past_the_float_range_are_config_errors(self, start, stop, field):
        with pytest.raises(ConfigError) as exc:
            run_sweep(ScenarioConfig("linear4"), "loss", start, stop, 3)
        assert exc.value.field == field

    def test_integral_values_pass_as_integers(self, linear_netlist):
        cfg = ScenarioConfig(linear_netlist, squeezing_db=[-6.0] * 4, graph_edges=[[1.0, np.int64(2)], [2, 3], [3, 4]])
        assert cfg.graph_edges == LINEAR_EDGES
        assert len(run_sweep(cfg, "loss", 1.0, 0.5, 2.0).reports) == 2

    def test_unknown_axis_rejected(self):
        cfg = ScenarioConfig("linear4")
        with pytest.raises(ConfigError, match="axis"):
            run_sweep(cfg, "temperature", 0.0, 1.0, 3)

    def test_netlist_sweep_requires_graph(self, linear_netlist):
        cfg = ScenarioConfig(linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0)
        with pytest.raises(ConfigError, match="graph_edges"):
            run_sweep(cfg, "loss", 1.0, 0.5, 3)

    @pytest.mark.parametrize("base,axis,start,message", [
        ({}, "loss", 1.25, "loss[0]: transmissivity must lie in [0, 1], got 1.25"),
        ({"squeezing_db": [-6.0, -12.0, -6.0, -6.0]}, "antisqueezing_db", 9.0,
         "antisqueezing_db[1]: unphysical: 9.0 dB is below -squeezing_db = 12.0 dB"),
        ({}, "jitter", -0.5, "jitter[0]: sigma must be >= 0, got -0.5"),
        ({"squeezing_db": -6.0}, "squeezing_db", -3001.0, "squeezing_db[0]: must lie in [-3000.0, 0] dB, got -3001.0"),
    ])
    def test_point_out_of_range_names_the_field(self, base, axis, start, message):
        with pytest.raises(ConfigError) as exc:
            run_sweep(ScenarioConfig("linear4", **base), axis, start, 0.5, 2)
        assert str(exc.value) == message


# Per axis, sweep bounds inside the accepted range (for every base config
# `sweep_case` draws, bar a squeezing sweep past an impure mode's
# antisqueezing) and bounds outside it.
SWEEP_BOUNDS = {
    "squeezing_db": (st.floats(-2.0, 0.0), st.floats(-3100.0, -3000.5) | st.floats(0.5, 5.0)),
    "antisqueezing_db": (st.floats(22.0, 3000.0), st.floats(-5.0, -0.5) | st.floats(3000.5, 3100.0)),
    "loss": (st.floats(0.0, 1.0), st.floats(-1.0, -1e-9) | st.floats(1.0 + 1e-9, 2.0)),
    "jitter": (st.floats(0.0, 1.0), st.floats(-1.0, -1e-9)),
}


@st.composite
def sweep_case(draw, netlist):
    """An accepted base config's fields, and a sweep axis, bounds and step count."""
    network = draw(st.sampled_from(["linear4", "square4", "tshape4", netlist]))
    squeezing = draw(st.lists(st.floats(-12.0, 0.0), min_size=4, max_size=4))
    # a mode is pure (mirrored) or keeps an excess of antisqueezing
    excess = draw(st.lists(st.none() | st.floats(0.0, 10.0), min_size=4, max_size=4))
    fields = {
        "network": network,
        "squeezing_db": squeezing,
        "antisqueezing_db": [0.0 - s if e is None else e - s for s, e in zip(squeezing, excess)],
        "loss": draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)),
        "loss_placement": draw(st.sampled_from(["pre", "post"])),
        "jitter": draw(st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4)),
        "output_format": draw(st.sampled_from(["text", "json"])),
    }
    if network == netlist:
        fields["graph_edges"] = LINEAR_EDGES
    axis = draw(st.sampled_from(SWEEP_AXES))
    inside, outside = SWEEP_BOUNDS[axis]
    # one grid in three starts outside the range, one in three ends outside it
    leaves = draw(st.sampled_from([None, "start", "stop"]))
    start = draw(outside if leaves == "start" else inside)
    stop = draw(outside if leaves == "stop" else inside)
    return fields, axis, start, stop, draw(st.integers(1, 4))


def point_fields(cfg: ScenarioConfig, fields: dict, axis: str, value: float) -> dict:
    """The constructor fields of a sweep point: `axis` set on every mode; pure modes stay mirrored."""
    point = dict(fields, **{axis: [value] * cfg.n_modes})
    if axis == "squeezing_db":
        point["antisqueezing_db"] = [0.0 - value if a == -s else a for s, a in zip(cfg.squeezing_db, cfg.antisqueezing_db)]
    return point


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_sweep_points_match_the_constructor(data, linear_netlist):
    """A sweep point gives the report, and a bad one the error, of the full constructor on its fields."""
    fields, axis, start, stop, steps = data.draw(sweep_case(linear_netlist))
    cfg = ScenarioConfig(**fields)
    values = tuple(float(v) for v in np.linspace(start, stop, steps))
    try:
        result = run_sweep(cfg, axis, start, stop, steps)
    except ConfigError as exc:
        for value in values:
            try:
                ScenarioConfig(**point_fields(cfg, fields, axis, value))
            except ConfigError as expected:
                assert (exc.field, str(exc)) == (expected.field, str(expected))
                return
        raise AssertionError(f"the constructor accepts every point that the sweep rejected: {exc}")
    expected = tuple(run_scenario(ScenarioConfig(**point_fields(cfg, fields, axis, v))) for v in values)
    assert result.reports == expected
    assert [r.to_json() for r in result.reports] == [r.to_json() for r in expected]  # -0.0 too
    assert result.to_csv() == SweepResult(axis, values, expected).to_csv()


MEASURED_GAP = str(Path(__file__).resolve().parent.parent / "configs" / "measured_gap.json")
DROP = object()  # a tamper that deletes the key


def report_dict(base: str) -> dict:
    """The JSON report of one of three witnessed configs, as `json.loads` gives it."""
    if base == "measured_gap":
        cfg = load_config(MEASURED_GAP)
    elif base == "vacuum":
        cfg = ScenarioConfig("linear4")
    else:  # a delegated verdict, with the decomposition section attached
        cfg = ScenarioConfig("square4", squeezing_db=[-5.5, -6.3, -5.8, -6.0], antisqueezing_db=11.0,
                                    loss=0.9, jitter=0.03, verify_decompositions=True)
    return json.loads(run_scenario(cfg).to_json())


def tampered(data: dict, keys: tuple, value) -> dict:
    """`data` with the value at `keys` replaced by `value`, or deleted for DROP."""
    *parents, last = keys
    target = data
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return data


class TestReportFromDict:
    # (base report, keys of the tampered value, written value, path the error names)
    TAMPERS = {
        "level_db": ("measured_gap", ("nullifiers", "nodes", 0, "level_db"), 3.0, "nullifiers.nodes[0].level_db"),
        "lhs without its verdicts": ("measured_gap", ("witness", "inequalities", 0, "lhs"), 1.5,
                                     "witness.fully_inseparable"),
        "reference": ("measured_gap", ("nullifiers", "nodes", 1, "reference"), 0.5, "nullifiers.nodes[1].reference"),
        "analytic_variance": ("measured_gap", ("nullifiers", "nodes", 2, "analytic_variance"), None,
                              "nullifiers.nodes[2].analytic_variance"),
        "node": ("measured_gap", ("nullifiers", "nodes", 0, "node"), 2, "nullifiers.nodes[0].node"),
        "nullifier graph": ("measured_gap", ("nullifiers", "graph"), "tshape4", "nullifiers.graph"),
        "witness graph": ("square4", ("witness", "graph"), "linear4", "witness.graph"),
        "bound": ("measured_gap", ("witness", "inequalities", 1, "bound"), 2.0, "witness.inequalities[1].bound"),
        "bound as an integer": ("measured_gap", ("witness", "inequalities", 1, "bound"), 1,
                                "witness.inequalities[1].bound"),
        "satisfied": ("measured_gap", ("witness", "inequalities", 2, "satisfied"), False,
                      "witness.inequalities[2].satisfied"),
        "satisfied as an integer": ("measured_gap", ("witness", "inequalities", 2, "satisfied"), 1,
                                    "witness.inequalities[2].satisfied"),
        "fully_inseparable": ("measured_gap", ("witness", "fully_inseparable"), False, "witness.fully_inseparable"),
        "delegated_to added": ("measured_gap", ("witness", "delegated_to"), "linear4", "witness.delegated_to"),
        "delegated_to dropped": ("square4", ("witness", "delegated_to"), None, "witness.delegated_to"),
        "label": ("measured_gap", ("witness", "inequalities", 0, "label"), "node2+node1",
                  "witness.inequalities[0].label"),
        "squeezing_r": ("measured_gap", ("inputs", "squeezing_r", 0), 0.5, "inputs.squeezing_r[0]"),
        "inputs squeezing_db": ("square4", ("inputs", "squeezing_db", 3), -6.3, "inputs.squeezing_db[3]"),
        "inputs signed zero": ("vacuum", ("inputs", "antisqueezing_db", 1), -0.0, "inputs.antisqueezing_db[1]"),
        "inputs dropped": ("measured_gap", ("inputs",), DROP, "inputs"),
        "witness dropped": ("measured_gap", ("witness",), DROP, "witness"),
        "witness null": ("square4", ("witness",), None, "witness"),
        "decompositions dropped": ("square4", ("decompositions",), None, "decompositions"),
        "decompositions added": ("measured_gap", ("decompositions",), verify_decompositions().to_dict(),
                                 "decompositions"),
        "unknown section": ("measured_gap", ("trace",), {}, "trace"),
        "unknown key": ("measured_gap", ("witness", "margin"), 0.1, "witness.margin"),
        # reports written while the config had a Monte-Carlo jitter field, or a witness field that forced
        # the witness on or off, no longer read back
        "removed config field": ("measured_gap", ("config", "jitter_mc"), None, "jitter_mc"),
        "removed witness field": ("measured_gap", ("config", "witness"), None, "witness"),
        "removed witness field, forced off": ("square4", ("config", "witness"), False, "witness"),
    }

    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_derived_value_that_disagrees_is_rejected(self, name):
        base, keys, value, path = self.TAMPERS[name]
        with pytest.raises(ConfigError) as info:
            ScenarioReport.from_dict(tampered(report_dict(base), keys, value))
        assert info.value.field == path

    def test_edited_verdict_inputs_are_rejected(self):
        data = report_dict("measured_gap")
        data["witness"]["inequalities"][0]["lhs"] = 1.5
        data["nullifiers"]["nodes"][0]["level_db"] = 3.0
        with pytest.raises(ConfigError, match=r"^nullifiers\.nodes\[0\]\.level_db: "):
            ScenarioReport.from_dict(data)

    # (keys of the malformed value, written value, path the error names), on the square4 report
    MALFORMED = {
        "not an object": ((), [], "report"),
        "config missing": (("config",), DROP, "config"),
        "config not an object": (("config",), "linear4", "config"),
        "config field invalid": (("config", "squeezing_db", 0), 3.0, "squeezing_db[0]"),
        "nullifiers null": (("nullifiers",), None, "nullifiers"),
        "nodes not a list": (("nullifiers", "nodes"), {}, "nullifiers"),
        "node not an object": (("nullifiers", "nodes", 1), 0.2, "nullifiers.nodes[1].variance"),
        "variance missing": (("nullifiers", "nodes", 1, "variance"), DROP, "nullifiers.nodes[1].variance"),
        "variance a string": (("nullifiers", "nodes", 1, "variance"), "x", "nullifiers.nodes[1].variance"),
        "variance zero": (("nullifiers", "nodes", 1, "variance"), 0.0, "nullifiers.nodes[1].variance"),
        "variance negative": (("nullifiers", "nodes", 1, "variance"), -0.2, "nullifiers.nodes[1].variance"),
        "variance infinite": (("nullifiers", "nodes", 1, "variance"), math.inf, "nullifiers.nodes[1].variance"),
        "variance NaN": (("nullifiers", "nodes", 1, "variance"), math.nan, "nullifiers.nodes[1].variance"),
        "variance a boolean": (("nullifiers", "nodes", 1, "variance"), True, "nullifiers.nodes[1].variance"),
        "node dropped": (("nullifiers", "nodes", 3), DROP, "nullifiers.nodes"),
        "lhs null": (("witness", "inequalities", 2, "lhs"), None, "witness.inequalities[2].lhs"),
        "inequality dropped": (("witness", "inequalities", 2), DROP, "witness.inequalities"),
        "check field missing": (("decompositions", "checks", 0, "network"), DROP, "decompositions"),
        "check value a string": (("decompositions", "checks", 0, "max_deviation"), "x", "decompositions"),
        "deviation missing": (("decompositions", "square_relation_deviation"), DROP, "decompositions"),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_report_is_a_config_error_naming_the_path(self, name):
        keys, value, path = self.MALFORMED[name]
        data = tampered(report_dict("square4"), keys, value) if keys else value
        with pytest.raises(ConfigError) as info:
            ScenarioReport.from_dict(data)
        assert info.value.field == path

    @pytest.mark.parametrize("base", ["measured_gap", "square4", "vacuum"])
    def test_a_report_with_its_keys_reversed_reads_back_to_the_same_report_and_bytes(self, base):
        def reversed_keys(tree):
            if isinstance(tree, dict):
                return {k: reversed_keys(tree[k]) for k in reversed(tree)}
            return list(map(reversed_keys, tree)) if isinstance(tree, list) else tree

        data = report_dict(base)
        written = json.dumps(data, sort_keys=True, indent=2) + "\n"
        backwards = reversed_keys(data)
        assert list(backwards["nullifiers"]["nodes"][0]) == sorted(data["nullifiers"]["nodes"][0], reverse=True)
        report = ScenarioReport.from_dict(backwards)
        assert report == ScenarioReport.from_dict(data)
        assert report.to_json() == written

    @pytest.mark.parametrize("kwargs", [
        {"graph_edges": LINEAR_EDGES},
        {"graph_edges": LINEAR_EDGES, "verify_decompositions": True},
        {},
    ], ids=["graph", "graph-decompositions", "no-graph"])
    def test_netlist_report_round_trips_without_its_file(self, linear_netlist, kwargs):
        report = run_scenario(ScenarioConfig(linear_netlist, squeezing_db=-6.0, antisqueezing_db=9.0,
                                                    loss=[0.9, 1, 1, 0.8], **kwargs))
        Path(linear_netlist).unlink()
        assert ScenarioReport.from_dict(json.loads(report.to_json())) == report


class TestVerifyDecompositions:
    def test_factor_strings_reproduce_matrices(self):
        report = verify_decompositions()
        for check in report.checks:
            assert check.max_deviation < 1e-12
            assert abs(check.global_phase) < 1e-12
            assert check.phase_aligned_deviation < 1e-12
            assert check.covariance_deviation < 1e-12
        assert report.square_relation_deviation < 1e-12

    def test_report_attached_on_request(self):
        cfg = ScenarioConfig("linear4", verify_decompositions=True)
        report = run_scenario(cfg)
        assert report.decompositions is not None
        assert "decomposition checks" in report.to_text()

    def test_built_once_and_equal_on_every_call(self, monkeypatch):
        first = verify_decompositions()
        counts = count_network_builds(monkeypatch)
        again = [verify_decompositions() for _ in range(3)]
        attached = run_scenario(ScenarioConfig("tshape4", verify_decompositions=True)).decompositions
        assert counts == dict.fromkeys(counts, 0)
        assert all(report == first for report in again + [attached])


class TestNetworkCache:
    def test_netlist_is_keyed_by_its_text_not_its_path(self, tmp_path):
        path = tmp_path / "network.net"
        path.write_text(emit_netlist(linear_program()))
        cfg = ScenarioConfig(str(path), squeezing_db=[-6.0, -5.0, -4.0, -3.0], graph_edges=LINEAR_EDGES)
        linear = run_scenario(cfg)
        path.write_text(emit_netlist(tshape_program()))
        rewritten = run_scenario(cfg)
        fresh = tmp_path / "tshape.net"
        fresh.write_text(emit_netlist(tshape_program()))
        assert rewritten.nullifiers != linear.nullifiers
        assert rewritten.nullifiers == run_scenario(dataclasses.replace(cfg, network=str(fresh))).nullifiers

    def test_repeated_netlist_runs_build_the_network_once(self, monkeypatch, linear_netlist):
        counts = count_network_builds(monkeypatch)
        data = dict(network=linear_netlist, squeezing_db=-6.3, antisqueezing_db=11.0, loss=0.93, jitter=0.04,
                    graph_edges=LINEAR_EDGES)
        run_scenario(ScenarioConfig.from_dict(data))  # the first use builds what later runs share
        per_batch = []
        for runs in (1, 10):
            counts.update(dict.fromkeys(counts, 0))
            for _ in range(runs):
                run_scenario(ScenarioConfig.from_dict(data))
            per_batch.append(dict(counts))
        assert per_batch[0] == per_batch[1]

    def test_caches_stay_within_their_bound(self, tmp_path):
        pairs = list(itertools.combinations(range(1, 5), 2))
        edge_sets = [edges for k in range(1, len(pairs) + 1) for edges in itertools.combinations(pairs, k)]
        assert len(edge_sets) > scenarios.NETWORK_CACHE_SIZE
        text = emit_netlist(linear_program())
        path = tmp_path / "network.net"
        for k, edges in enumerate(edge_sets):
            path.write_text(f"# variant {k}\n{text}")
            run_scenario(ScenarioConfig(str(path), squeezing_db=-6.0, graph_edges=edges))
        for cached in (networks._netlist_unitary, scenarios._custom_graph, scenarios._frame):
            info = cached.cache_info()
            assert info.maxsize == scenarios.NETWORK_CACHE_SIZE
            assert info.currsize == scenarios.NETWORK_CACHE_SIZE
