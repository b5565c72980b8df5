"""Tests for scenario configs, runs, sweeps, and report serialization."""

import json
import math

import numpy as np
import pytest

from cvcluster import gaussian
from cvcluster.analysis import UnsupportedGraphError
from cvcluster.cli import main
from cvcluster.networks import emit_netlist, linear_program, tshape_program
from cvcluster.scenarios import (
    ConfigError,
    ScenarioConfig,
    ScenarioReport,
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


class TestScenarioConfig:
    def test_create_expands_scalars(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        assert cfg.squeezing_db == (-6.0,) * 4
        assert cfg.antisqueezing_db == (6.0,) * 4
        assert cfg.loss == (1.0,) * 4
        assert cfg.jitter == (0.0,) * 4

    def test_dict_round_trip(self):
        cfg = ScenarioConfig.create(
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
        ("jitter_mc", [100, -5], "jitter_mc"),
        ("jitter_mc", [100, math.inf], "jitter_mc"),
        ("loss", 10 ** 400, "loss"),
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

    @pytest.mark.parametrize("edges", [[[1, 9]], [[0, 1]], [[1, 2], [3, 3]], [[1, math.inf]]])
    def test_graph_edges_checked_against_the_mode_count(self, edges):
        data = {"network": "custom.net", "squeezing_db": [-6.0] * 4, "graph_edges": edges}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert err.value.field == "graph_edges"

    def test_omitted_antisqueezing_mirrors_everywhere(self, tmp_path, capsys):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6, output_format="json")
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
            ScenarioConfig.create("linear4", graph_edges=LINEAR_EDGES)

    def test_load_config_file(self, tmp_path):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
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
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        report = run_scenario(cfg)
        assert report.nullifiers.levels_db == pytest.approx((-6.0,) * 4, abs=1e-10)
        assert report.witness.fully_inseparable

    def test_tshape_vacuum_inputs(self):
        cfg = ScenarioConfig.create("tshape4")
        report = run_scenario(cfg)
        assert report.nullifiers.variances == pytest.approx((1.0, 0.5, 0.5, 0.5), abs=1e-12)
        assert not report.witness.fully_inseparable

    def test_measured_style_inputs_certify(self):
        cfg = ScenarioConfig.create(
            "linear4",
            squeezing_db=[-5.5, -6.3, -5.8, -6.0],
            antisqueezing_db=[9.1, 11.9, 10.5, 11.2],
        )
        report = run_scenario(cfg)
        assert all(lhs < 1.0 for lhs in report.witness.lhs_values)
        assert report.witness.fully_inseparable

    def test_deterministic_json(self):
        cfg = ScenarioConfig.create("square4", squeezing_db=-5.0, antisqueezing_db=8.0,
                                    loss=0.9, jitter=0.05, output_format="json")
        assert run_scenario(cfg).to_json() == run_scenario(cfg).to_json()

    def test_report_round_trip(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0,
                                    verify_decompositions=True)
        report = run_scenario(cfg)
        recovered = ScenarioReport.from_dict(json.loads(report.to_json()))
        assert recovered == report
        assert recovered.to_json() == report.to_json()

    def test_netlist_matches_named_network(self, linear_netlist):
        named = run_scenario(ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0))
        custom = run_scenario(ScenarioConfig.create(
            linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0, graph_edges=LINEAR_EDGES,
        ))
        assert custom.nullifiers.variances == pytest.approx(named.nullifiers.variances, rel=1e-12)
        assert custom.nullifiers.graph_name == "custom"
        assert custom.witness is None

    def test_netlist_analytic_column_absent(self, linear_netlist):
        report = run_scenario(ScenarioConfig.create(
            linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0, graph_edges=LINEAR_EDGES,
        ))
        assert all(e.analytic_variance is None for e in report.nullifiers.entries)

    def test_witness_on_custom_graph_rejected(self, linear_netlist):
        cfg = ScenarioConfig.create(linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0,
                                    graph_edges=LINEAR_EDGES, witness=True)
        with pytest.raises(UnsupportedGraphError, match="custom"):
            run_scenario(cfg)

    def test_witness_without_graph_rejected(self, linear_netlist):
        cfg = ScenarioConfig.create(linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0, witness=True)
        with pytest.raises(UnsupportedGraphError):
            run_scenario(cfg)

    def test_witness_can_be_disabled(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0, witness=False)
        assert run_scenario(cfg).witness is None

    def test_loss_placement_matters_for_uneven_loss(self):
        pre = run_scenario(ScenarioConfig.create(
            "linear4", squeezing_db=-6.0, antisqueezing_db=6.0,
            loss=[0.5, 1.0, 1.0, 1.0], loss_placement="pre",
        ))
        post = run_scenario(ScenarioConfig.create(
            "linear4", squeezing_db=-6.0, antisqueezing_db=6.0,
            loss=[0.5, 1.0, 1.0, 1.0], loss_placement="post",
        ))
        assert np.max(np.abs(np.array(pre.nullifiers.variances) - post.nullifiers.variances)) > 1e-3

    def test_uniform_loss_weakens_but_preserves_verdict(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0, loss=0.9)
        report = run_scenario(cfg)
        ideal = run_scenario(ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0))
        assert all(v > vi for v, vi in zip(report.nullifiers.variances, ideal.nullifiers.variances))
        assert report.witness.fully_inseparable

    def test_jitter_mc_close_to_closed_form(self):
        base = dict(squeezing_db=-6.0, antisqueezing_db=6.0, jitter=0.1)
        closed = run_scenario(ScenarioConfig.create("linear4", **base))
        sampled = run_scenario(ScenarioConfig.create("linear4", **base, jitter_mc=(100_000, 7)))
        assert sampled.nullifiers.variances == pytest.approx(closed.nullifiers.variances, rel=5e-3)
        again = run_scenario(ScenarioConfig.create("linear4", **base, jitter_mc=(100_000, 7)))
        assert again.to_json() == sampled.to_json()

    @pytest.mark.parametrize("jitter_mc", [None, (1000, 3)])
    def test_pipeline_never_factors_a_dense_covariance(self, monkeypatch, jitter_mc):
        def refuse(*args):
            raise AssertionError("a channel went through the dense covariance path")

        monkeypatch.setattr(gaussian, "_factor_covariance", refuse)
        cfg = ScenarioConfig.create(
            "tshape4", squeezing_db=-60.0, loss=[0.9, 0.8, 1.0, 0.95], jitter=0.03, jitter_mc=jitter_mc,
        )
        assert all(v > 0.0 for v in run_scenario(cfg).nullifiers.variances)

    def test_missing_netlist_is_config_error(self):
        with pytest.raises(ConfigError, match="network"):
            run_scenario(ScenarioConfig(network="/no/such/file.net"))

    def test_text_report_formatting(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        text = run_scenario(cfg).to_text()
        assert "network            : linear4" in text
        assert "-6.0" in text
        assert "fully inseparable: yes" in text


class TestSweep:
    def test_squeezing_sweep_levels_track_axis(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        result = run_sweep(cfg, "squeezing_db", -12.0, 0.0, 13)
        assert result.values == pytest.approx(tuple(np.linspace(-12, 0, 13)))
        for value, report in zip(result.values, result.reports):
            assert report.nullifiers.levels_db == pytest.approx((value,) * 4, abs=1e-9)

    def test_loss_sweep_monotone_variances(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
        result = run_sweep(cfg, "loss", 1.0, 0.0, 6)
        variances = np.array([r.nullifiers.variances for r in result.reports])
        assert np.all(np.diff(variances, axis=0) >= -1e-12)

    def test_csv_shape(self):
        cfg = ScenarioConfig.create("linear4", squeezing_db=-6.0, antisqueezing_db=6.0)
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
        cfg = ScenarioConfig.create("linear4")
        with pytest.raises(ConfigError, match="steps"):
            run_sweep(cfg, "loss", 1.0, 0.0, 0)

    def test_unknown_axis_rejected(self):
        cfg = ScenarioConfig.create("linear4")
        with pytest.raises(ConfigError, match="axis"):
            run_sweep(cfg, "temperature", 0.0, 1.0, 3)

    def test_netlist_sweep_requires_graph(self, linear_netlist):
        cfg = ScenarioConfig.create(linear_netlist, squeezing_db=-6.0, antisqueezing_db=6.0)
        with pytest.raises(ConfigError, match="graph_edges"):
            run_sweep(cfg, "loss", 1.0, 0.5, 3)


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
        cfg = ScenarioConfig.create("linear4", verify_decompositions=True)
        report = run_scenario(cfg)
        assert report.decompositions is not None
        assert "decomposition checks" in report.to_text()
