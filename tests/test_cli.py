"""End-to-end tests of the command-line interface."""

import json
import math
from pathlib import Path

import pytest

from cvcluster.cli import EXIT_CONFIG, EXIT_OK, main
from cvcluster.networks import emit_netlist, linear_program

MEASURED_GAP = Path(__file__).resolve().parent.parent / "configs" / "measured_gap.json"


@pytest.fixture
def linear_netlist(tmp_path):
    path = tmp_path / "linear.net"
    path.write_text(emit_netlist(linear_program()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_json_output(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--network", "linear4", "--squeezing-db=-6", "--format", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"]["network"] == "linear4"
        levels = [node["level_db"] for node in report["nullifiers"]["nodes"]]
        assert levels == pytest.approx([-6.0] * 4, abs=1e-10)
        assert report["witness"]["fully_inseparable"] is True

    def test_defaults_to_pure_antisqueezing(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--network", "linear4", "--squeezing-db=-4.2", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["config"]["antisqueezing_db"] == [4.2] * 4

    def test_zero_squeezing_mirrors_to_unsigned_zero(self, capsys):
        # negating 0.0 would print the antisqueezing as -0.0
        code, out, _ = run_cli(capsys, "simulate", "--network", "linear4", "--squeezing-db=0")
        assert code == EXIT_OK
        assert "antisqueezing [dB] : 0.0 0.0 0.0 0.0\n" in out
        code, out, _ = run_cli(capsys, "simulate", "--network", "linear4", "--squeezing-db=0", "--format", "json")
        assert code == EXIT_OK
        assert [math.copysign(1.0, a) for a in json.loads(out)["config"]["antisqueezing_db"]] == [1.0] * 4

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--network", "tshape4", "--squeezing-db=-6")
        assert code == EXIT_OK
        assert "fully inseparable: yes" in out

    def test_per_mode_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--network", "linear4",
            "--squeezing-db=-5.5,-6.3,-5.8,-6.0", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["config"]["squeezing_db"] == [-5.5, -6.3, -5.8, -6.0]

    def test_config_file(self, capsys, tmp_path):
        cfg = {"network": "linear4", "squeezing_db": -6.0, "antisqueezing_db": 6.0}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["squeezing_db"] == [-6.0] * 4

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = {"network": "linear4", "squeezing_db": -6.0, "antisqueezing_db": 12.0}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(path), "--squeezing-db=-3", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["config"]["squeezing_db"] == [-3.0] * 4

    @pytest.mark.parametrize("argv", [
        ("--network", "linear4", "--squeezing-db=-82"),
        ("--network", "tshape4", "--squeezing-db=-85"),
        ("--network", "tshape4", "--squeezing-db=-90", "--jitter", "1e-7"),
        ("--network", "square4", "--squeezing-db=-82", "--jitter", "0.01,0,0.02,1e-6"),
        ("--network", "linear4", "--squeezing-db=-82", "--loss", "0.99", "--loss-placement", "post", "--jitter", "0.01"),
    ])
    def test_deep_squeezing_reports_finite_levels(self, capsys, argv):
        code, out, err = run_cli(capsys, "simulate", *argv, "--format", "json")
        assert code == EXIT_OK, err
        levels = [node["level_db"] for node in json.loads(out)["nullifiers"]["nodes"]]
        assert len(levels) == 4 and all(math.isfinite(v) for v in levels)


class TestErrorPaths:
    def test_missing_network(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--squeezing-db=-6")
        assert code == EXIT_CONFIG
        assert "network" in err

    def test_invalid_field_value(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--network", "linear4", "--squeezing-db", "3")
        assert code == EXIT_CONFIG
        assert "squeezing_db[0]" in err

    # the witness follows from the graph; neither subcommand takes a flag to force it
    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "loss", "--from", "1", "--to", "0.5",
                                                        "--steps", "3"]], ids=["simulate", "sweep"])
    @pytest.mark.parametrize("flag", ["--witness", "--no-witness"])
    def test_witness_flags_are_usage_errors(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--network", "linear4", flag])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", b"\xff\xfe{}"],
                             ids=["missing", "invalid-json", "not-an-object", "not-utf8"])
    def test_bad_config_file(self, capsys, tmp_path, content):
        path = tmp_path / "scenario.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == EXIT_CONFIG
        assert err.startswith("config error: config: ")

    @pytest.mark.parametrize("argv,field", [
        (("simulate", "--network", "linear4", "--squeezing-db=-3100"), "squeezing_db[0]"),
        (("simulate", "--network", "linear4", "--antisqueezing-db=3100"), "antisqueezing_db[0]"),
        (("sweep", "--network", "linear4", "--squeezing-db=-6", "--axis", "loss", "--from", "0.5", "--to", "1",
          "--steps", "10000000000000"), "steps"),
    ])
    def test_rejected_at_the_config_boundary(self, capsys, argv, field):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {field}: ")

    # configs once carried a `jitter_mc` field, null unless sampling was asked for, and a `witness` field,
    # null unless the witness was forced on or off
    @pytest.mark.parametrize("field", ["jitter_mc", "witness"])
    def test_config_file_with_a_removed_field_is_rejected(self, capsys, tmp_path, field):
        data = json.loads(MEASURED_GAP.read_text(encoding="utf-8"))
        data[field] = None
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {field}: unknown field\n")

    def test_netlist_mode_count_capped(self, capsys, tmp_path):
        path = tmp_path / "huge.net"
        path.write_text("MODES 100000\nF 1\n")
        code, _, err = run_cli(capsys, "simulate", "--network", str(path), "--squeezing-db=-6")
        assert code == EXIT_CONFIG
        assert err.startswith("config error: network: ") and "cap" in err

    def test_bad_netlist_path(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--network", "/does/not/exist.net")
        assert code == EXIT_CONFIG
        assert "netlist" in err

    def test_bad_edge_syntax(self, capsys, linear_netlist):
        code, _, err = run_cli(
            capsys, "simulate", "--network", linear_netlist, "--graph-edges", "1:2",
        )
        assert code == EXIT_CONFIG
        assert "graph_edges" in err


class TestSweep:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--network", "linear4", "--squeezing-db=-6",
            "--axis", "squeezing_db", "--from", "-12", "--to", "0", "--steps", "13",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 14
        assert lines[0].startswith("axis,value,variance_1")
        row = lines[1].split(",")
        assert row[0] == "squeezing_db"
        assert float(row[1]) == -12.0

    def test_jitter_up_to_the_largest_floats(self, capsys):
        # sigma^2 overflows from about 1.34e154; under the tests' warnings-as-errors a stray warning is a failure
        code, out, err = run_cli(capsys, "sweep", "--network", "linear4", "--axis", "jitter", "--from", "0",
                                 "--to", "1e308", "--steps", "7")
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 7 and all(math.isfinite(float(cell)) for row in rows for cell in row[1:-1])

    def test_unknown_axis(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--network", "linear4",
            "--axis", "flux", "--from", "0", "--to", "1", "--steps", "3",
        )
        assert code == EXIT_CONFIG
        assert "axis" in err

    # a sweep prints CSV and runs no decomposition checks, so it takes neither report option
    @pytest.mark.parametrize("option", [["--format", "json"], ["--verify-decompositions"]])
    def test_report_options_are_usage_errors(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--network", "linear4", *option, "--axis", "loss", "--from", "1", "--to", "0.5", "--steps", "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

    # the same two fields from a config file, which a sweep would otherwise ignore
    @pytest.mark.parametrize("field, value", [("output_format", "json"), ("verify_decompositions", True)])
    def test_report_fields_of_a_config_file_are_config_errors(self, capsys, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads(MEASURED_GAP.read_text()), field: value}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--axis", "loss", "--from", "1", "--to", "0.5",
                                 "--steps", "3")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"config error: {field}: ")


class TestVerifyDecompositions:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--network", "linear4", "--verify-decompositions")
        assert code == EXIT_OK
        section = out[out.index("\ndecomposition checks\n"):]
        assert "\n  linear: " in section and "\n  tshape: " in section

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--network", "linear4", "--verify-decompositions", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)["decompositions"]
        assert {c["network"] for c in report["checks"]} == {"linear", "tshape"}
        assert all(c["max_deviation"] < 1e-12 for c in report["checks"])
        assert report["square_relation_deviation"] < 1e-12

    def test_the_subcommand_is_gone(self, capsys):
        # the checks are a section of the simulate report; there is no second entry to them
        with pytest.raises(SystemExit) as exc:
            main(["verify-decompositions"])
        assert exc.value.code == 2
        assert "invalid choice: 'verify-decompositions'" in capsys.readouterr().err
