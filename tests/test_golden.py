"""Golden outputs: `cli.main` stdout must match the files in tests/golden byte for byte.

The files pin the byte-identical contract of every refactor: the same config
gives the same text, JSON and CSV.  A change that is meant to move output bits
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and explains in CHANGES.md which outputs moved and why; it also rewrites
`linear4.net`, the netlist of the linear-cluster factor program.  Netlist runs
are pinned through a sweep, whose CSV carries no file path.  Each JSON
`simulate` file must also read back through `ScenarioReport.from_dict` to the
same bytes.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cvcluster.cli import EXIT_OK, main
from cvcluster.networks import emit_netlist, linear_program
from cvcluster.scenarios import ScenarioReport

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MEASURED_GAP = str(ROOT / "configs" / "measured_gap.json")
LINEAR_NETLIST = GOLDEN / "linear4.net"
IMPERFECT = [
    "--squeezing-db=-5.5,-6.3,-5.8,-6.0", "--antisqueezing-db=9.1,11.9,10.5,11.2",
]

CASES = {
    "measured_gap.txt": ["simulate", "--config", MEASURED_GAP],
    "measured_gap.json": ["simulate", "--config", MEASURED_GAP, "--format", "json"],
    "readme_simulate.json": ["simulate", "--network", "linear4", "--squeezing-db=-6", "--format", "json"],
    "readme_imperfect.txt": [
        "simulate", "--network", "linear4", *IMPERFECT,
        "--loss", "0.93", "--loss-placement", "post", "--jitter", "0.04",
    ],
    "readme_sweep.csv": [
        "sweep", "--network", "linear4", "--squeezing-db=-6",
        "--axis", "squeezing_db", "--from", "-12", "--to", "0", "--steps", "13",
    ],
    "verify_decompositions.txt": ["verify-decompositions"],
    "verify_decompositions.json": ["verify-decompositions", "--format", "json"],
    "square4_pre_loss_jitter.json": [
        "simulate", "--network", "square4", *IMPERFECT,
        "--loss=0.9,0.95,0.92,0.97", "--loss-placement", "pre", "--jitter=0.03,0.01,0.02,0.05",
        "--format", "json",
    ],
    "tshape4_post_loss_jitter.json": [
        "simulate", "--network", "tshape4", *IMPERFECT,
        "--loss=0.95,1,0.9,0.85", "--loss-placement", "post", "--jitter=0.02,0,0.05,0.01",
        "--format", "json",
    ],
    "square4_jitter_sweep.csv": [
        "sweep", "--config", MEASURED_GAP, "--network", "square4",
        "--axis", "jitter", "--from", "0", "--to", "0.2", "--steps", "21",
    ],
    "tshape4_pre_loss_sweep.csv": [
        "sweep", "--network", "tshape4", *IMPERFECT, "--loss-placement", "pre", "--jitter=0.02,0,0.05,0.01",
        "--axis", "loss", "--from", "1", "--to", "0.5", "--steps", "21",
    ],
    "square4_antisqueezing_sweep.csv": [
        "sweep", "--network", "square4", "--squeezing-db=-5.5,-6.3,-5.8,-6.0",
        "--loss=0.95,1,0.9,0.85", "--jitter=0.02,0,0.05,0.01",
        "--axis", "antisqueezing_db", "--from", "6.3", "--to", "16.3", "--steps", "21",
    ],
    "tshape4_mixed_purity_squeezing_sweep.csv": [
        # modes 1 and 3 pure (mirrored), 2 and 4 impure: the sweep keeps the pure ones mirrored
        "sweep", "--network", "tshape4", "--squeezing-db=-5.5,-6.3,-5.8,-6.0",
        "--antisqueezing-db=5.5,11.9,5.8,11.2", "--loss", "0.93", "--jitter", "0.04",
        "--axis", "squeezing_db", "--from", "-11", "--to", "0", "--steps", "23",
    ],
    "linear4_netlist_sweep.csv": [
        "sweep", "--network", str(LINEAR_NETLIST), "--graph-edges", "1-2,2-3,3-4", *IMPERFECT,
        "--loss=0.95,1,0.9,0.85", "--jitter=0.02,0,0.05,0.01",
        "--axis", "loss", "--from", "1", "--to", "0.5", "--steps", "21",
    ],
}


JSON_REPORTS = sorted(name for name, argv in CASES.items() if argv[0] == "simulate" and name.endswith(".json"))


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == EXIT_OK, (argv, code)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli_stdout(CASES[name]) == expected


@pytest.mark.parametrize("name", JSON_REPORTS)
def test_json_report_reads_back_byte_identically(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert ScenarioReport.from_dict(json.loads(text)).to_json() == text


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    LINEAR_NETLIST.write_text(emit_netlist(linear_program()), encoding="utf-8")
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(cli_stdout(argv), encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
