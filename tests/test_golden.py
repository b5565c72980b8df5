"""Golden outputs: `cli.main` stdout must match the files in tests/golden byte for byte.

The files pin the byte-identical contract of every refactor: the same config
gives the same text, JSON and CSV.  A change that is meant to move output bits
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and explains in CHANGES.md which outputs moved and why.  Netlist runs are left
out, since their JSON carries the netlist's file path.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from cvcluster.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MEASURED_GAP = str(ROOT / "configs" / "measured_gap.json")
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
    "jitter_mc.json": ["simulate", "--config", MEASURED_GAP, "--jitter-mc", "1000", "7", "--format", "json"],
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
}


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(cli_stdout(argv), encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
