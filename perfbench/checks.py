"""Output checks for the benchmark's op records.

An op fails when it raised, exited non-zero, or its output is wrong:

* JSON reports must round-trip byte-identically through
  `ScenarioReport.from_dict` and carry the levels the report object held;
* text reports must show those levels at the stated 1-decimal rounding;
* sweep CSV rows must be in grid order, with every witness cell equal to
  "all lhs < 1";
* CLI stdout must be byte-identical to the in-process render of the same
  config;
* a traced op must produce the same output as the plain run of the op.

Separately, nullifier levels on a seeded sample of ops are compared with the
50-digit reference; a level more than 1e-6 dB off is a precision miss (the
precision the README states), not a failed op.
"""

from __future__ import annotations

import json
import math
import random

import reference
from cvcluster.scenarios import ScenarioReport

PRECISION_DB = 1e-6
# scenario-mix: the first ops of a run are checked against the reference (the
# misses are rare, so the sample is large to keep their share steady); the
# workload's category deck repeats every 100 ops, so the sample holds the mix
# exactly.
SCENARIO_PRECISION_OPS = 2000
# sweep-grid: grid points per op checked against the reference.
SWEEP_PRECISION_ROWS = 3


class Checker:
    """Checks op records of one run and accumulates precision results."""

    def __init__(self, workload: str, seed: int, expected_output=None):
        self.workload = workload
        self.seed = seed
        self.expected_output = expected_output  # op -> in-process output, for CLI ops
        self.errors_db = []
        self._references = {}
        self._expected = {}

    @property
    def checked(self) -> int:
        return len(self.errors_db)

    @property
    def misses(self) -> int:
        return sum(1 for e in self.errors_db if not e <= PRECISION_DB)

    def reference_levels(self, config: dict) -> list:
        key = json.dumps(config, sort_keys=True)
        if key not in self._references:
            self._references[key] = [float(v) for v in reference.nullifier_levels(config)]
        return self._references[key]

    def _compare(self, config: dict, levels) -> None:
        for got, want in zip(levels, self.reference_levels(config)):
            self.errors_db.append(abs(got - want) if math.isfinite(got) else math.inf)

    def check(self, op: dict, record: dict) -> str | None:
        """Returns why the op failed, or None; records precision on sampled ops."""
        if record["error"] is not None:
            return record["error"]
        if "traced_same" in record:
            if record["traced_error"] is not None:
                return f"traced run failed: {record['traced_error']}"
            if not record["traced_same"]:
                return "traced run changed the output"
        out = record["out"]
        if "argv" in op:
            key = json.dumps(op, sort_keys=True)
            if key not in self._expected:
                self._expected[key] = self.expected_output(op)
            if out != self._expected[key]:
                return "CLI stdout differs from the in-process render"
        if "sweep" in op:
            return self._check_sweep(op, record["i"], out)
        return self._check_report(op, record["i"], out, record["levels"])

    def _check_report(self, op: dict, i: int, out: str, levels) -> str | None:
        if out.startswith("{"):
            data = json.loads(out)
            if ScenarioReport.from_dict(data).to_json() != out:
                return "JSON report does not round-trip byte-identically"
            json_levels = [node["level_db"] for node in data["nullifiers"]["nodes"]]
            if levels is not None and json_levels != levels:
                return "JSON levels differ from the report's levels"
            levels = json_levels
        else:
            rows = _text_nullifier_rows(out)
            if [row[3] for row in rows if len(row) > 3] != [format(v, ".1f") for v in levels]:
                return "text report levels differ from the report's levels"
        if self.workload != "scenario-mix" or i < SCENARIO_PRECISION_OPS:
            self._compare(op["config"], levels)
        return None

    def _check_sweep(self, op: dict, i: int, csv: str) -> str | None:
        sweep = op["sweep"]
        lines = csv.splitlines()
        header = lines[0].split(",")
        n = sum(1 for h in header if h.startswith("variance_"))
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != sweep["steps"]:
            return f"sweep has {len(rows)} rows, expected {sweep['steps']}"
        values = [float(r[1]) for r in rows]
        step_sign = math.copysign(1.0, sweep["stop"] - sweep["start"])
        if (values[0] != sweep["start"] or values[-1] != sweep["stop"]
                or any((b - a) * step_sign <= 0 for a, b in zip(values, values[1:]))):
            return "sweep rows are not in grid order"
        lhs_cols = [k for k, h in enumerate(header) if h.startswith("witness_lhs_")]
        for r in rows:
            if r[0] != sweep["axis"]:
                return f"sweep row names axis {r[0]!r}"
            want = "true" if all(float(r[k]) < 1.0 for k in lhs_cols) else "false"
            if r[-1] != want:
                return "witness verdict disagrees with its lhs cells"
        if self.workload == "cli-process":
            picks = range(len(rows))
        else:
            picks = random.Random(f"rows:{self.seed}:{i}").sample(range(len(rows)), SWEEP_PRECISION_ROWS)
        for k in picks:
            point = reference.sweep_point_config(op["config"], sweep["axis"], values[k])
            self._compare(point, [float(v) for v in rows[k][2 + n:2 + 2 * n]])
        return None


def _text_nullifier_rows(text: str) -> list:
    lines = text.splitlines()
    start = next((k for k, line in enumerate(lines) if line.startswith("nullifier variances")), len(lines))
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows
