"""Compare benchmark results of two commits, one row per workload and metric.

Usage:

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the lines that ``run.py --out FILE`` appends.  Runs are
paired by seed.  For every end-to-end metric of BENCHMARK.json the row shows
each side's median and quartiles, the spread (quartile distance over the
median), the share of pairs the change won (ties count for neither) and a
verdict:

* ``better``: the change won at least 9/10 of the pairs and the medians differ
  by more than the base's quartile distance;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: a side's spread exceeds the bound, unless every change run
  beats every base run;
* ``within bound`` otherwise.

The unscaled times of the provenance line (``calibration.wall``) get rows
of their own, ``wall.<metric>``, judged with the bound of the scaled metric:
a slowdown that also slowed the calibration kernel shows there.

Per-layer metrics of traced runs (``--trace 1``) are listed with their medians
only; they carry no bound.  With one file, only its medians and spreads are
shown.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {seed: {metric: value}}}"""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                meta = rec["meta"]
                values = {name: m["value"] for name, m in rec["result"]["metrics"].items()}
                wall = meta.get("calibration", {}).get("wall", {})
                values.update({f"wall.{name}": value for name, value in wall.items()})
                runs.setdefault((meta["workload"], meta["trace"]), {})[meta["seed"]] = values
    return runs


def summary(values: list) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base: dict, change: dict, metric: dict) -> tuple:
    """(share of pairs won by the change, verdict) for one metric."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s][name] - base[s][name]) > 0)
    won = wins / len(seeds) if seeds else 0.0
    b = [base[s][name] for s in base]
    c = [change[s][name] for s in change]
    b_med, b_q1, b_q3, b_spread = summary(b)
    c_med, _, _, c_spread = summary(c)
    all_better = min(sign * v for v in c) > max(sign * v for v in b)
    gain = sign * (c_med - b_med)
    if won >= 0.9 and gain > (b_q3 - b_q1):
        return won, "better"
    if max(b_spread, c_spread) > bound and not all_better:
        return won, "unresolved"
    if b_med and -gain / abs(b_med) > bound:
        return won, "worse"
    return won, "within bound"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    for (workload, trace), b_runs in sorted(base.items()):
        c_runs = None if change is None else change.get((workload, trace))
        print(f"\n{workload} ({'traced' if trace else 'end to end'}), "
              f"{len(b_runs)} base runs" + ("" if c_runs is None else f", {len(c_runs)} change runs"))
        if trace:
            metrics = spec["per_layer"]
        else:
            # the unscaled times, judged with the bounds of their scaled twins
            wall = [dict(m, name=f"wall.{m['name']}") for m in spec["end_to_end"] if f"wall.{m['name']}" in next(iter(b_runs.values()))]
            metrics = spec["end_to_end"] + wall
        for metric in metrics:
            name = metric["name"]
            b_med, b_q1, b_q3, b_spread = summary([r[name] for r in b_runs.values()])
            row = f"  {name:<44} base {fmt(b_med)} [{fmt(b_q1)}, {fmt(b_q3)}]"
            if trace or c_runs is None:
                if not trace:
                    flag = "unresolved" if b_spread > metric["bound"] else "steady"
                    row += f"  spread {b_spread:.3f} ({flag}, bound {metric['bound']})"
                if c_runs is not None:
                    row += f"  change {fmt(summary([r[name] for r in c_runs.values()])[0])}"
            else:
                c_med, c_q1, c_q3, _ = summary([r[name] for r in c_runs.values()])
                won, result = verdict(b_runs, c_runs, metric)
                row += f"  change {fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}]  won {won:.0%}  {result}"
            print(row + f" {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
