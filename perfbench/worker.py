"""Closed-loop caller for one benchmark run, in a fresh interpreter.

Started by run.py with the checkout as working directory, `PYTHONPATH` on the
checkout's `src` and BLAS threads pinned to 1.  It imports cvcluster, runs op
0 once untimed, prints ``ready`` and, unless ``--seconds 0``, runs ops 0, 1,
2, ... one after the other until the time is up and at least the workload's
counted sample (``workloads.COUNTED_OPS``) has run.  Each op is generated
before its timer starts.  Between ops a calibration kernel is timed
(calibrate.py): in a helper interpreter that the worker starts after
``ready`` and waits for, or, for cli-process, in a fresh interpreter.
Per-op records go to ``ops.jsonl`` in the run directory, the run summary to
``worker.json``.

With ``--trace 1`` every op runs twice on the same input, once plain and once
traced (alternating which goes first), so the trace overhead is measured per
op; spans are written to ``spans.csv``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calibrate
import workloads
from cvcluster import scenarios
from spans import Tracer

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60


class OpFailed(Exception):
    pass


def library_op(op: dict):
    """One in-process op; returns (rendered output, nullifier levels or None)."""
    cfg = scenarios.ScenarioConfig.from_dict(op["config"])
    if "sweep" in op:
        return scenarios.run_sweep(cfg, **op["sweep"]).to_csv(), None
    report = scenarios.run_scenario(cfg)
    return report.render(), list(report.nullifiers.levels_db)


def cli_op(op: dict, spans_path: str | None = None):
    """One CLI child process, under the tracing launcher when `spans_path` is given; returns (stdout, None)."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "cvcluster.cli", *op["argv"]]
    else:
        cmd = [sys.executable, str(HERE / "cli_launcher.py"), spans_path, *op["argv"]]
    proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        raise OpFailed(f"exit {proc.returncode}: {' '.join(tail)}")
    return proc.stdout.decode("utf-8"), None


def traced_cli_op(op: dict, tracer: Tracer, spans_path: Path):
    """A CLI op under the launcher; the child's spans hang below `cli.process`."""
    idx = tracer.open("cli.process")
    try:
        result = cli_op(op, str(spans_path))
    except BaseException:
        tracer.close(idx, failed=True)
        raise
    tracer.close(idx)
    child = json.loads(spans_path.read_text(encoding="utf-8"))
    base = len(tracer)
    for name, start, end, parent, error in child["spans"]:
        tracer.add(name, start, end, idx if parent < 0 else base + parent, bool(error))
    tracer.factor_cols.extend(child["factor_cols"])
    return result


def timed(fn, *args):
    """Run one op; returns (latency ns, output, levels, error text or None)."""
    t0 = perf_counter_ns()
    try:
        out, levels = fn(*args)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return perf_counter_ns() - t0, None, None, f"{type(exc).__name__}: {exc}"[:300]
    return perf_counter_ns() - t0, out, levels, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True, help="run directory, relative to the checkout")
    args = parser.parse_args(argv)

    is_cli = args.workload == "cli-process"
    run_op = cli_op if is_cli else library_op
    make = functools.partial(workloads.make_op, args.workload, args.seed, run_dir=args.run_dir)

    timed(run_op, make(0))
    print("ready", flush=True)
    if args.seconds <= 0:
        return 0

    run_dir = Path(args.run_dir)
    tracer = Tracer() if args.trace else None
    child_spans = run_dir / "child-spans.json"
    overhead, coverage, traced_ops, kernel_ns = [], [], [], []
    if is_cli:
        helper = None
        time_kernel, interval = calibrate.time_process_kernel, calibrate.PROCESS_INTERVAL_S
    else:
        helper = calibrate.KernelHelper()
        time_kernel, interval = helper.time_kernel, calibrate.INTERVAL_S
    n_ops = 0
    counted = workloads.COUNTED_OPS[args.workload]
    next_calibration = 0.0
    try:
        with open(run_dir / "ops.jsonl", "w", encoding="utf-8") as records:
            deadline = perf_counter() + args.seconds
            while perf_counter() < deadline or n_ops < counted:
                if perf_counter() >= next_calibration:
                    kernel_ns.append((n_ops, time_kernel()))
                    next_calibration = perf_counter() + interval
                i = n_ops
                op = make(i)
                record = {"i": i}
                if tracer is None:
                    lat, out, levels, error = timed(run_op, op)
                else:
                    tracer.op_id = i
                    mark = len(tracer)
                    for traced in ((False, True) if i % 2 == 0 else (True, False)):
                        if not traced:
                            lat, out, levels, error = timed(run_op, op)
                        elif is_cli:
                            traced_lat, t_out, _, t_error = timed(traced_cli_op, op, tracer, child_spans)
                        else:
                            with tracer.install():
                                traced_lat, t_out, _, t_error = timed(run_op, op)
                    record.update(traced_ns=traced_lat, traced_error=t_error, traced_same=t_out == out)
                    traced_ops.append(i)
                    if error is None and t_error is None:
                        overhead.append(traced_lat / lat - 1.0)
                    coverage.append(tracer.root_ns(since=mark) / traced_lat)
                record.update(lat_ns=lat, error=error, out=out, levels=levels)
                records.write(json.dumps(record) + "\n")
                n_ops += 1
        kernel_ns.append((n_ops, time_kernel()))  # closes the last op's bracket
    finally:
        if helper is not None:
            helper.close()

    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    summary = {
        "ops": n_ops,
        "kernel_ns": kernel_ns,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(traced_ops)
        layers["trace.overhead_frac"] = (statistics.median(overhead) if overhead else 0.0, "frac")
        layers["trace.coverage_frac"] = (statistics.median(coverage) if coverage else 0.0, "frac")
        summary["layers"] = layers
        tracer.write_csv(run_dir / "spans.csv")
    (run_dir / "worker.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
