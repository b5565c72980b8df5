"""cvcluster benchmark: one run of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0 [--out results.jsonl]

The run writes its inputs under ``.perfbench-runs/`` in the checkout, times
set-up in fresh interpreters, runs the closed loop in a worker process
(worker.py) for ``--seconds``, checks every op's output, prints each metric
by name with its unit, one JSON line of provenance, and, as the last line,
the result object.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run.  The exit code is non-zero, with
no result line, when the run itself cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ".perfbench-runs"

# BLAS and OpenMP pools pinned to one thread in every process of the benchmark.
PIN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Fresh interpreters started to time set-up; the timed worker adds one more.
# Each is preceded by one process calibration kernel, which scales it.
SETUP_PROBES = 4
WORKER_GRACE_S = 120

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ok_frac": "frac",
    "precision_ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def start_worker(args, run_dir: str, env: dict, seconds: float):
    """Start worker.py; returns the process and the time until it was ready."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--run-dir", run_dir,
    ]
    stderr = open(ROOT / run_dir / "worker-stderr.txt", "ab")
    t0 = perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)
    finally:
        stderr.close()
    line = proc.stdout.readline()
    ready_s = perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RunError(f"worker did not start; see {run_dir}/worker-stderr.txt")
    return proc, ready_s


def stop(proc, timeout: float = 10.0) -> int:
    """Wait for a worker, killing it when it overruns; returns its exit code."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker overran its time") from None
    finally:
        proc.stdout.close()


def provenance(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cvcluster").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": PIN_ENV,
    }


def quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run(args) -> dict:
    if not (ROOT / "src" / "cvcluster" / "__init__.py").is_file():
        raise RunError("no cvcluster sources under src/; run from a full checkout")
    os.environ.update(PIN_ENV)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    from checks import Checker
    from cvcluster.networks import emit_netlist, linear_program
    from worker import library_op

    run_dir = f"{RUNS_DIR}/{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    (ROOT / run_dir).mkdir(parents=True)
    workloads.write_inputs(args.workload, args.seed, ROOT, run_dir, emit_netlist(linear_program()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PIN_ENV)

    # (set-up time, process kernel time just before it) per fresh interpreter
    setup = []
    for _ in range(SETUP_PROBES):
        kernel_ns = calibrate.time_process_kernel()
        proc, ready_s = start_worker(args, run_dir, env, 0)
        setup.append((ready_s, kernel_ns))
        if stop(proc, timeout=60) != 0:
            raise RunError("set-up probe failed")
    kernel_ns = calibrate.time_process_kernel()
    proc, ready_s = start_worker(args, run_dir, env, args.seconds)
    setup.append((ready_s, kernel_ns))
    if stop(proc, timeout=args.seconds + WORKER_GRACE_S) != 0:
        raise RunError(f"worker failed; see {run_dir}/worker-stderr.txt")
    summary = json.loads((ROOT / run_dir / "worker.json").read_text(encoding="utf-8"))

    checker = Checker(args.workload, args.seed, expected_output=lambda op: library_op(op)[0])
    # Times are scaled to the nominal machine speed (see calibrate.py), each
    # op by the mean of the kernels timed last before it and first after it.
    nominal = calibrate.NOMINAL_PROCESS_NS if args.workload == "cli-process" else calibrate.NOMINAL_NS
    kernels = summary["kernel_ns"]
    k = 0
    counted = workloads.COUNTED_OPS[args.workload]
    latencies, wall_latencies, busy_ns, wall_busy_ns, failures, wrong = [], [], 0.0, 0, {}, 0
    failed = 0
    with open(ROOT / run_dir / "ops.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            while k + 1 < len(kernels) and kernels[k + 1][0] <= record["i"]:
                k += 1
            after = kernels[k + 1] if k + 1 < len(kernels) else kernels[k]
            slowdown = (kernels[k][1] + after[1]) / 2 / nominal
            busy_ns += record["lat_ns"] / slowdown
            wall_busy_ns += record["lat_ns"]
            op = workloads.make_op(args.workload, args.seed, record["i"], run_dir)
            problem = checker.check(op, record)
            if problem is None:
                latencies.append(record["lat_ns"] / 1e6 / slowdown)
                wall_latencies.append(record["lat_ns"] / 1e6)
                continue
            kind = problem.split("(")[0].strip()
            failures[kind] = failures.get(kind, 0) + 1
            if record["error"] is None:
                wrong += 1
            if record["i"] < counted:
                failed += 1
    (ROOT / run_dir / "ops.jsonl").unlink()
    # attempted, failed and ok_frac cover the counted sample, which every run
    # completes; ops past it feed the times, and a wrong output anywhere
    # still makes `correct` false.
    attempted = counted
    if summary["ops"] < counted or not latencies:
        raise RunError("the counted ops did not all run" if latencies else "no op completed")

    calibration = {
        "kernel_ms": statistics.median(ns for _, ns in summary["kernel_ns"]) / 1e6,
        "setup_kernel_ms": statistics.median(ns for _, ns in setup) / 1e6,
        "wall_setup_s": statistics.median(s for s, _ in setup),
    }
    if args.trace:
        metrics = dict(summary["layers"])
        metrics["analysis.max_err_db"] = (max(checker.errors_db, default=0.0), "dB")
    else:
        calibration["wall"] = {
            "ops_per_s": len(latencies) / (wall_busy_ns / 1e9),
            "latency_ms_p50": quantile(wall_latencies, 50),
            "latency_ms_p90": quantile(wall_latencies, 90),
        }
        values = {
            "ops_per_s": len(latencies) / (busy_ns / 1e9),
            "latency_ms_p50": quantile(latencies, 50),
            "latency_ms_p90": quantile(latencies, 90),
            "ok_frac": 1.0 - failed / attempted,
            "precision_ok_frac": 1.0 - checker.misses / max(checker.checked, 1),
            "setup_s": statistics.median(s * calibrate.NOMINAL_PROCESS_NS / ns for s, ns in setup),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_run": summary["ops"],
        "failures": failures,
        "checked_levels": checker.checked,
        "calibration": calibration,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one cvcluster benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append the run's provenance and result to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta = provenance(args)
    meta["calibration"] = result["calibration"]

    print(f"workload {args.workload}, seed {args.seed}, {result['ops_run']} ops run, "
          f"{result['failed']} of the {result['attempted']} counted ops failed, "
          f"{result['checked_levels']} levels checked against the reference")
    for problem, count in sorted(result["failures"].items()):
        print(f"  failed x{count} (of all ops run): {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "result": line}, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
