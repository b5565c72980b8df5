"""Fixed kernels that track the speed the machine gives the benchmark.

On a shared host the speed one process gets changes by tens of percent in
phases of seconds to minutes (other tenants on the same cores), far more
than the run-to-run spread of the program itself.  Between ops the worker
has a kernel timed, and run.py scales each op's latency by nominal / (the
mean of the kernel times measured last before and first after that op):
times are reported as they would be at the nominal speed.  Neither kernel runs any cvcluster code, so no change to
the program moves them.

* `KernelHelper`, for in-process ops, times `kernel`, shaped like one
  scenario of the simulator (squeezed inputs, a four-mode network, loss,
  validation by eigvalsh and np.block, nullifiers from a covariance factor,
  JSON), in a helper interpreter of its own.  Nothing the program leaves in
  the worker (a grown heap, a cache, changed numpy state) reaches the
  kernel, so a slowdown of that kind is reported, not scaled away.  The
  worker waits for each reply, so only one of the two runs at a time.
* `time_process_kernel`, for CLI ops and set-up, starts an interpreter that
  imports numpy: process start and the numpy import are most of a CLI op.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

# Median kernel times on the reference machine (2 vCPU, Python 3.11, numpy
# 2.4, OpenBLAS pinned to one thread); they only set the scale of reported
# times.  The intervals keep each kernel at a few percent of a run.
NOMINAL_NS = 16_000_000
INTERVAL_S = 0.5
NOMINAL_PROCESS_NS = 170_000_000
PROCESS_INTERVAL_S = 2.0


_R2, _R10 = 1 / math.sqrt(2), 1 / math.sqrt(10)
_U = np.array([
    [_R2, _R10, 2j * _R10, 0],
    [1j * _R2, -1j * _R10, 2 * _R10, 0],
    [0, -2 * _R10, 1j * _R10, 1j * _R2],
    [0, -2j * _R10, -_R10, _R2],
])


def _state(cov, factor):
    """Validate like a covariance constructor: symmetry, uncertainty, factor."""
    n = cov.shape[0] // 2
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    if np.max(np.abs(cov - cov.T)) > 1e-8 or np.min(np.linalg.eigvalsh(cov + 0.25j * omega)) < -1e-8:
        raise ValueError("invalid covariance")
    if np.max(np.abs(factor @ factor.T - cov)) > 1e-8 * (1 + np.max(np.abs(cov))):
        raise ValueError("invalid factor")
    return cov, factor


def kernel() -> float:
    """Four-mode squeezed inputs through a network, loss and nullifiers, 20 times."""
    acc = 0.0
    for k in range(20):
        levels = [-6.0 - 0.01 * k, -6.3, -5.8, -6.1, 11.0, 10.5, 11.2, 10.9]
        var = np.array([0.25 * 10.0 ** (v / 10.0) for v in levels[4:] + levels[:4]])
        cov, factor = _state(np.diag(var), np.diag(np.sqrt(var)))
        if np.max(np.abs(_U @ _U.conj().T - np.eye(4))) > 1e-8:
            raise ValueError("not unitary")
        sym = np.block([[_U.real, -_U.imag], [_U.imag, _U.real]])
        cov, factor = _state(sym @ cov @ sym.T, sym @ factor)
        for mode in range(4):
            scale = np.ones(8)
            scale[[mode, mode + 4]] = math.sqrt(0.93)
            cov = cov * np.outer(scale, scale)
            cov[mode, mode] += 0.0175
            cov[mode + 4, mode + 4] += 0.0175
            extra = np.zeros((8, 2))
            extra[mode, 0] = extra[mode + 4, 1] = math.sqrt(0.0175)
            cov, factor = _state(cov, np.hstack([scale[:, None] * factor, extra]))
        row = {}
        for node in range(4):
            c = np.zeros(8)
            c[4 + node] = 1.0
            c[[m for m in (node - 1, node + 1) if 0 <= m < 4]] = -1.0
            w = factor.T @ c
            row[f"level_db_{node}"] = 10.0 * math.log10(float(w @ w) / 0.75)
        acc += len(json.dumps(row, sort_keys=True))
    return acc


def time_kernel() -> int:
    """Kernel wall time in ns, with the garbage collector held off."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        kernel()
        return perf_counter_ns() - t0
    finally:
        gc.enable()


def current_cpu() -> int | None:
    """The CPU the calling thread runs on, or None where libc cannot say."""
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
    except (OSError, AttributeError):
        return None
    return cpu if cpu >= 0 else None


class KernelHelper:
    """A helper interpreter that times `kernel` whenever it is asked.

    Each time it first moves to the CPU the caller is on: on a shared host
    the speed of the two cores differs from moment to moment, and the
    helper, woken after half a second asleep, would otherwise time whichever
    core it lands on.  It
    inherits the caller's environment (BLAS threads pinned) and is stopped,
    and waited for, by `close`.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time_kernel(self) -> int:
        cpu = current_cpu()
        self.proc.stdin.write(f"{'' if cpu is None else cpu}\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply.strip().isdigit():
            raise RuntimeError("calibration helper stopped")
        return int(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def time_process_kernel() -> int:
    """Wall time in ns of a fresh interpreter that imports numpy."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return perf_counter_ns() - t0


if __name__ == "__main__":
    # helper mode: one kernel time per input line, until stdin closes
    time_kernel()  # warm-up, not reported
    allowed = os.sched_getaffinity(0)
    for line in sys.stdin:
        cpu = line.strip()
        os.sched_setaffinity(0, {int(cpu)} if cpu.isdigit() else allowed)
        print(time_kernel(), flush=True)
