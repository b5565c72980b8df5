"""Span tracing of cvcluster from outside the package.

`Tracer.install()` swaps each traced public function for a wrapper at every
reference its callers use (module globals of the cvcluster modules, the
entries of `NETWORK_UNITARIES`, and the methods and constructors of the
traced classes) and puts the originals back on exit.  Spans are kept in
flat arrays in memory and written out once, at the end of a run.

A call that re-enters a span of the same name (for example the ScenarioConfig
constructor inside `ScenarioConfig.from_dict`) is folded into the outer span,
so `calls` counts the outer calls only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter_ns

# cvcluster modules whose globals may hold a reference to a traced function.
MODULES = (
    "cvcluster",
    "cvcluster.gaussian",
    "cvcluster.networks",
    "cvcluster.analysis",
    "cvcluster.scenarios",
    "cvcluster.cli",
)

# span name -> (defining module, function names)
FUNCTION_SPANS = {
    "scenarios.run_scenario": ("cvcluster.scenarios", ("run_scenario",)),
    "scenarios.run_sweep": ("cvcluster.scenarios", ("run_sweep",)),
    "scenarios.verify_decompositions": ("cvcluster.scenarios", ("verify_decompositions",)),
    "networks.cluster_unitary": (
        "cvcluster.networks",
        ("linear_cluster_unitary", "square_cluster_unitary", "tshape_cluster_unitary"),
    ),
    "networks.load_netlist": ("cvcluster.networks", ("load_netlist",)),
    "networks.program_matrix": ("cvcluster.networks", ("program_matrix",)),
    "gaussian.impure_squeezed_vacuum": ("cvcluster.gaussian", ("impure_squeezed_vacuum",)),
    "gaussian.tensor": ("cvcluster.gaussian", ("tensor",)),
    "gaussian.apply_unitary": ("cvcluster.gaussian", ("apply_unitary",)),
    "gaussian.lossy_channel": ("cvcluster.gaussian", ("lossy_channel",)),
    "gaussian.phase_jitter": ("cvcluster.gaussian", ("phase_jitter",)),
    "gaussian.combination_variance": ("cvcluster.gaussian", ("combination_variance",)),
    "analysis.nullifier_report": ("cvcluster.analysis", ("nullifier_report",)),
    "analysis.full_inseparability_verdict": ("cvcluster.analysis", ("full_inseparability_verdict",)),
}

# (span name, defining module, class, attributes); SweepResult.to_csv renders
# a sweep the way ScenarioReport.render renders a scenario, so both are one span.
METHOD_SPANS = (
    ("scenarios.config", "cvcluster.scenarios", "ScenarioConfig", ("__init__", "from_dict")),
    ("scenarios.render", "cvcluster.scenarios", "ScenarioReport", ("render",)),
    ("scenarios.render", "cvcluster.scenarios", "SweepResult", ("to_csv",)),
    ("gaussian.GaussianState", "cvcluster.gaussian", "GaussianState", ("__init__",)),
    ("gaussian.ComplexUnitary", "cvcluster.gaussian", "ComplexUnitary", ("__init__",)),
)

# Spans recorded by the cli-process caller and launcher, not by wrappers.
CLI_SPANS = ("cli.process", "cli.import", "cli.main")

SPAN_NAMES = CLI_SPANS + (
    "scenarios.config",
    "scenarios.run_scenario",
    "scenarios.run_sweep",
    "scenarios.render",
    "scenarios.verify_decompositions",
    "networks.cluster_unitary",
    "networks.load_netlist",
    "networks.program_matrix",
    "gaussian.GaussianState",
    "gaussian.ComplexUnitary",
    "gaussian.impure_squeezed_vacuum",
    "gaussian.tensor",
    "gaussian.apply_unitary",
    "gaussian.lossy_channel",
    "gaussian.phase_jitter",
    "gaussian.combination_variance",
    "analysis.nullifier_report",
    "analysis.full_inseparability_verdict",
)


class Tracer:
    """In-memory span store: one row per span in parallel arrays."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.start = array("q")
        self.end = array("q")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.factor_cols = array("i")
        self.op_id = -1
        self._stack = []

    def __len__(self):
        return len(self.start)

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        idx = self.add(name, 0, 0, self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.start[idx] = perf_counter_ns()
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = perf_counter_ns()
        self.error[idx] = int(failed)
        self._stack.pop()

    def add(self, name: str, start: int, end: int, parent: int, failed: bool = False) -> int:
        """Record a finished span, for example one measured in another process."""
        idx = len(self.start)
        self.start.append(start)
        self.end.append(end)
        self.name_id.append(self._ids[name])
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.error.append(int(failed))
        return idx

    def wrap(self, name: str, fn, after=None):
        nid = self._ids[name]
        stack = self._stack
        names = self.name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            if after is not None:
                after(args)
            return result

        return traced

    def _record_factor(self, args) -> None:
        factor = args[0].cov_factor
        self.factor_cols.append(0 if factor is None else factor.shape[1])

    @contextlib.contextmanager
    def install(self):
        """Wrap every traced function and method; restore the originals on exit."""
        restore = []
        try:
            modules = [importlib.import_module(m) for m in MODULES]
            table = importlib.import_module("cvcluster.scenarios").NETWORK_UNITARIES
            for span, (home, fnames) in FUNCTION_SPANS.items():
                home_mod = importlib.import_module(home)
                for fname in fnames:
                    original = getattr(home_mod, fname)
                    wrapped = self.wrap(span, original)
                    for mod in modules:
                        if getattr(mod, fname, None) is original:
                            restore.append((mod, fname, original))
                            setattr(mod, fname, wrapped)
                    for key, value in table.items():
                        if value is original:
                            restore.append((table, key, original))
                            table[key] = wrapped
            for span, home, cls_name, attrs in METHOD_SPANS:
                cls = getattr(importlib.import_module(home), cls_name)
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    after = self._record_factor if span == "gaussian.GaussianState" else None
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(span, raw.__func__))
                    else:
                        wrapped = self.wrap(span, raw, after)
                    restore.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def rows(self):
        """Spans as (name, start_ns, end_ns, parent, op, error) tuples."""
        for k in range(len(self.start)):
            yield (self.names[self.name_id[k]], self.start[k], self.end[k], self.parent[k], self.op[k], self.error[k])

    def self_times(self) -> list:
        """Per span: duration minus the time covered by its direct children."""
        own = [self.end[k] - self.start[k] for k in range(len(self.start))]
        selfs = own[:]
        for k, p in enumerate(self.parent):
            if p >= 0:
                selfs[p] -= own[k]
        return selfs

    def layer_metrics(self, ops: list) -> dict:
        """Per-span calls, self time and errors per traced op, over the ops given."""
        n_ops = max(len(ops), 1)
        wanted = set(ops)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        errors = [0] * len(self.names)
        for k, st in enumerate(self.self_times()):
            if self.op[k] in wanted:
                nid = self.name_id[k]
                calls[nid] += 1
                self_ns[nid] += st
                errors[nid] += self.error[k]
        metrics = {}
        for nid, name in enumerate(self.names):
            metrics[f"{name}.calls_per_op"] = (calls[nid] / n_ops, "count")
            metrics[f"{name}.self_us_per_op"] = (self_ns[nid] / 1e3 / n_ops, "us")
            metrics[f"{name}.errors"] = (errors[nid], "count")
        cols = self.factor_cols
        metrics["gaussian.factor_cols_per_state"] = (sum(cols) / len(cols) if cols else 0.0, "count")
        return metrics

    def root_ns(self, since: int = 0) -> int:
        """Total duration of the top-level spans recorded from index `since` on."""
        return sum(self.end[k] - self.start[k] for k in range(since, len(self.start)) if self.parent[k] < 0)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op,error\n")
            for k, row in enumerate(self.rows()):
                fh.write(f"{k},{','.join(str(v) for v in row)}\n")
