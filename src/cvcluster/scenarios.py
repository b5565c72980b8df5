"""Scenario configs, simulation runs, parameter sweeps, and report serialization.

A scenario describes one end-to-end simulation: squeezed inputs (per-mode dB
levels), a network (one of the built-in names or a netlist file), optional
per-mode loss and phase jitter, and the requested outputs.  Reports carry both
machine precision (JSON, full float precision) and a human rendering
(variances to 3 decimals, dB levels to 1, witness sums to 2).

Runs are deterministic: identical configs produce byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from cvcluster.analysis import (
    GraphSpec,
    NullifierEntry,
    NullifierReport,
    UnsupportedGraphError,
    WitnessInequality,
    WitnessReport,
    full_inseparability_verdict,
    graph_by_name,
    NAMED_GRAPH_EDGES,
    nullifier_report,
)
from cvcluster.gaussian import (
    LEVEL_LIMIT_DB,
    ComplexUnitary,
    apply_unitary,
    impure_squeezed_inputs,
    lossy_channels,
    phase_jitter_mc,
    phase_jitters,
    squeezing_db_to_r,
)
from cvcluster.networks import (
    linear_cluster_unitary,
    linear_program,
    linear_to_square_phases,
    load_netlist,
    program_matrix,
    square_cluster_unitary,
    tshape_cluster_unitary,
    tshape_program,
)

NETWORK_UNITARIES = {
    "linear4": linear_cluster_unitary,
    "square4": square_cluster_unitary,
    "tshape4": tshape_cluster_unitary,
}

# Per-mode fields and the value each mode takes when the field is omitted.
_PER_MODE_DEFAULTS = {"squeezing_db": 0.0, "antisqueezing_db": 0.0, "loss": 1.0, "jitter": 0.0}


class ConfigError(ValueError):
    """Invalid scenario configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _is_real(value) -> bool:
    # exact float and int first: the common case, and cheaper than the ABC check
    return type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _integer(field: str, value) -> int:
    """`value` as an int if it equals one; a bool, a string or a fraction is a ConfigError on `field`."""
    if _is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ConfigError(field, f"expected an integer, got {value!r}")


def _lists(value):
    """Tuples, nested ones too, as JSON-ready lists."""
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def _load_program(path: str):
    """Parse a netlist file; a missing or malformed file is a ConfigError on `network`."""
    try:
        return load_netlist(path)
    except OSError as exc:
        raise ConfigError("network", f"cannot read netlist {path!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError("network", str(exc)) from None


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run.

    Construction is the one place where fields are defaulted, converted and
    checked, raising `ConfigError` with the field path.  Per-mode fields
    (`squeezing_db`, `antisqueezing_db`, `loss`, `jitter`) take a scalar or
    one value per mode and are stored as float tuples; omitted ones are
    0 dB, eta 1 and sigma 0, but an omitted `antisqueezing_db` mirrors a given
    `squeezing_db` (pure inputs).  Per-mode values must be real numbers, node
    labels and `jitter_mc` values integers.  Built-in networks have 4 modes;
    a netlist has as many as the first per-mode list, or as its `MODES` header.
    `witness` None means on for built-in networks, off for netlists.
    `graph_edges` gives a netlist its cluster graph.
    """

    network: str
    squeezing_db: tuple[float, ...] = None
    antisqueezing_db: tuple[float, ...] = None
    loss: tuple[float, ...] = None
    loss_placement: str = "post"
    jitter: tuple[float, ...] = None
    output_format: str = "text"
    witness: bool | None = None
    graph_edges: tuple[tuple[int, int], ...] | None = None
    verify_decompositions: bool = False
    jitter_mc: tuple[int, int] | None = None

    def __post_init__(self):
        if not isinstance(self.network, str) or not self.network:
            raise ConfigError("network", f"expected a network name or netlist path, got {self.network!r}")
        raw = {field: getattr(self, field) for field in _PER_MODE_DEFAULTS}
        for field, value in raw.items():
            if value is not None and not _is_real(value):
                try:
                    value = list(value)
                except TypeError:
                    raise ConfigError(field, f"expected a number or a sequence of numbers, got {value!r}") from None
            raw[field] = value
        if self.network in NETWORK_UNITARIES:
            n = 4
        else:
            n = next((len(v) for v in raw.values() if isinstance(v, list)), None)
            if n is None:
                n = _load_program(self.network).n_modes
        expanded = {}
        for field, default in _PER_MODE_DEFAULTS.items():
            value = raw[field]
            if field == "antisqueezing_db" and value is None and raw["squeezing_db"] is not None:
                items = [0.0 - v for v in expanded["squeezing_db"]]  # -v would turn 0.0 into -0.0
            else:
                items = value if isinstance(value, list) else [default if value is None else value] * n
            if len(items) != n:
                raise ConfigError(field, f"expected one value per mode ({n} modes), got {len(items)}")
            try:  # NaN for anything but a real number, which the finite check rejects
                values = tuple(float(v) if _is_real(v) else math.nan for v in items)
            except OverflowError:
                values = (math.nan,)
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(field, f"expected finite numbers, got {value!r}")
            expanded[field] = items
            object.__setattr__(self, field, values)
        for i, (s, a) in enumerate(zip(self.squeezing_db, self.antisqueezing_db)):
            if not -LEVEL_LIMIT_DB <= s <= 0:
                raise ConfigError(f"squeezing_db[{i}]", f"must lie in [-{LEVEL_LIMIT_DB}, 0] dB, got {s}")
            if not 0 <= a <= LEVEL_LIMIT_DB:
                raise ConfigError(f"antisqueezing_db[{i}]", f"must lie in [0, {LEVEL_LIMIT_DB}] dB, got {a}")
            if a < -s:
                raise ConfigError(f"antisqueezing_db[{i}]", f"unphysical: {a} dB is below -squeezing_db = {-s} dB")
        for i, eta in enumerate(self.loss):
            if not 0.0 <= eta <= 1.0:
                raise ConfigError(f"loss[{i}]", f"transmissivity must lie in [0, 1], got {eta}")
        for i, sig in enumerate(self.jitter):
            if sig < 0.0:
                raise ConfigError(f"jitter[{i}]", f"sigma must be >= 0, got {sig}")
        if self.loss_placement not in ("pre", "post"):
            raise ConfigError("loss_placement", f"expected 'pre' or 'post', got {self.loss_placement!r}")
        if self.output_format not in ("text", "json"):
            raise ConfigError("output_format", f"expected 'text' or 'json', got {self.output_format!r}")
        if self.witness is not None and not isinstance(self.witness, bool):
            raise ConfigError("witness", f"expected true, false or null, got {self.witness!r}")
        if self.graph_edges is not None:
            if self.network in NETWORK_UNITARIES:
                raise ConfigError("graph_edges", "built-in networks define their own graph")
            try:
                pairs = [(a, b) for a, b in self.graph_edges]
            except (TypeError, ValueError):
                raise ConfigError("graph_edges", f"expected a list of node pairs, got {self.graph_edges!r}") from None
            edges = tuple((_integer("graph_edges", a), _integer("graph_edges", b)) for a, b in pairs)
            try:
                GraphSpec(n, frozenset(edges))
            except ValueError as exc:
                raise ConfigError("graph_edges", str(exc)) from None
            object.__setattr__(self, "graph_edges", edges)
        if not isinstance(self.verify_decompositions, bool):
            raise ConfigError("verify_decompositions", f"expected a boolean, got {self.verify_decompositions!r}")
        if self.jitter_mc is not None:
            try:
                samples, seed = self.jitter_mc
            except (TypeError, ValueError):
                raise ConfigError("jitter_mc", f"expected [samples, seed], got {self.jitter_mc!r}") from None
            samples, seed = _integer("jitter_mc", samples), _integer("jitter_mc", seed)
            if samples < 1:
                raise ConfigError("jitter_mc", f"sample count must be >= 1, got {samples}")
            if seed < 0:
                raise ConfigError("jitter_mc", f"seed must be >= 0, got {seed}")
            object.__setattr__(self, "jitter_mc", (samples, seed))

    @classmethod
    def create(cls, network: str, **kwargs) -> "ScenarioConfig":
        """Build a config; the same as calling the constructor."""
        return cls(network=network, **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config", f"expected an object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        if "network" not in data:
            raise ConfigError("network", "required field is missing")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: _lists(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @property
    def n_modes(self) -> int:
        return len(self.squeezing_db)


def read_config_file(path) -> dict:
    """Read a JSON config file into a dict; any failure is a ConfigError on `config`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"invalid JSON in {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config", f"expected a JSON object in {path!r}, got {type(data).__name__}")
    return data


def load_config(path) -> ScenarioConfig:
    """Load a config from a JSON file in the report's config-section format."""
    return ScenarioConfig.from_dict(read_config_file(path))


def _resolve_network(cfg: ScenarioConfig) -> tuple[ComplexUnitary, GraphSpec | None]:
    """Turn the config's network field into a unitary and (maybe) a graph.

    The config is checked; what is left to fail is the content of a netlist
    file: it is missing, does not parse, or its mode count does not match.
    """
    if cfg.network in NETWORK_UNITARIES:
        return NETWORK_UNITARIES[cfg.network](), graph_by_name(cfg.network)
    unitary = program_matrix(_load_program(cfg.network))
    if unitary.n_modes != cfg.n_modes:
        raise ConfigError("squeezing_db", f"netlist has {unitary.n_modes} modes, config has {cfg.n_modes} values")
    graph = None if cfg.graph_edges is None else GraphSpec(unitary.n_modes, frozenset(cfg.graph_edges), "custom")
    return unitary, graph


@dataclass(frozen=True)
class DecompositionCheck:
    """Factor-product fidelity for one network."""

    network: str
    max_deviation: float
    global_phase: float
    phase_aligned_deviation: float
    covariance_deviation: float


@dataclass(frozen=True)
class DecompositionReport:
    checks: tuple[DecompositionCheck, ...]
    square_relation_deviation: float

    def to_dict(self) -> dict:
        return {
            "checks": [dict(vars(c)) for c in self.checks],
            "square_relation_deviation": self.square_relation_deviation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecompositionReport":
        return cls(
            checks=tuple(DecompositionCheck(**c) for c in data["checks"]),
            square_relation_deviation=data["square_relation_deviation"],
        )

    def to_text(self) -> str:
        lines = ["decomposition checks"]
        for c in self.checks:
            lines.append(
                f"  {c.network}: max |product - matrix| = {c.max_deviation:.3e}, "
                f"global phase {c.global_phase:+.3e} rad, "
                f"phase-aligned deviation {c.phase_aligned_deviation:.3e}, "
                f"covariance deviation {c.covariance_deviation:.3e}"
            )
        lines.append(f"  square = phases * linear: max deviation {self.square_relation_deviation:.3e}")
        return "\n".join(lines)


def verify_decompositions() -> DecompositionReport:
    """Compare each factor string against its constant matrix.

    Reports the raw entrywise deviation, the best-fitting global phase with
    the deviation after removing it, and the deviation of the output
    covariances when both constructions act on identical squeezed inputs.
    Discrepancies are reported, never raised.
    """
    levels = [20.0 * r / math.log(10.0) for r in (0.3, 0.5, 0.7, 0.9)]
    probe = impure_squeezed_inputs([-v for v in levels], levels)
    checks = []
    for name, program, constant in (
        ("linear", linear_program(), linear_cluster_unitary()),
        ("tshape", tshape_program(), tshape_cluster_unitary()),
    ):
        product = program_matrix(program)
        dev = float(np.max(np.abs(product.matrix - constant.matrix)))
        overlap = complex(np.trace(constant.matrix.conj().T @ product.matrix))
        phase = float(np.angle(overlap)) if abs(overlap) > 1e-12 else 0.0
        aligned = float(np.max(np.abs(np.exp(-1j * phase) * product.matrix - constant.matrix)))
        cov_dev = float(np.max(np.abs(
            apply_unitary(probe, product).cov - apply_unitary(probe, constant).cov
        )))
        checks.append(DecompositionCheck(
            network=name,
            max_deviation=dev,
            global_phase=phase,
            phase_aligned_deviation=aligned,
            covariance_deviation=cov_dev,
        ))
    square_dev = float(np.max(np.abs(
        linear_to_square_phases().matrix @ linear_cluster_unitary().matrix - square_cluster_unitary().matrix
    )))
    return DecompositionReport(checks=tuple(checks), square_relation_deviation=square_dev)


@dataclass(frozen=True)
class ScenarioReport:
    """Everything produced by one scenario run."""

    config: ScenarioConfig
    nullifiers: NullifierReport | None
    witness: WitnessReport | None
    decompositions: DecompositionReport | None = None

    @property
    def squeezing_r(self) -> tuple[float, ...]:
        """Input squeezing parameters r, one per mode, from the config's levels."""
        return tuple(map(squeezing_db_to_r, self.config.squeezing_db))

    def to_dict(self) -> dict:
        n, w = self.nullifiers, self.witness
        return {
            "config": self.config.to_dict(),
            "inputs": {
                "squeezing_db": list(self.config.squeezing_db),
                "antisqueezing_db": list(self.config.antisqueezing_db),
                "squeezing_r": list(self.squeezing_r),
            },
            "nullifiers": None if n is None else {"graph": n.graph_name, "nodes": [dict(vars(e)) for e in n.entries]},
            "witness": None if w is None else {
                "graph": w.graph_name,
                "delegated_to": w.delegated_to,
                "inequalities": [dict(vars(i)) for i in w.inequalities],
                "fully_inseparable": w.fully_inseparable,
            },
            "decompositions": None if self.decompositions is None else self.decompositions.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioReport":
        """Read back a `to_dict` report; its `inputs` section is derived from the config and not read."""
        n, w, d = data.get("nullifiers"), data.get("witness"), data.get("decompositions")
        return cls(
            config=ScenarioConfig.from_dict(data["config"]),
            nullifiers=None if n is None else NullifierReport(
                graph_name=n["graph"],
                entries=tuple(NullifierEntry(**e) for e in n["nodes"]),
            ),
            witness=None if w is None else WitnessReport(
                graph_name=w["graph"],
                inequalities=tuple(WitnessInequality(**i) for i in w["inequalities"]),
                fully_inseparable=w["fully_inseparable"],
                delegated_to=w["delegated_to"],
            ),
            decompositions=None if d is None else DecompositionReport.from_dict(d),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        cfg = self.config
        def row(values, fmt):
            return " ".join(format(v, fmt) for v in values)
        lines = [
            f"network            : {cfg.network}",
            f"squeezing [dB]     : {row(cfg.squeezing_db, '.1f')}",
            f"antisqueezing [dB] : {row(cfg.antisqueezing_db, '.1f')}",
            f"loss eta ({cfg.loss_placement:<4})    : {row(cfg.loss, '.3f')}",
            f"jitter sigma [rad] : {row(cfg.jitter, '.3f')}",
        ]
        if self.nullifiers is not None:
            lines.append("")
            lines.append(f"nullifier variances (graph {self.nullifiers.graph_name})")
            lines.append("  node  variance  reference  level_dB     ideal")
            for e in self.nullifiers.entries:
                ideal = f"{e.analytic_variance:9.3f}" if e.analytic_variance is not None else "        -"
                lines.append(f"  {e.node:4d}  {e.variance:8.3f}  {e.reference:9.3f}  {e.level_db:8.1f} {ideal}")
        if self.witness is not None:
            lines.append("")
            delegated = f" (tested on {self.witness.delegated_to})" if self.witness.delegated_to else ""
            lines.append(f"witness inequalities, bound 1{delegated}")
            for ineq in self.witness.inequalities:
                verdict = "satisfied" if ineq.satisfied else "violated"
                lines.append(f"  {ineq.label:<13} lhs {ineq.lhs:5.2f}  {verdict}")
            lines.append(f"fully inseparable: {'yes' if self.witness.fully_inseparable else 'no'}")
        if self.decompositions is not None:
            lines.append("")
            lines.append(self.decompositions.to_text())
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        return self.to_json() if self.config.output_format == "json" else self.to_text()


def run_scenario(cfg: ScenarioConfig, _network=None) -> ScenarioReport:
    """Simulate one scenario: inputs, channels, network, and analysis.

    Loss is applied per mode before or after the network according to
    `loss_placement`; phase jitter always acts on the network outputs.
    The run is deterministic, including the Monte-Carlo jitter debug path,
    which derives one seed per mode from the configured seed.  `_network` is
    the (unitary, graph) pair `_resolve_network` gives for `cfg`, passed by
    `run_sweep` so that a sweep resolves its network once, not per point.
    """
    unitary, graph = _resolve_network(cfg) if _network is None else _network
    state = impure_squeezed_inputs(cfg.squeezing_db, cfg.antisqueezing_db)
    losses = {mode: eta for mode, eta in enumerate(cfg.loss, start=1) if eta < 1.0}
    if cfg.loss_placement == "pre":
        state = lossy_channels(state, losses)
    state = apply_unitary(state, unitary)
    if cfg.loss_placement == "post":
        state = lossy_channels(state, losses)
    jitters = {mode: sigma for mode, sigma in enumerate(cfg.jitter, start=1) if sigma > 0.0}
    if cfg.jitter_mc is None:
        state = phase_jitters(state, jitters)
    else:
        samples, seed = cfg.jitter_mc
        for mode, sigma in jitters.items():
            state = phase_jitter_mc(state, mode, sigma, samples=samples, seed=seed + mode - 1)

    nullifiers = None
    if graph is not None:
        nullifiers = nullifier_report(state, graph, squeezing_r=tuple(map(squeezing_db_to_r, cfg.squeezing_db)))

    want_witness = cfg.witness if cfg.witness is not None else (graph is not None and graph.name in NAMED_GRAPH_EDGES)
    witness = None
    if want_witness:
        if graph is None:
            raise UnsupportedGraphError("no witness pairing is defined without a cluster graph")
        witness = full_inseparability_verdict(state, graph, nullifiers)

    decompositions = verify_decompositions() if cfg.verify_decompositions else None
    return ScenarioReport(
        config=cfg,
        nullifiers=nullifiers,
        witness=witness,
        decompositions=decompositions,
    )


SWEEP_AXES = ("squeezing_db", "antisqueezing_db", "loss", "jitter")

# Largest accepted sweep `steps`.  Every grid point is one scenario run whose
# report the sweep keeps, so the flag alone would otherwise set the time and
# memory a run asks for: 10^13 steps failed to allocate the grid array itself.
# 10 000 is 50x a 200-point sweep: 2.0-2.6 s with loss and jitter on four modes (one core, 2-vCPU host).
MAX_SWEEP_STEPS = 10_000


@dataclass(frozen=True)
class SweepResult:
    """One report per grid point along a single config axis."""

    axis: str
    values: tuple[float, ...]
    reports: tuple[ScenarioReport, ...]

    def to_csv(self) -> str:
        """Render the sweep as CSV.

        Columns: axis, value, variance_<node>..., level_db_<node>...,
        witness_lhs_<k>..., fully_inseparable.  Witness cells are empty when
        no witness was evaluated.  Node and witness counts follow the first
        row's report.
        """
        first = self.reports[0]
        n_nodes = len(first.nullifiers.entries)
        n_ineq = len(first.witness.inequalities) if first.witness is not None else 3
        header = (
            ["axis", "value"]
            + [f"variance_{k}" for k in range(1, n_nodes + 1)]
            + [f"level_db_{k}" for k in range(1, n_nodes + 1)]
            + [f"witness_lhs_{k}" for k in range(1, n_ineq + 1)]
            + ["fully_inseparable"]
        )
        rows = [",".join(header)]
        for value, report in zip(self.values, self.reports):
            cells = [self.axis, repr(value)]
            cells += [repr(e.variance) for e in report.nullifiers.entries]
            cells += [repr(e.level_db) for e in report.nullifiers.entries]
            if report.witness is not None:
                cells += [repr(i.lhs) for i in report.witness.inequalities]
                cells.append("true" if report.witness.fully_inseparable else "false")
            else:
                cells += [""] * n_ineq
                cells.append("")
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"


def run_sweep(cfg: ScenarioConfig, axis: str, start: float, stop: float, steps: int) -> SweepResult:
    """Run the scenario at `steps` evenly spaced values of one uniform axis.

    The axis value replaces the corresponding per-mode field on every mode.
    When sweeping `squeezing_db`, modes that were configured pure (dB levels
    mirrored) stay pure along the sweep; explicitly impure modes keep their
    configured antisqueezing.  Rows are ordered by grid index.

    Args:
        cfg: base configuration.
        axis: one of "squeezing_db", "antisqueezing_db", "loss", "jitter".
        start: first grid value.
        stop: last grid value.
        steps: number of grid points, 1..MAX_SWEEP_STEPS.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    steps = _integer("steps", steps)
    if steps < 1:
        raise ConfigError("steps", f"need at least one grid point, got {steps!r}")
    if steps > MAX_SWEEP_STEPS:
        raise ConfigError("steps", f"{steps} grid points exceed the cap of {MAX_SWEEP_STEPS}")
    if not math.isfinite(stop - start):
        raise ConfigError("start", f"sweep bounds must be finite with a finite span, got {start!r} to {stop!r}")
    network = _resolve_network(cfg)
    if network[1] is None:
        raise ConfigError("graph_edges", "sweeps need nullifier output; netlist sweeps require graph_edges")
    values = tuple(float(v) for v in np.linspace(start, stop, steps))
    reports = []
    for value in values:
        overrides = {axis: (value,) * cfg.n_modes}
        if axis == "squeezing_db":
            overrides["antisqueezing_db"] = tuple(
                0.0 - value if a == -s else a
                for s, a in zip(cfg.squeezing_db, cfg.antisqueezing_db)
            )
        point = dataclasses.replace(cfg, **overrides)
        reports.append(run_scenario(point, network))
    return SweepResult(axis=axis, values=values, reports=tuple(reports))
