"""Scenario configs, simulation runs, parameter sweeps, and report serialization.

A scenario describes one end-to-end simulation: squeezed inputs (per-mode dB
levels), a network (one of the built-in names or a netlist file), optional
per-mode loss and phase jitter, and the requested outputs.  Reports carry both
machine precision (JSON, full float precision) and a human rendering
(variances to 3 decimals, dB levels to 1, witness sums to 2).

A run builds no state: an `InputFrame` of the network and graph measures a
sweep in passes of consecutive points, and a scenario as a pass of one.
Runs are deterministic: identical configs produce byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import marshal
import math
import sys
from dataclasses import dataclass
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from cvcluster.analysis import (
    WITNESS_BOUND,
    GraphSpec,
    NullifierReport,
    WitnessReport,
    graph_by_name,
    witness_tested_on,
)
from cvcluster.gaussian import (
    LEVEL_LIMIT_DB,
    ComplexUnitary,
    InputFrame,
    apply_unitary,
    as_integer,
    impure_squeezed_inputs,
    is_real,
    squeezing_db_to_r,
)
from cvcluster.networks import (
    NETWORK_CACHE_SIZE,
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


def _integer(field: str, value) -> int:
    """`value` as an int if it equals one; a bool, a string or a fraction is a ConfigError on `field`."""
    integer = as_integer(value)
    if integer is None:
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return integer


def _lists(value):
    """Tuples, nested ones too, as JSON-ready lists."""
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def _load_netlist(path: str) -> ComplexUnitary:
    """:func:`load_netlist`, with a missing or malformed file a ConfigError on `network`."""
    try:
        return load_netlist(path)
    except OSError as exc:
        raise ConfigError("network", f"cannot read netlist {path!r}: {exc}") from None
    except ValueError as exc:  # not UTF-8, or does not parse
        raise ConfigError("network", str(exc)) from None


@functools.lru_cache(maxsize=NETWORK_CACHE_SIZE)
def _custom_graph(n_nodes: int, edges: frozenset) -> GraphSpec:
    """The custom cluster graph of a netlist config, with its nullifier table, built once per edge set."""
    return GraphSpec(n_nodes, edges, "custom")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run.

    Construction is the one place where fields are defaulted, converted and
    checked, raising `ConfigError` with the field path.  Per-mode fields
    (`squeezing_db`, `antisqueezing_db`, `loss`, `jitter`) take a scalar or
    one value per mode and are stored as float tuples; omitted ones are
    0 dB, eta 1 and sigma 0, but an omitted `antisqueezing_db` mirrors a given
    `squeezing_db` (pure inputs).  Per-mode values must be real numbers, node
    labels integers.  Built-in networks have 4 modes; a netlist has as many
    as the first per-mode list, or as its `MODES` header.
    `graph_edges` gives a netlist its cluster graph.  A run evaluates the
    witness when its graph has a witness pairing (`witness_tested_on`).
    `squeezing_r`, the input squeezing parameters r of the squeezing levels,
    is computed once, with the config; it is not a field.
    """

    network: str
    squeezing_db: tuple[float, ...] = None
    antisqueezing_db: tuple[float, ...] = None
    loss: tuple[float, ...] = None
    loss_placement: str = "post"
    jitter: tuple[float, ...] = None
    output_format: str = "text"
    graph_edges: tuple[tuple[int, int], ...] | None = None
    verify_decompositions: bool = False

    def __post_init__(self):
        if not isinstance(self.network, str) or not self.network:
            raise ConfigError("network", f"expected a network name or netlist path, got {self.network!r}")
        raw = {field: getattr(self, field) for field in _PER_MODE_DEFAULTS}
        for field, value in raw.items():
            if value is not None and not is_real(value):
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
                n = _load_netlist(self.network).n_modes
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
                values = tuple(float(v) if is_real(v) else math.nan for v in items)
            except OverflowError:
                values = (math.nan,)
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(field, f"expected finite numbers, got {value!r}")
            expanded[field] = items
            object.__setattr__(self, field, values)
        object.__setattr__(self, "squeezing_r", tuple(map(squeezing_db_to_r, self.squeezing_db)))
        self._check_ranges()
        if self.loss_placement not in ("pre", "post"):
            raise ConfigError("loss_placement", f"expected 'pre' or 'post', got {self.loss_placement!r}")
        if self.output_format not in ("text", "json"):
            raise ConfigError("output_format", f"expected 'text' or 'json', got {self.output_format!r}")
        if self.graph_edges is not None:
            if self.network in NETWORK_UNITARIES:
                raise ConfigError("graph_edges", "built-in networks define their own graph")
            try:
                pairs = [(a, b) for a, b in self.graph_edges]
            except (TypeError, ValueError):
                raise ConfigError("graph_edges", f"expected a list of node pairs, got {self.graph_edges!r}") from None
            edges = tuple((_integer("graph_edges", a), _integer("graph_edges", b)) for a, b in pairs)
            try:
                _custom_graph(n, frozenset(edges))
            except ValueError as exc:
                raise ConfigError("graph_edges", str(exc)) from None
            object.__setattr__(self, "graph_edges", edges)
        if not isinstance(self.verify_decompositions, bool):
            raise ConfigError("verify_decompositions", f"expected a boolean, got {self.verify_decompositions!r}")

    def _check_ranges(self):
        """Check each per-mode value's range; the values are already finite float tuples of one length."""
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

    def _sweep_point(self, axis: str, value: float) -> "ScenarioConfig":
        """This checked config with per-mode field `axis` set to the finite float `value` on every mode.

        Gives what the constructor gives for those fields, without running it
        again, and checks nothing: `run_sweep` checks the grid's ranges.  When
        `squeezing_db` moves, modes configured pure (antisqueezing mirroring
        squeezing) stay pure.  Off the squeezing axis the point shares this
        config's `squeezing_r`.
        """
        overrides = {axis: (value,) * self.n_modes}
        if axis == "squeezing_db":
            overrides["antisqueezing_db"] = tuple(
                0.0 - value if a == -s else a for s, a in zip(self.squeezing_db, self.antisqueezing_db)
            )
            overrides["squeezing_r"] = (squeezing_db_to_r(value),) * self.n_modes
        point = object.__new__(type(self))
        vars(point).update(vars(self), **overrides)
        return point

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config", f"expected an object, got {type(data).__name__}")
        unknown = data.keys() - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        if "network" not in data:
            raise ConfigError("network", "required field is missing")
        return cls(**data)

    def to_dict(self) -> dict:
        return {name: _lists(getattr(self, name)) for name in _CONFIG_FIELDS}

    @property
    def n_modes(self) -> int:
        return len(self.squeezing_db)


_CONFIG_FIELDS = tuple(sorted(f.name for f in dataclasses.fields(ScenarioConfig)))


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


def _cluster_graph(cfg: ScenarioConfig) -> GraphSpec | None:
    """The config's cluster graph: a built-in network's own, a netlist's `graph_edges`, or None."""
    if cfg.network in NETWORK_UNITARIES:
        return graph_by_name(cfg.network)
    return None if cfg.graph_edges is None else _custom_graph(cfg.n_modes, frozenset(cfg.graph_edges))


def _resolve_network(cfg: ScenarioConfig) -> tuple[ComplexUnitary, GraphSpec | None]:
    """Turn the config's network field into a unitary and (maybe) a graph.

    The config is checked; what is left to fail is the content of a netlist
    file: it is missing, does not parse, or its mode count does not match.
    """
    if cfg.network in NETWORK_UNITARIES:
        return NETWORK_UNITARIES[cfg.network](), graph_by_name(cfg.network)
    unitary = _load_netlist(cfg.network)
    if unitary.n_modes != cfg.n_modes:
        raise ConfigError("squeezing_db", f"netlist has {unitary.n_modes} modes, config has {cfg.n_modes} values")
    return unitary, _cluster_graph(cfg)


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
            "checks": [dict(sorted(vars(c).items())) for c in self.checks],
            "square_relation_deviation": self.square_relation_deviation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecompositionReport":
        """Read back a `to_dict` report; a malformed one is a ConfigError on `decompositions`."""
        try:
            report = cls(
                checks=tuple(DecompositionCheck(**c) for c in data["checks"]),
                square_relation_deviation=data["square_relation_deviation"],
            )
        except (TypeError, KeyError) as exc:
            raise ConfigError("decompositions", f"expected a decomposition report, got {data!r}: {exc!r}") from None
        values = [report.square_relation_deviation]
        values += [v for c in report.checks for k, v in vars(c).items() if k != "network"]
        if not all(is_real(v) for v in values):
            raise ConfigError("decompositions", f"expected real deviations and phases, got {data!r}")
        return report

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


@functools.cache
def verify_decompositions() -> DecompositionReport:
    """Compare each factor string against its constant matrix.

    Reports the raw entrywise deviation, the best-fitting global phase with
    the deviation after removing it, and the deviation of the output
    covariances when both constructions act on identical squeezed inputs.
    Discrepancies are reported, never raised.  The report is a process
    constant, built on first use and shared.
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
        checks.append(DecompositionCheck(name, dev, phase, aligned, cov_dev))
    square_dev = float(np.max(np.abs(
        linear_to_square_phases().matrix @ linear_cluster_unitary().matrix - square_cluster_unitary().matrix
    )))
    return DecompositionReport(checks=tuple(checks), square_relation_deviation=square_dev)


def _read_section(data: dict, section: str, items: str, key: str, build):
    """`build(values)`, with the `key` measurement of each item in `data[section][items]`.

    Each value must be a positive finite number, and `build` must accept
    their count; otherwise a ConfigError names the offending path.
    """
    body = data.get(section)
    if not isinstance(body, dict) or not isinstance(body.get(items), list):
        raise ConfigError(section, f"expected an object with a list of {items}, got {body!r}")
    values = []
    for i, item in enumerate(body[items]):
        value = item.get(key) if isinstance(item, dict) else None
        if not (is_real(value) and 0.0 < value < math.inf):
            raise ConfigError(f"{section}.{items}[{i}].{key}", f"expected a positive finite number, got {value!r}")
        values.append(float(value))
    try:
        return build(values)
    except ValueError as exc:
        raise ConfigError(f"{section}.{items}", str(exc)) from None


_ABSENT = object()


def _first_difference(derived, written, path: str = "") -> str | None:
    """The first path, keys in sorted order, at which `written` would serialize differently from `derived`."""
    if type(derived) is type(written) and repr(derived) == repr(written):  # -0.0 != 0.0; dicts keep key order
        return None
    if isinstance(derived, dict) and isinstance(written, dict):
        keys = sorted(derived.keys() | written.keys(), key=str)
        children = [(f"{path}.{k}" if path else str(k), derived.get(k, _ABSENT), written.get(k, _ABSENT)) for k in keys]
    elif isinstance(derived, list) and isinstance(written, list) and len(derived) == len(written):
        children = [(f"{path}[{i}]", d, w) for i, (d, w) in enumerate(zip(derived, written))]
    else:
        return path
    return next(filter(None, (_first_difference(d, w, sub) for sub, d, w in children)), None)


# Each report shape's JSON template (see `to_json`), built on first use; past NETWORK_CACHE_SIZE, the oldest goes.
_TEMPLATES = {}
_DUMPS_ONLY = frozenset(map(str, (math.inf, -math.inf, math.nan, True, False, None)))  # json.dumps writes otherwise
_BOOLS = ("false", "true")


def _slots(tree):
    """A `to_dict` tree with each number, string and bool replaced by a `%s` slot; None stays."""
    if isinstance(tree, (dict, list)):
        return {k: _slots(v) for k, v in tree.items()} if isinstance(tree, dict) else list(map(_slots, tree))
    return None if tree is None else "%s"


@dataclass(frozen=True)
class ScenarioReport:
    """Everything produced by one scenario run."""

    config: ScenarioConfig
    nullifiers: NullifierReport | None
    witness: WitnessReport | None
    decompositions: DecompositionReport | None = None

    def to_dict(self) -> dict:
        """The report as `to_json` writes it, with its keys in sorted order at every level."""
        n, w = self.nullifiers, self.witness
        return {
            "config": self.config.to_dict(),
            "decompositions": None if self.decompositions is None else self.decompositions.to_dict(),
            "inputs": {
                "antisqueezing_db": list(self.config.antisqueezing_db),
                "squeezing_db": list(self.config.squeezing_db),
                "squeezing_r": list(self.config.squeezing_r),
            },
            "nullifiers": None if n is None else {
                "graph": n.graph_name,
                "nodes": [{"analytic_variance": ideal, "level_db": level, "node": a, "reference": ref, "variance": v}
                          for a, v, ref, level, ideal in zip(count(1), n.variances, n.graph.references, n.levels_db,
                                                             n.analytic_variances or repeat(None))],
            },
            "witness": None if w is None else {
                "delegated_to": w.delegated_to,
                "fully_inseparable": w.fully_inseparable,
                "graph": w.graph_name,
                "inequalities": [{"bound": WITNESS_BOUND, "label": label, "lhs": lhs, "satisfied": lhs < WITNESS_BOUND}
                                 for label, lhs in zip(w.labels, w.lhs_values)],
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioReport":
        """Rebuild a `to_dict` report from its config and measurements, and check the rest against them.

        Only the config, each node's `variance`, each inequality's `lhs` and
        the `decompositions` section are read.  Everything else is derived
        from the config by the constructors `run_scenario` uses: which sections
        are present, the graph, references and analytic column, the dB
        levels, the witness labels, `delegated_to`, the verdicts and
        `inputs`.  A malformed report, a measurement that is not a positive
        finite number, or a written value that differs from the derived one
        raises `ConfigError` naming the first offending path, such as
        `witness.inequalities[0].satisfied`.
        """
        if not isinstance(data, dict):
            raise ConfigError("report", f"expected an object, got {type(data).__name__}")
        if "config" not in data:
            raise ConfigError("config", "required field is missing")
        cfg = ScenarioConfig.from_dict(data["config"])
        graph = _cluster_graph(cfg)
        nullifiers = witness = decompositions = None
        if graph is not None:
            nullifiers = _read_section(data, "nullifiers", "nodes", "variance",
                                       lambda variances: NullifierReport(graph, variances, cfg.squeezing_r))
            if witness_tested_on(graph):
                witness = _read_section(data, "witness", "inequalities", "lhs", functools.partial(WitnessReport, graph))
        if cfg.verify_decompositions:
            decompositions = DecompositionReport.from_dict(data.get("decompositions"))
        report = cls(cfg, nullifiers, witness, decompositions)
        derived = report.to_dict()
        try:  # version 2 shares no references and writes a float's 8 bytes: int, float, bool, -0.0 and key order differ
            same = marshal.dumps(derived, 2) == marshal.dumps(data, 2)
        except ValueError:  # an object marshal cannot write, or nesting too deep
            same = False
        if not same and (path := _first_difference(derived, data)) is not None:
            raise ConfigError(path, "does not match the report derived from the config and the measurements")
        return report

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), sort_keys=True, indent=2)` and a newline, filled into the shape's template.

        The values are gathered in the order of the sorted keys, as `json.dumps` writes them; a report holding a
        non-finite float is written by `json.dumps` itself.
        """
        cfg, n, w, d = self.config, self.nullifiers, self.witness, self.decompositions
        values = [*cfg.antisqueezing_db, *chain.from_iterable(cfg.graph_edges or ()), *cfg.jitter, *cfg.loss,
                  _string(cfg.loss_placement), _string(cfg.network), _string(cfg.output_format), *cfg.squeezing_db,
                  _BOOLS[cfg.verify_decompositions]]
        if d is not None:
            values += [_string(v) if k == "network" else v for c in d.checks for k, v in sorted(vars(c).items())]
            values.append(d.square_relation_deviation)
        values += [*cfg.antisqueezing_db, *cfg.squeezing_db, *cfg.squeezing_r]
        analytic = None if n is None else n.analytic_variances
        if n is not None:
            columns = (n.levels_db, range(1, len(n.variances) + 1), n.graph.references, n.variances)
            values.append(_string(n.graph_name))
            values += chain.from_iterable(zip(*columns) if analytic is None else zip(analytic, *columns))
        if w is not None:
            values += [*([] if w.delegated_to is None else [_string(w.delegated_to)]), _BOOLS[w.fully_inseparable],
                       _string(w.graph_name)]
            for label, lhs in zip(w.labels, w.lhs_values):
                values += [WITNESS_BOUND, _string(label), lhs, _BOOLS[lhs < WITNESS_BOUND]]
        values = tuple(map(str, values))
        if not _DUMPS_ONLY.isdisjoint(values):
            return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        shape = (cfg.n_modes, cfg.graph_edges and len(cfg.graph_edges), n and (len(n.variances), analytic is None),
                 w and (len(w.lhs_values), w.delegated_to), d and len(d.checks))  # a report section is never falsy
        if (template := _TEMPLATES.get(shape)) is None:
            marked = json.dumps(_slots(self.to_dict()), sort_keys=True, indent=2)
            template = _TEMPLATES[shape] = marked.replace('"%s"', "%s") + "\n"
            if len(_TEMPLATES) > NETWORK_CACHE_SIZE:
                del _TEMPLATES[next(iter(_TEMPLATES))]
        return template % values

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
        n, w = self.nullifiers, self.witness
        if n is not None:
            lines += ["", f"nullifier variances (graph {n.graph_name})"]
            lines.append("  node  variance  reference  level_dB     ideal")
            rows = zip(n.variances, n.graph.references, n.levels_db, n.analytic_variances or [None] * len(n.variances))
            for a, (variance, reference, level_db, ideal) in enumerate(rows, start=1):
                ideal = f"{ideal:9.3f}" if ideal is not None else "        -"
                lines.append(f"  {a:4d}  {variance:8.3f}  {reference:9.3f}  {level_db:8.1f} {ideal}")
        if w is not None:
            delegated = f" (tested on {w.delegated_to})" if w.delegated_to else ""
            lines += ["", f"witness inequalities, bound 1{delegated}"]
            for label, lhs in zip(w.labels, w.lhs_values):
                verdict = "satisfied" if lhs < WITNESS_BOUND else "violated"
                lines.append(f"  {label:<13} lhs {lhs:5.2f}  {verdict}")
            lines.append(f"fully inseparable: {'yes' if w.fully_inseparable else 'no'}")
        if self.decompositions is not None:
            lines += ["", self.decompositions.to_text()]
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        return self.to_json() if self.config.output_format == "json" else self.to_text()


# Most bytes of arrays one measurement pass holds, `InputFrame.point_bytes` a point: 3.5 KiB
# on linear4, and 0.9 MiB on a 64-mode chain graph, so 10 000 of those at once would take 9 GB.
STACK_BYTES = 4 * 2**20


@functools.lru_cache(maxsize=NETWORK_CACHE_SIZE)
def _frame(unitary: ComplexUnitary, graph: GraphSpec) -> InputFrame:
    """The input frame of the rows that measure `graph` (`GraphSpec.measured_rows`) on `unitary`, built once."""
    return InputFrame(unitary.symplectic, graph.measured_rows[0])


def _measure(points, network: tuple) -> list[tuple]:
    """Each config's (nullifier variances, witness sums), one `InputFrame` pass for all.

    The points share `network`, `_resolve_network`'s (unitary, graph), and
    their loss placement.  The lists are both None without a graph, and the
    sums None on a graph without a witness pairing.
    """
    unitary, graph = network
    k = len(points)
    if graph is None:
        return [(None, None)] * k
    variances = _frame(unitary, graph).variances(
        [p.antisqueezing_db + p.squeezing_db for p in points], [p.loss for p in points],
        [p.jitter for p in points], points[0].loss_placement == "post",
    )
    pairs = graph.measured_rows[1]
    lhs = [None] * k if pairs is None else (variances.take(pairs[0], 1) + variances.take(pairs[1], 1)).tolist()
    return list(zip(variances[:, :graph.n_nodes].tolist(), lhs))


def run_scenario(cfg: ScenarioConfig, _network=None, _measured=None) -> ScenarioReport:
    """Simulate one scenario: inputs, channels, network, and analysis.

    Loss is applied per mode before or after the network according to
    `loss_placement`; phase jitter always acts on the network outputs, in
    closed form.  The run is deterministic, and measured by `_measure` as a
    pass of one point; no state is built.  `run_sweep` passes `_network`,
    the (unitary, graph) pair `_resolve_network` gives for `cfg`, so that a
    sweep resolves its network once, and `_measured`, the point's row of its
    pass, so that only the report is built per point.
    """
    network = _resolve_network(cfg) if _network is None else _network
    variances, lhs = _measure([cfg], network)[0] if _measured is None else _measured
    graph = network[1]
    nullifiers = None if variances is None else NullifierReport(graph, variances, cfg.squeezing_r)
    witness = None if lhs is None else WitnessReport(graph, lhs)
    decompositions = verify_decompositions() if cfg.verify_decompositions else None
    return ScenarioReport(cfg, nullifiers, witness, decompositions)


SWEEP_AXES = ("squeezing_db", "antisqueezing_db", "loss", "jitter")

# Largest accepted sweep `steps`.  The sweep keeps a report per grid point, so
# the flag alone would otherwise set the time and memory a run asks for: 10^13
# steps failed to allocate the grid array itself.  10 000 is 50x a 200-point
# sweep: 0.11-0.17 s for a loss sweep of `measured_gap`, loss and jitter on four
# modes (one core of a 2-vCPU host), keeping 12 MiB of reports and grid, and
# 0.10-0.18 s more for its CSV.  Measurement adds at most STACK_BYTES on top,
# however many points and modes it has.
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
        n_nodes = len(first.nullifiers.variances)
        n_ineq = len(first.witness.lhs_values) if first.witness is not None else 3
        header = (
            ["axis", "value"]
            + [f"variance_{k}" for k in range(1, n_nodes + 1)]
            + [f"level_db_{k}" for k in range(1, n_nodes + 1)]
            + [f"witness_lhs_{k}" for k in range(1, n_ineq + 1)]
            + ["fully_inseparable"]
        )
        rows = [",".join(header)]
        blank = [""] * (n_ineq + 1)
        for value, report in zip(self.values, self.reports):
            n, w = report.nullifiers, report.witness
            cells = [self.axis, *map(repr, (value, *n.variances, *n.levels_db))]
            cells += blank if w is None else [*map(repr, w.lhs_values), "true" if w.fully_inseparable else "false"]
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"


def run_sweep(cfg: ScenarioConfig, axis: str, start: float, stop: float, steps: int) -> SweepResult:
    """Run the scenario at `steps` evenly spaced values of one uniform axis.

    The axis value replaces the corresponding per-mode field on every mode.
    When sweeping `squeezing_db`, modes that were configured pure (dB levels
    mirrored) stay pure along the sweep; explicitly impure modes keep their
    configured antisqueezing.  Rows are ordered by grid index.  The points
    are measured together, in passes of consecutive points that hold at
    most STACK_BYTES each; no point builds a state, and a point measures
    as it does alone.  Each point's report is built by `run_scenario` from
    its row of the pass's measurements.  The grid is checked once, here:
    a bad point raises the constructor's `ConfigError` for its fields.

    Args:
        cfg: base configuration.
        axis: one of "squeezing_db", "antisqueezing_db", "loss", "jitter".
        start: first grid value, a real number (not a bool).
        stop: last grid value, a real number (not a bool).
        steps: number of grid points, 1..MAX_SWEEP_STEPS.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    steps = _integer("steps", steps)
    if steps < 1:
        raise ConfigError("steps", f"need at least one grid point, got {steps!r}")
    if steps > MAX_SWEEP_STEPS:
        raise ConfigError("steps", f"{steps} grid points exceed the cap of {MAX_SWEEP_STEPS}")
    for field, bound in (("start", start), ("stop", stop)):
        if not is_real(bound):
            raise ConfigError(field, f"expected a real number, got {bound!r}")
        if not abs(bound) <= sys.float_info.max:  # infinite, NaN, or an int or a fraction past the float range
            raise ConfigError(field, "expected a finite number within the float range")
    if not math.isfinite(float(stop) - float(start)):
        raise ConfigError("start", f"sweep bounds must be finite with a finite span, got {start!r} to {stop!r}")
    network = _resolve_network(cfg)
    if network[1] is None:
        raise ConfigError("graph_edges", "sweeps need nullifier output; netlist sweeps require graph_edges")
    values = tuple(float(v) for v in np.linspace(start, stop, steps))
    points = [cfg._sweep_point(axis, value) for value in values]
    try:  # each axis accepts an interval of values, and every grid point lies between the two ends
        points[0]._check_ranges()
        points[-1]._check_ranges()
        ends_pass = True
    except ConfigError:
        ends_pass = False
    if not ends_pass:  # raise the error of the first bad point in grid order
        for point in points:
            point._check_ranges()
    per_pass = max(1, STACK_BYTES // _frame(*network).point_bytes)
    reports = []
    for first in range(0, steps, per_pass):
        chunk = points[first:first + per_pass]
        reports += [run_scenario(point, network, row) for point, row in zip(chunk, _measure(chunk, network))]
    return SweepResult(axis=axis, values=values, reports=tuple(reports))
