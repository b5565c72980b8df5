"""Cluster graphs, nullifier variances, and full-inseparability witnesses.

A graph node a carries the nullifier p_a - sum_{b in N(a)} x_b over its
neighborhood N(a); an ideal cluster state drives every nullifier variance to
zero as the input squeezing grows.  For the three built-in four-mode graphs
the module also provides the closed-form residual variances implied by the
generating networks, which depend only on the squeezed input quadratures
(antisqueezing never enters), and the pairwise variance inequalities whose
simultaneous satisfaction certifies full inseparability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from cvcluster.gaussian import (
    GaussianState,
    VACUUM_VARIANCE,
    apply_unitary,
    combination_variance,
    variance_to_db,
)
from cvcluster.networks import linear_to_square_phases


class UnsupportedGraphError(ValueError):
    """Raised when a witness verdict is requested for a graph without defined pairings."""


NAMED_GRAPH_EDGES = {
    "linear4": ((1, 2), (2, 3), (3, 4)),
    "square4": ((1, 3), (1, 4), (2, 3), (2, 4)),
    "tshape4": ((1, 2), (1, 3), (1, 4)),
}

# Node pairs (a, b) whose nullifier variances are summed in each inequality;
# every sum must stay below 1 for full inseparability.
WITNESS_PAIRS = {
    "linear4": ((1, 2), (3, 2), (3, 4)),
    "tshape4": ((2, 1), (3, 1), (4, 1)),
}


@dataclass(frozen=True)
class GraphSpec:
    """Cluster graph: node count, undirected edge set, and a name label."""

    n_nodes: int
    edges: frozenset[tuple[int, int]]
    name: str = "custom"

    def __post_init__(self):
        norm = set()
        for edge in self.edges:
            a, b = edge
            if a == b:
                raise ValueError(f"self-loop on node {a} is not allowed")
            if not (1 <= a <= self.n_nodes and 1 <= b <= self.n_nodes):
                raise ValueError(f"edge {edge} out of range 1..{self.n_nodes}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        if self.name in NAMED_GRAPH_EDGES:
            expected = {tuple(sorted(e)) for e in NAMED_GRAPH_EDGES[self.name]}
            if self.n_nodes != 4 or set(self.edges) != expected:
                raise ValueError(f"graph named {self.name!r} must have 4 nodes and edges {sorted(expected)}")

    def neighbors(self, a: int) -> tuple[int, ...]:
        if not 1 <= a <= self.n_nodes:
            raise ValueError(f"node {a} out of range 1..{self.n_nodes}")
        return tuple(sorted(b for edge in self.edges for b in edge if a in edge and b != a))

    @cached_property
    def nullifiers(self) -> tuple[tuple[np.ndarray, float], ...]:
        """Per node, built once: its nullifier coefficients and vacuum-input reference (1 + |N(a)|)/4."""
        return tuple((nullifier_coefficients(self, a), (1 + len(self.neighbors(a))) * VACUUM_VARIANCE)
                     for a in range(1, self.n_nodes + 1))


@cache
def graph_by_name(name: str) -> GraphSpec:
    if name not in NAMED_GRAPH_EDGES:
        raise ValueError(f"unknown graph name {name!r}; expected one of {sorted(NAMED_GRAPH_EDGES)}")
    return GraphSpec(4, frozenset(NAMED_GRAPH_EDGES[name]), name)


linear4 = partial(graph_by_name, "linear4")
square4 = partial(graph_by_name, "square4")
tshape4 = partial(graph_by_name, "tshape4")


def nullifier_coefficients(graph: GraphSpec, a: int) -> np.ndarray:
    """Coefficient vector of p_a - sum_{b in N(a)} x_b in (x..., p...) ordering."""
    n = graph.n_nodes
    neighbors = graph.neighbors(a)  # validates the node range
    c = np.zeros(2 * n)
    c[n + a - 1] = 1.0
    for b in neighbors:
        c[b - 1] = -1.0
    c.flags.writeable = False  # shared through GraphSpec.nullifiers
    return c


@dataclass(frozen=True)
class NullifierEntry:
    """Measured data for one node's nullifier."""

    node: int
    variance: float
    reference: float
    level_db: float
    analytic_variance: float | None = None


@dataclass(frozen=True)
class NullifierReport:
    """Per-node nullifier variances with dB levels against the vacuum reference."""

    graph_name: str
    entries: tuple[NullifierEntry, ...]

    @property
    def variances(self) -> tuple[float, ...]:
        return tuple(e.variance for e in self.entries)

    @property
    def levels_db(self) -> tuple[float, ...]:
        return tuple(e.level_db for e in self.entries)


def nullifier_report(
    state: GaussianState,
    graph: GraphSpec,
    squeezing_r: tuple[float, float, float, float] | None = None,
) -> NullifierReport:
    """Evaluate every node's nullifier variance on a state.

    The dB level of node a is taken against its vacuum-input reference
    (1 + |N(a)|)/4.  For the three built-in graphs, passing the input
    squeezing parameters fills the closed-form expectation column.

    Args:
        state: the candidate cluster state.
        graph: graph defining the nullifier of each node.
        squeezing_r: optional input squeezing parameters (r_1 .. r_4) used
            for the analytic column; ignored for custom graphs.
    """
    if state.n_modes != graph.n_nodes:
        raise ValueError(f"state has {state.n_modes} modes but graph has {graph.n_nodes} nodes")
    analytic = None
    if squeezing_r is not None and graph.name in NAMED_GRAPH_EDGES:
        analytic = analytic_residual_variances(graph.name, squeezing_r)
    entries = []
    for a, (coeffs, ref) in enumerate(graph.nullifiers, start=1):
        var = combination_variance(state, coeffs)
        entries.append(NullifierEntry(
            node=a,
            variance=var,
            reference=ref,
            level_db=variance_to_db(var, ref),
            analytic_variance=None if analytic is None else float(analytic[a - 1]),
        ))
    return NullifierReport(graph_name=graph.name, entries=tuple(entries))


def analytic_residual_variances(kind: str, r) -> np.ndarray:
    """Closed-form nullifier variances of the three built-in networks.

    Each nullifier residual is a combination of squeezed input quadratures
    only, so its variance is a weighted sum of e^{-2 r_i}/4 terms:

    * linear:  (2 e1, 5/2 e3 + 1/2 e4, 1/2 e1 + 5/2 e2, 2 e4)
    * square:  (1/2 e1 + 5/2 e2) twice, then (5/2 e3 + 1/2 e4) twice
    * T shape: (4 e2, 2 e1, 1/2 e1 + e3 + 1/2 e4, same)

    with e_i = e^{-2 r_i}/4.

    Args:
        kind: "linear4", "square4" or "tshape4" (the "4" suffix is optional).
        r: the four input squeezing parameters.
    """
    e = np.exp(-2.0 * np.asarray(r, dtype=float)) * VACUUM_VARIANCE
    if e.shape != (4,):
        raise ValueError(f"expected 4 squeezing parameters, got shape {e.shape}")
    name = kind if kind.endswith("4") else kind + "4"
    if name == "linear4":
        return np.array([
            2.0 * e[0],
            2.5 * e[2] + 0.5 * e[3],
            0.5 * e[0] + 2.5 * e[1],
            2.0 * e[3],
        ])
    if name == "square4":
        side_a = 0.5 * e[0] + 2.5 * e[1]
        side_b = 2.5 * e[2] + 0.5 * e[3]
        return np.array([side_a, side_a, side_b, side_b])
    if name == "tshape4":
        arm = 0.5 * e[0] + e[2] + 0.5 * e[3]
        return np.array([4.0 * e[1], 2.0 * e[0], arm, arm])
    raise ValueError(f"unknown network kind {kind!r}")


def _combo(n: int, terms) -> np.ndarray:
    c = np.zeros(2 * n)
    for sign, quad, mode in terms:
        c[(0 if quad == "x" else n) + mode - 1] = sign
    return c


# Quadrature identities connecting the square state (phases applied to the
# linear state) with combinations measured directly on the linear state.
# Each pair (square-side combination, linear-side combination) is an exact
# operator identity, so the variances agree on any state.
_EQUIVALENCE_IDENTITIES = (
    ([(1, "p", 1), (-1, "x", 3), (-1, "x", 4)], [(-1, "p", 1), (1, "p", 3), (-1, "x", 4)]),
    ([(1, "p", 2), (-1, "x", 3), (-1, "x", 4)], [(-1, "x", 2), (1, "p", 3), (-1, "x", 4)]),
    ([(1, "p", 3), (-1, "x", 1), (-1, "x", 2)], [(1, "x", 1), (-1, "p", 2), (1, "x", 3)]),
    ([(1, "p", 4), (-1, "x", 1), (-1, "x", 2)], [(1, "x", 1), (-1, "p", 2), (1, "p", 4)]),
)


@dataclass(frozen=True)
class IdentityCheckResult:
    ok: bool
    residuals: tuple[float, ...]
    tolerance: float


def equivalence_identities_check(linear_state: GaussianState, tolerance: float = 1e-12) -> IdentityCheckResult:
    """Check the four linear/square quadrature identities on a given state.

    The square-side combination is evaluated on the state after the local
    phases that map the linear network to the square one; the linear-side
    combination is evaluated directly.  Both are operator identities, so the
    residuals stay at float noise for any input, including lossy states.

    Args:
        linear_state: a 4-mode state produced by the linear-cluster network.
        tolerance: maximum allowed absolute variance difference.

    Returns:
        Flag plus the four absolute variance differences.
    """
    if linear_state.n_modes != 4:
        raise ValueError(f"expected a 4-mode state, got {linear_state.n_modes} modes")
    square_state = apply_unitary(linear_state, linear_to_square_phases())
    residuals = []
    for square_terms, linear_terms in _EQUIVALENCE_IDENTITIES:
        v_square = combination_variance(square_state, _combo(4, square_terms))
        v_linear = combination_variance(linear_state, _combo(4, linear_terms))
        residuals.append(abs(v_square - v_linear))
    residuals = tuple(residuals)
    return IdentityCheckResult(ok=max(residuals) < tolerance, residuals=residuals, tolerance=tolerance)


@dataclass(frozen=True)
class WitnessInequality:
    """One pairwise inequality: sum of two nullifier variances against the bound 1."""

    label: str
    lhs: float
    bound: float
    satisfied: bool


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the full-inseparability test.

    `delegated_to` is set when the verdict was computed on a locally
    equivalent graph (the square state inherits the linear-state
    inequalities).
    """

    graph_name: str
    inequalities: tuple[WitnessInequality, ...]
    fully_inseparable: bool
    delegated_to: str | None = None

    @property
    def lhs_values(self) -> tuple[float, ...]:
        return tuple(i.lhs for i in self.inequalities)


def witness_evaluate(pairs, labels=None, graph_name: str = "custom") -> WitnessReport:
    """Evaluate inequalities sum(v_a + v_b) < 1 from paired nullifier variances.

    Args:
        pairs: iterable of (variance, variance) tuples, all entries positive.
        labels: optional inequality labels, one per pair.
        graph_name: name recorded in the report.
    """
    pairs = [tuple(map(float, p)) for p in pairs]
    if labels is None:
        labels = [f"pair{i}" for i in range(1, len(pairs) + 1)]
    if len(labels) != len(pairs):
        raise ValueError(f"{len(labels)} labels for {len(pairs)} pairs")
    inequalities = []
    for label, (va, vb) in zip(labels, pairs):
        if va <= 0.0 or vb <= 0.0:
            raise ValueError(f"variances must be positive, got ({va}, {vb}) in {label}")
        lhs = va + vb
        inequalities.append(WitnessInequality(label=label, lhs=lhs, bound=1.0, satisfied=lhs < 1.0))
    return WitnessReport(
        graph_name=graph_name,
        inequalities=tuple(inequalities),
        fully_inseparable=all(i.satisfied for i in inequalities),
    )


@cache
def _square_to_linear_phases():
    return linear_to_square_phases().adjoint()


def full_inseparability_verdict(state: GaussianState, graph: GraphSpec, nullifiers=None) -> WitnessReport:
    """Nullifier variances plus witness inequalities in one call.

    Supported graphs are linear4 and tshape4; square4 is handled by undoing
    the local phases and testing the locally equivalent linear state, which
    the report marks via `delegated_to`.  Custom graphs have no defined
    pairing and raise :class:`UnsupportedGraphError`.  `nullifiers`, the
    state's :func:`nullifier_report` on `graph`, saves computing the
    variances again; square4 tests other combinations and does not read it.
    """
    if state.n_modes != graph.n_nodes:
        raise ValueError(f"state has {state.n_modes} modes but graph has {graph.n_nodes} nodes")
    if graph.name == "square4":
        linear_state = apply_unitary(state, _square_to_linear_phases())
        inner = full_inseparability_verdict(linear_state, linear4())
        return WitnessReport(
            graph_name="square4",
            inequalities=inner.inequalities,
            fully_inseparable=inner.fully_inseparable,
            delegated_to="linear4",
        )
    if graph.name not in WITNESS_PAIRS:
        raise UnsupportedGraphError(f"no witness pairing is defined for graph {graph.name!r}")
    variances = (nullifier_report(state, graph) if nullifiers is None else nullifiers).variances
    pairs = [(variances[a - 1], variances[b - 1]) for a, b in WITNESS_PAIRS[graph.name]]
    labels = [f"node{a}+node{b}" for a, b in WITNESS_PAIRS[graph.name]]
    return witness_evaluate(pairs, labels=labels, graph_name=graph.name)


def db_to_variance(level_db: float, reference: float) -> float:
    """Variance at a dB level relative to a reference, the inverse of variance_to_db."""
    if reference <= 0.0:
        raise ValueError(f"reference must be positive, got {reference}")
    if not math.isfinite(level_db):
        raise ValueError(f"dB level must be finite, got {level_db}")
    return reference * 10.0 ** (level_db / 10.0)
