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

from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from cvcluster.gaussian import (
    GaussianState,
    VACUUM_VARIANCE,
    as_integer,
    combination_variance,  # noqa: F401  (the one-combination form, also importable from here)
    combination_variances,
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
    """Cluster graph: node count, undirected edge set, and a name label.

    The node count and the edge labels are integers (2.0 passes, 2.5, "2" and
    True do not); a wrong one is a ValueError naming its field.
    """

    n_nodes: int
    edges: frozenset[tuple[int, int]]
    name: str = "custom"

    def __post_init__(self):
        n_nodes = as_integer(self.n_nodes)
        if n_nodes is None or n_nodes < 1:
            raise ValueError(f"n_nodes: expected an integer >= 1, got {self.n_nodes!r}")
        object.__setattr__(self, "n_nodes", n_nodes)
        norm = set()
        for edge in self.edges:
            a, b = (as_integer(node) for node in edge)
            if a is None or b is None:
                raise ValueError(f"edges: expected integer node labels, got {edge!r}")
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
    def coefficients(self) -> np.ndarray:
        """The read-only (n, 2n) nullifier coefficients, node a's in row a - 1, built once."""
        c = np.array([nullifier_coefficients(self, a) for a in range(1, self.n_nodes + 1)])
        c.flags.writeable = False
        return c

    @cached_property
    def references(self) -> tuple[float, ...]:
        """Each node's vacuum-input nullifier variance (1 + |N(a)|)/4, in node order, built once."""
        return tuple((1 + len(self.neighbors(a))) * VACUUM_VARIANCE for a in range(1, self.n_nodes + 1))

    @cached_property
    def measured_rows(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The read-only rows that measure the graph, and the (2, 3) rows each witness sum adds, or None; built once.

        The nullifiers, node a's in row a - 1, and those of the graph it is tested on (:func:`witness_tested_on`)
        pulled back: square4 is linear4 after `linear_to_square_phases` P, which a linear4 row c measures as c S_P^T.
        """
        tested = witness_tested_on(self)
        rows = self.coefficients
        if tested is None:
            return rows, None
        pairs = np.array(WITNESS_PAIRS[tested]).T - 1
        if tested != self.name:
            pairs += len(rows)
            rows = np.vstack((rows, graph_by_name(tested).coefficients @ linear_to_square_phases().symplectic.T))
            rows.flags.writeable = False
        return rows, pairs


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
    return c


@dataclass(frozen=True)
class NullifierReport:
    """Per-node nullifier variances with dB levels against the vacuum reference.

    A report stores what a run measures, one variance per node in node
    order, with its graph and the input squeezing parameters; the dB levels,
    the closed-form column and the graph name are derived when they are read.
    """

    graph: GraphSpec
    variances: tuple[float, ...]
    squeezing_r: tuple[float, ...] | None = None

    def __init__(self, graph: GraphSpec, variances, squeezing_r=None):
        """The report of one variance per node of `graph`, in node order, each kept as a Python float.

        `squeezing_r`, one input squeezing parameter per node, gives a built-in graph its closed-form column
        (:func:`analytic_residual_variances`); None, or a custom graph, leaves it empty.
        """
        variances = tuple(map(float, variances))
        if len(variances) != graph.n_nodes:
            raise ValueError(f"{len(variances)} variances for the {graph.n_nodes} nodes of graph {graph.name!r}")
        if squeezing_r is not None:
            squeezing_r = tuple(squeezing_r)
            if len(squeezing_r) != graph.n_nodes:
                raise ValueError(f"{len(squeezing_r)} squeezing parameters for the {graph.n_nodes} nodes "
                                 f"of graph {graph.name!r}")
        vars(self).update(graph=graph, variances=variances, squeezing_r=squeezing_r)

    @property
    def graph_name(self) -> str:
        return self.graph.name

    @property
    def analytic_variances(self) -> list[float] | None:
        """The closed-form column of a built-in graph with `squeezing_r`, in node order; else None."""
        named = self.squeezing_r is not None and self.graph.name in NAMED_GRAPH_EDGES
        return analytic_residual_variances(self.graph.name, self.squeezing_r).tolist() if named else None

    @property
    def levels_db(self) -> tuple[float, ...]:
        return tuple(map(variance_to_db, self.variances, self.graph.references))


def nullifier_report(
    state: GaussianState,
    graph: GraphSpec,
    squeezing_r: tuple[float, float, float, float] | None = None,
) -> NullifierReport:
    """Evaluate every node's nullifier variance on a state, one `combination_variances` row per node.

    Args:
        state: the candidate cluster state, with one mode per graph node.
        graph: graph defining the nullifier of each node.
        squeezing_r: optional input squeezing parameters, one per node, for
            the analytic column of a built-in graph.
    """
    if state.n_modes != graph.n_nodes:
        raise ValueError(f"state has {state.n_modes} modes but graph has {graph.n_nodes} nodes")
    variances = combination_variances(state.cov_factor, graph.coefficients)
    return NullifierReport(graph, variances, squeezing_r)


def analytic_residual_variances(kind: str, r) -> np.ndarray:
    """Closed-form nullifier variances of the three built-in networks.

    Each nullifier residual is a combination of squeezed input quadratures
    only, so its variance is a weighted sum of e^{-2 r_i}/4 terms:

    * linear:  (2 e1, 5/2 e3 + 1/2 e4, 1/2 e1 + 5/2 e2, 2 e4)
    * square:  (1/2 e1 + 5/2 e2) twice, then (5/2 e3 + 1/2 e4) twice
    * T shape: (4 e2, 2 e1, 1/2 e1 + e3 + 1/2 e4, same)

    with e_i = e^{-2 r_i}/4.

    Args:
        kind: "linear4", "square4" or "tshape4".
        r: the four input squeezing parameters.
    """
    e = np.exp(-2.0 * np.asarray(r, dtype=float)) * VACUUM_VARIANCE
    if e.shape != (4,):
        raise ValueError(f"expected 4 squeezing parameters, got shape {e.shape}")
    e1, e2, e3, e4 = e
    if kind == "linear4":
        columns = [2.0 * e1, 2.5 * e3 + 0.5 * e4, 0.5 * e1 + 2.5 * e2, 2.0 * e4]
    elif kind == "square4":
        side_a = 0.5 * e1 + 2.5 * e2
        side_b = 2.5 * e3 + 0.5 * e4
        columns = [side_a, side_a, side_b, side_b]
    elif kind == "tshape4":
        arm = 0.5 * e1 + e3 + 0.5 * e4
        columns = [4.0 * e2, 2.0 * e1, arm, arm]
    else:
        raise ValueError(f"unknown network kind {kind!r}")
    return np.array(columns)


def witness_tested_on(graph: GraphSpec) -> str | None:
    """The name of the graph whose `WITNESS_PAIRS` test `graph`, or None when it has no pairing.

    linear4 and tshape4 are tested on themselves, and square4 on the locally
    equivalent linear4; a custom graph has no pairing.
    """
    tested = "linear4" if graph.name == "square4" else graph.name
    return tested if tested in WITNESS_PAIRS else None


# Every witness inequality is satisfied when its sum of two nullifier variances lies below this bound.
WITNESS_BOUND = 1.0


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the full-inseparability test: full inseparability holds when every inequality is satisfied.

    A report stores what a run measures, the sums in `WITNESS_PAIRS` order,
    with its graph; the labels, the verdict and `delegated_to` (the locally
    equivalent graph the verdict was computed on, as square4 inherits the
    linear4 inequalities, or None) are derived when they are read.
    """

    graph: GraphSpec
    lhs_values: tuple[float, ...]

    def __init__(self, graph: GraphSpec, lhs_values):
        """The report of a built-in graph's inequality sums, one per pair of `WITNESS_PAIRS`, each a Python float.

        square4 carries the linear4 inequalities, as computed on the locally equivalent linear state; a graph
        without a pairing raises :class:`UnsupportedGraphError`.
        """
        tested = witness_tested_on(graph)
        if tested is None:
            raise UnsupportedGraphError(f"no witness pairing is defined for graph {graph.name!r}")
        lhs_values, pairs = tuple(map(float, lhs_values)), WITNESS_PAIRS[tested]
        if len(lhs_values) != len(pairs):
            raise ValueError(f"{len(lhs_values)} sums for the {len(pairs)} inequalities of graph {graph.name!r}")
        vars(self).update(graph=graph, lhs_values=lhs_values)

    @property
    def graph_name(self) -> str:
        return self.graph.name

    @property
    def delegated_to(self) -> str | None:
        tested = witness_tested_on(self.graph)
        return None if tested == self.graph.name else tested

    @property
    def labels(self) -> tuple[str, ...]:
        """Each inequality's label, `node<a>+node<b>` for its pair (a, b) of `WITNESS_PAIRS`."""
        return tuple(f"node{a}+node{b}" for a, b in WITNESS_PAIRS[witness_tested_on(self.graph)])

    @property
    def fully_inseparable(self) -> bool:
        return all(x < WITNESS_BOUND for x in self.lhs_values)


def full_inseparability_verdict(state: GaussianState, graph: GraphSpec) -> WitnessReport:
    """The witness inequalities on a state: each sum adds the variances of a pair of `GraphSpec.measured_rows`.

    So square4 is tested on the locally equivalent linear4 state, and its
    report marks the delegation via `delegated_to`.  A graph without a
    pairing raises :class:`UnsupportedGraphError`.
    """
    if state.n_modes != graph.n_nodes:
        raise ValueError(f"state has {state.n_modes} modes but graph has {graph.n_nodes} nodes")
    rows, pairs = graph.measured_rows
    if pairs is None:
        raise UnsupportedGraphError(f"no witness pairing is defined for graph {graph.name!r}")
    variances = combination_variances(state.cov_factor, rows)
    return WitnessReport(graph, variances[pairs[0]] + variances[pairs[1]])
