"""Gate-list circuit graphs.

A circuit is a DAG over four node kinds:

* ``qubit``      sources, one per wire (In=0, Out=1);
* ``unitary``    gates carrying a 2^dim unitary (In=Out=dim);
* ``measure``    sinks for measured wires (In=1, Out=0);
* ``terminate``  sinks for discarded wires (In=1, Out=0).

Edges carry a source output label ``s_label`` and a target input label
``t_label``; the incoming labels of a node must be exactly 1..In and the
outgoing labels exactly 1..Out. Gate input j and output j denote the same
physical wire location, which is how wires thread through the graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL
from .errors import CycleDetected, InvalidCircuit, ValidationFailed
from .linalg import is_unitary

__all__ = [
    "QUBIT", "UNITARY", "MEASURE", "TERMINATE",
    "Node", "Edge", "Circuit", "Violation",
    "validate", "topo_order", "wire_positions", "placed",
]

QUBIT = "qubit"
UNITARY = "unitary"
MEASURE = "measure"
TERMINATE = "terminate"

_KIND_RANK = {QUBIT: 0, UNITARY: 1, MEASURE: 2, TERMINATE: 2}


@dataclass(frozen=True)
class Node:
    """One circuit node. ``dim``/``matrix`` are meaningful for unitaries only:
    a unitary acts on ``dim`` wires through its 2^dim x 2^dim ``matrix``.
    """

    kind: str
    dim: int = 0
    matrix: np.ndarray | None = None
    label: str = ""


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    s_label: int
    t_label: int


@dataclass
class Circuit:
    """Immutable-by-convention circuit graph. ``k`` is the number of wires."""

    k: int
    nodes: dict[int, Node] = field(default_factory=dict)
    edges: tuple[Edge, ...] = ()

    def nodes_of_kind(self, kind: str) -> list[int]:
        return sorted(n for n, node in self.nodes.items() if node.kind == kind)

    def in_edges(self) -> dict[int, list[Edge]]:
        table: dict[int, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            table[e.target].append(e)
        return table

    def out_edges(self) -> dict[int, list[Edge]]:
        table: dict[int, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            table[e.source].append(e)
        return table


@dataclass(frozen=True)
class Violation:
    """One failed structural rule, pointing at the offending node or edge."""

    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} at {self.subject}: {self.detail}"


def _required_degree(node: Node) -> tuple[int, int]:
    if node.kind == QUBIT:
        return 0, 1
    if node.kind == UNITARY:
        return node.dim, node.dim
    return 1, 0


def validate(c: Circuit, tol: float = DEFAULT_TOL.algebraic) -> list[Violation]:
    """Check the structural rules; return all violations (empty means valid).

    Rules: per-kind in/out degrees, unitary payloads of the right dimension,
    contiguous 1..In / 1..Out edge labels, acyclicity, and the size account
    |measure| + |terminate| = k.
    """
    out: list[Violation] = []
    ins, outs = c.in_edges(), c.out_edges()

    for e in c.edges:
        if e.source not in c.nodes or e.target not in c.nodes:
            out.append(Violation("structure", f"edge {e}", "dangling endpoint"))
    if out:
        return out

    for nid, node in sorted(c.nodes.items()):
        want_in, want_out = _required_degree(node)
        got_in, got_out = len(ins[nid]), len(outs[nid])
        rule = {QUBIT: "condition1", UNITARY: "condition2",
                MEASURE: "condition3", TERMINATE: "condition4"}[node.kind]
        if (got_in, got_out) != (want_in, want_out):
            out.append(Violation(rule, f"node {nid}",
                                 f"{node.kind} has degree ({got_in},{got_out}), "
                                 f"expected ({want_in},{want_out})"))
        if node.kind == UNITARY:
            if node.dim < 1:
                out.append(Violation("condition2", f"node {nid}", "dim < 1"))
            elif node.matrix is None or node.matrix.shape != (2 ** node.dim, 2 ** node.dim):
                out.append(Violation("condition2", f"node {nid}",
                                     f"matrix shape does not match dim {node.dim}"))
            elif not is_unitary(node.matrix, tol):
                out.append(Violation("condition2", f"node {nid}",
                                     "matrix is not unitary"))
        t_labels = sorted(e.t_label for e in ins[nid])
        s_labels = sorted(e.s_label for e in outs[nid])
        if t_labels != list(range(1, want_in + 1)):
            out.append(Violation("condition5", f"node {nid}",
                                 f"incoming labels {t_labels} != 1..{want_in}"))
        if s_labels != list(range(1, want_out + 1)):
            out.append(Violation("condition5", f"node {nid}",
                                 f"outgoing labels {s_labels} != 1..{want_out}"))

    try:
        topo_order(c)
    except CycleDetected:
        out.append(Violation("acyclic", "circuit", "graph contains a cycle"))

    n_qubit = len(c.nodes_of_kind(QUBIT))
    n_sink = len(c.nodes_of_kind(MEASURE)) + len(c.nodes_of_kind(TERMINATE))
    if n_qubit != c.k:
        out.append(Violation("size", "circuit",
                             f"{n_qubit} qubit nodes but k = {c.k}"))
    if n_sink != c.k:
        out.append(Violation("size", "circuit",
                             f"{n_sink} sink nodes for {c.k} wires"))
    return out


def topo_order(c: Circuit) -> list[int]:
    """Topological order: qubit nodes first, then unitaries, sinks last.

    Ties are broken by ascending node id, so the order is deterministic.
    Raises CycleDetected when the graph is not a DAG.
    """
    indeg = {n: 0 for n in c.nodes}
    for e in c.edges:
        indeg[e.target] += 1
    outs = c.out_edges()
    ready = sorted((_KIND_RANK[c.nodes[n].kind], n)
                   for n, d in indeg.items() if d == 0)
    order: list[int] = []
    heapq.heapify(ready)
    while ready:
        _, nid = heapq.heappop(ready)
        order.append(nid)
        for e in outs[nid]:
            indeg[e.target] -= 1
            if indeg[e.target] == 0:
                heapq.heappush(ready, (_KIND_RANK[c.nodes[e.target].kind], e.target))
    if len(order) != len(c.nodes):
        raise CycleDetected("circuit graph contains a cycle")
    return order


def wire_positions(c: Circuit) -> dict[int, tuple[int, ...]]:
    """Positions occupied by each node's inputs, in input-label order.

    Qubit nodes get the position they source (their rank among qubit nodes,
    ascending by id). Since a gate's output j stays at the position of its
    input j, positions propagate along edges unchanged. The result is keyed
    in ``topo_order``.
    """
    qubits = c.nodes_of_kind(QUBIT)
    pos_of_output: dict[tuple[int, int], int] = {}
    for rank, q in enumerate(qubits, start=1):
        pos_of_output[(q, 1)] = rank

    ins = c.in_edges()
    result: dict[int, tuple[int, ...]] = {q: (r,) for r, q in enumerate(qubits, start=1)}
    for nid in topo_order(c):
        node = c.nodes[nid]
        if node.kind == QUBIT:
            continue
        incoming = sorted(ins[nid], key=lambda e: e.t_label)
        try:
            positions = tuple(pos_of_output[(e.source, e.s_label)] for e in incoming)
        except KeyError as exc:
            raise InvalidCircuit(f"node {nid} fed by unplaced output") from exc
        result[nid] = positions
        for j, p in enumerate(positions, start=1):
            pos_of_output[(nid, j)] = p
    return result


def placed(c: Circuit) -> tuple[list[tuple[Node, tuple[int, ...]]], tuple[int, ...]]:
    """What a translation or a simulation reads off a circuit: its unitary
    nodes in topological order, each with the wire positions it acts on (in
    input-label order), and the measured wire positions, ascending.

    Raises ValidationFailed when the circuit breaks a structural rule.
    """
    problems = validate(c)
    if problems:
        raise ValidationFailed(problems)
    positions = wire_positions(c)
    gates = [(c.nodes[n], wires) for n, wires in positions.items()
             if c.nodes[n].kind == UNITARY]
    measured = tuple(sorted(positions[m][0] for m in c.nodes_of_kind(MEASURE)))
    return gates, measured
