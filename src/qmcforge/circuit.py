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

A ``Circuit`` is checked against these rules when it is built and cannot
change afterwards, so every circuit that exists is valid and carries its
placement: the gates in topological order with the wires each acts on, and
the measured wires.

``Node`` and ``Circuit`` compare and hash by identity: a field-wise
comparison would have to compare gate matrices, whose ``==`` is an array
with no single truth value, so a circuit equals only itself and can key a
dict or join a set.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_TOL
from .errors import ValidationFailed
from .linalg import is_unitary

__all__ = [
    "QUBIT", "UNITARY", "MEASURE", "TERMINATE",
    "Node", "Edge", "Circuit", "Violation",
]

QUBIT = "qubit"
UNITARY = "unitary"
MEASURE = "measure"
TERMINATE = "terminate"

_KIND_RANK = {QUBIT: 0, UNITARY: 1, MEASURE: 2, TERMINATE: 2}


@dataclass(frozen=True, eq=False)
class Node:
    """One circuit node. ``dim``/``matrix`` are meaningful for unitaries only:
    a unitary acts on ``dim`` wires through its 2^dim x 2^dim ``matrix``.
    Equality and hashing are by identity (see the module docstring).
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


@dataclass(frozen=True, eq=False)
class Circuit:
    """A circuit graph on ``k`` wires, valid by construction.

    Construction copies each gate matrix into a read-only array and
    ``nodes`` into a read-only mapping, then checks the structural rules:
    per-kind in/out degrees, unitary payloads of the right dimension,
    contiguous 1..In / 1..Out edge labels, acyclicity, and the size account
    |measure| + |terminate| = k. It raises ValidationFailed carrying every
    violation. A valid circuit records its placement:

    * ``gates``: the unitary nodes in topological order (qubit nodes first,
      then unitaries, sinks last, ties by ascending node id), each with the
      wire positions it acts on in input-label order;
    * ``measured``: the measured wire positions, ascending.

    A wire's position is the rank of its qubit node among the qubit nodes,
    ascending by id; a gate's output j stays at the position of its input j.
    ``dataclasses.replace`` builds a new circuit and checks it the same way.
    Equality and hashing are by identity (see the module docstring).
    """

    k: int
    nodes: Mapping[int, Node] = field(default_factory=dict)
    edges: tuple[Edge, ...] = ()
    gates: tuple[tuple[Node, tuple[int, ...]], ...] = field(init=False, repr=False)
    measured: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = {nid: _frozen(node) for nid, node in self.nodes.items()}
        object.__setattr__(self, "nodes", MappingProxyType(nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        problems, order, ins = _check(self)
        if problems:
            raise ValidationFailed(problems)
        gates, measured = _place(self, order, ins)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "measured", measured)

    def nodes_of_kind(self, kind: str) -> list[int]:
        return sorted(n for n, node in self.nodes.items() if node.kind == kind)


@dataclass(frozen=True)
class Violation:
    """One failed structural rule, pointing at the offending node or edge."""

    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} at {self.subject}: {self.detail}"


def _frozen(node: Node) -> Node:
    """``node`` with a read-only copy of its matrix, so that no caller's
    array can change the circuit after its check."""
    if node.matrix is None:
        return node
    matrix = np.array(node.matrix)
    matrix.flags.writeable = False
    return dataclasses.replace(node, matrix=matrix)


def _required_degree(node: Node) -> tuple[int, int]:
    if node.kind == QUBIT:
        return 0, 1
    if node.kind == UNITARY:
        return node.dim, node.dim
    return 1, 0


def _check(c: Circuit) -> tuple[list[Violation], list[int], dict[int, list[Edge]]]:
    """Every violated structural rule (see :class:`Circuit`), the
    topological order and each node's incoming edges. The order is only
    meaningful when there are no violations."""
    out = [Violation("structure", f"edge {e}", "dangling endpoint")
           for e in c.edges if e.source not in c.nodes or e.target not in c.nodes]
    if out:
        return out, [], {}
    ins: dict[int, list[Edge]] = {n: [] for n in c.nodes}
    outs: dict[int, list[Edge]] = {n: [] for n in c.nodes}
    for e in c.edges:
        ins[e.target].append(e)
        outs[e.source].append(e)

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
            elif not is_unitary(node.matrix, DEFAULT_TOL.algebraic):
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

    order = _topo_order(c, ins, outs)
    if len(order) != len(c.nodes):
        out.append(Violation("acyclic", "circuit", "graph contains a cycle"))

    n_qubit = len(c.nodes_of_kind(QUBIT))
    n_sink = len(c.nodes_of_kind(MEASURE)) + len(c.nodes_of_kind(TERMINATE))
    if n_qubit != c.k:
        out.append(Violation("size", "circuit",
                             f"{n_qubit} qubit nodes but k = {c.k}"))
    if n_sink != c.k:
        out.append(Violation("size", "circuit",
                             f"{n_sink} sink nodes for {c.k} wires"))
    return out, order, ins


def _topo_order(c: Circuit, ins: dict[int, list[Edge]],
                outs: dict[int, list[Edge]]) -> list[int]:
    """Topological order: qubit nodes first, then unitaries, sinks last.

    Ties are broken by ascending node id, so the order is deterministic.
    The nodes on or behind a cycle are missing from it.
    """
    indeg = {n: len(edges) for n, edges in ins.items()}
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
    return order


def _place(c: Circuit, order: list[int], ins: dict[int, list[Edge]]
           ) -> tuple[tuple[tuple[Node, tuple[int, ...]], ...], tuple[int, ...]]:
    """The gates and the measured wires of a valid circuit (see
    :class:`Circuit`), read along its topological ``order``."""
    pos_of_output = {(q, 1): rank
                     for rank, q in enumerate(c.nodes_of_kind(QUBIT), start=1)}
    gates: list[tuple[Node, tuple[int, ...]]] = []
    measured: list[int] = []
    for nid in order:
        node = c.nodes[nid]
        if node.kind == QUBIT:
            continue
        incoming = sorted(ins[nid], key=lambda e: e.t_label)
        wires = tuple(pos_of_output[(e.source, e.s_label)] for e in incoming)
        if node.kind == UNITARY:
            gates.append((node, wires))
            for j, p in enumerate(wires, start=1):
                pos_of_output[(nid, j)] = p
        elif node.kind == MEASURE:
            measured.append(wires[0])
    return tuple(gates), tuple(sorted(measured))
