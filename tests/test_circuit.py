"""Circuit graph model: validation rules, topological order, wire threading."""

import dataclasses

import numpy as np
import pytest

from qmcforge.circuit import (MEASURE, QUBIT, TERMINATE, UNITARY, Circuit,
                              Edge, Node, placed, topo_order, validate,
                              wire_positions)
from qmcforge.errors import CycleDetected, ValidationFailed
from qmcforge.evaluate import check_equivalence, simulate_circuit
from qmcforge.gates import gate_matrix
from qmcforge.normalize import translate
from qmcforge.parser import emit_circuit_text, parse_circuit
from qmcforge.qmc import build_qmc

DEUTSCH = """\
qubits 2
gate H 1
gate H 2
gate CNOT 1 2
gate H 1
measure 1
"""


def test_validate_accepts_deutsch():
    c = parse_circuit(DEUTSCH)
    assert validate(c) == []
    assert c.k == 2
    kinds = [n.kind for n in c.nodes.values()]
    assert kinds.count(QUBIT) == 2
    assert kinds.count(UNITARY) == 4
    assert kinds.count(MEASURE) == 1
    assert kinds.count(TERMINATE) == 1


def test_validate_degree_rules():
    # A unitary node missing an input edge must be flagged.
    h = gate_matrix("H")
    nodes = {1: Node(QUBIT), 2: Node(UNITARY, dim=1, matrix=h, label="H"),
             3: Node(TERMINATE)}
    edges = (Edge(2, 3, 1, 1),)  # gate output wired, input dangling
    c = Circuit(k=1, nodes=nodes, edges=edges)
    problems = validate(c)
    assert problems
    assert any("degree" in v.detail for v in problems)


def test_validate_rejects_non_unitary_payload():
    bad = np.array([[1, 1], [0, 1]], dtype=np.complex128)
    nodes = {1: Node(QUBIT), 2: Node(UNITARY, dim=1, matrix=bad, label="bad"),
             3: Node(TERMINATE)}
    edges = (Edge(1, 2, 1, 1), Edge(2, 3, 1, 1))
    problems = validate(Circuit(k=1, nodes=nodes, edges=edges))
    assert any("not unitary" in v.detail for v in problems)


def test_validate_sink_accounting():
    # Every wire must end in exactly one measure or terminate node.
    nodes = {1: Node(QUBIT), 2: Node(QUBIT), 3: Node(MEASURE)}
    edges = (Edge(1, 3, 1, 1),)  # wire 2 never terminated
    problems = validate(Circuit(k=2, nodes=nodes, edges=edges))
    assert problems


def test_topo_order_respects_dependencies():
    c = parse_circuit(DEUTSCH)
    order = topo_order(c)
    pos = {nid: i for i, nid in enumerate(order)}
    for e in c.edges:
        assert pos[e.source] < pos[e.target]
    kinds = [c.nodes[nid].kind for nid in order]
    assert all(k == QUBIT for k in kinds[:2])
    assert kinds[-2:].count(MEASURE) + kinds[-2:].count(TERMINATE) == 2


def test_topo_order_detects_cycles():
    h = gate_matrix("H")
    nodes = {1: Node(QUBIT),
             2: Node(UNITARY, dim=1, matrix=h, label="H"),
             3: Node(UNITARY, dim=1, matrix=h, label="H")}
    edges = (Edge(1, 2, 1, 1), Edge(2, 3, 1, 1), Edge(3, 2, 1, 1))
    c = Circuit(k=1, nodes=nodes, edges=edges)
    with pytest.raises(CycleDetected):
        topo_order(c)


def test_wire_positions_thread_through_gates():
    c = parse_circuit(DEUTSCH)
    positions = wire_positions(c)
    for nid, node in c.nodes.items():
        if node.kind == UNITARY:
            assert len(positions[nid]) == node.dim
            assert all(1 <= p <= c.k for p in positions[nid])
    # the measure node must sit on wire 1
    (mid,) = c.nodes_of_kind(MEASURE)
    assert positions[mid] == (1,)


def test_wire_positions_multiwire_gate_order():
    text = "qubits 3\ngate CNOT 3 1\nmeasure 1\nmeasure 3\n"
    c = parse_circuit(text)
    positions = wire_positions(c)
    (gid,) = c.nodes_of_kind(UNITARY)
    assert positions[gid] == (3, 1)  # input order preserved, not sorted


def test_placed_reads_gates_in_order_and_measured_wires_ascending():
    c = parse_circuit("qubits 3\ngate H 2\ngate CNOT 3 1\nmeasure 3\nmeasure 1\n")
    gates, measured = placed(c)
    assert [(node.label, wires) for node, wires in gates] == [("H", (2,)), ("CNOT", (3, 1))]
    assert measured == (1, 3)


BELL = "qubits 2\ngate H 1\ngate CNOT 1 2\nmeasure 1\nmeasure 2\n"


@pytest.mark.parametrize("reader", [
    lambda c, s, q: translate(c),
    lambda c, s, q: check_equivalence(c, s, q),
    lambda c, s, q: simulate_circuit(c, np.eye(4)[0]),
    lambda c, s, q: emit_circuit_text(c),
], ids=["translate", "check_equivalence", "simulate_circuit",
        "emit_circuit_text"])
def test_every_circuit_reader_refuses_a_dropped_edge(reader):
    # the Bell circuit without its last edge leaves the second measure
    # node unfed; every reader goes through placed and refuses it
    c = parse_circuit(BELL)
    s, _ = translate(c)
    broken = dataclasses.replace(c, edges=c.edges[:-1])
    with pytest.raises(ValidationFailed):
        reader(broken, s, build_qmc(s))
