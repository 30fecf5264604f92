"""Circuit graph model: the structural rules checked at construction, the
placement a circuit records, and its immutability."""

import dataclasses

import numpy as np
import pytest

from qmcforge import circuit
from qmcforge.circuit import (MEASURE, QUBIT, TERMINATE, UNITARY, Circuit,
                              Edge, Node, Violation)
from qmcforge.emit import emit_qpmc, reparse_model
from qmcforge.errors import ValidationFailed
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

H = gate_matrix("H")


def _violations(nodes, edges, k=1) -> list[Violation]:
    with pytest.raises(ValidationFailed) as err:
        Circuit(k=k, nodes=nodes, edges=edges)
    return err.value.violations


def test_validate_accepts_deutsch():
    c = parse_circuit(DEUTSCH)
    assert c.k == 2
    kinds = [n.kind for n in c.nodes.values()]
    assert kinds.count(QUBIT) == 2
    assert kinds.count(UNITARY) == 4
    assert kinds.count(MEASURE) == 1
    assert kinds.count(TERMINATE) == 1


def test_validate_degree_rules():
    # A unitary node missing an input edge must be flagged.
    nodes = {1: Node(QUBIT), 2: Node(UNITARY, dim=1, matrix=H, label="H"),
             3: Node(TERMINATE)}
    edges = (Edge(2, 3, 1, 1),)  # gate output wired, input dangling
    problems = _violations(nodes, edges)
    assert any("degree" in v.detail for v in problems)


# each broken circuit and the violations it is refused with, rule, subject
# and detail alike
_CYCLE = ({1: Node(QUBIT), 2: Node(UNITARY, dim=1, matrix=H, label="H"),
           3: Node(UNITARY, dim=1, matrix=H, label="H")},
          (Edge(1, 2, 1, 1), Edge(2, 3, 1, 1), Edge(3, 2, 1, 1)), 1)
_NON_UNITARY = ({1: Node(QUBIT),
                 2: Node(UNITARY, dim=1, matrix=np.array([[1, 1], [0, 1]], dtype=np.complex128),
                         label="bad"),
                 3: Node(TERMINATE)},
                (Edge(1, 2, 1, 1), Edge(2, 3, 1, 1)), 1)
_SINK_COUNT = ({1: Node(QUBIT), 2: Node(QUBIT), 3: Node(MEASURE)},
               (Edge(1, 3, 1, 1),), 2)  # wire 2 never terminated


@pytest.mark.parametrize("case, expected", [
    (_CYCLE, [("condition2", "node 2", "unitary has degree (2,1), expected (1,1)"),
              ("condition5", "node 2", "incoming labels [1, 1] != 1..1"),
              ("acyclic", "circuit", "graph contains a cycle"),
              ("size", "circuit", "0 sink nodes for 1 wires")]),
    (_NON_UNITARY, [("condition2", "node 2", "matrix is not unitary")]),
    (_SINK_COUNT, [("condition1", "node 2", "qubit has degree (0,0), expected (0,1)"),
                   ("condition5", "node 2", "outgoing labels [] != 1..1"),
                   ("size", "circuit", "1 sink nodes for 2 wires")]),
], ids=["cycle", "non-unitary", "sink-count"])
def test_construction_refuses_a_broken_circuit_with_every_violation(case, expected):
    nodes, edges, k = case
    assert [dataclasses.astuple(v) for v in _violations(nodes, edges, k)] == expected


def test_validate_rejects_non_unitary_payload():
    nodes, edges, k = _NON_UNITARY
    assert any("not unitary" in v.detail for v in _violations(nodes, edges, k))


def test_validate_sink_accounting():
    # Every wire must end in exactly one measure or terminate node.
    nodes, edges, k = _SINK_COUNT
    assert _violations(nodes, edges, k)


def test_a_dangling_edge_is_a_violation():
    problems = _violations({1: Node(QUBIT)}, (Edge(1, 9, 1, 1),))
    assert [(v.rule, v.detail) for v in problems] == [("structure", "dangling endpoint")]


def test_topo_order_respects_dependencies():
    # gates come in topological order: each gate follows every gate that
    # last touched one of its wires, and the sinks come after all gates
    c = parse_circuit(DEUTSCH)
    assert [(node.label, wires) for node, wires in c.gates] == \
        [("H", (1,)), ("H", (2,)), ("CNOT", (1, 2)), ("H", (1,))]


def test_topo_order_detects_cycles():
    nodes, edges, k = _CYCLE
    assert any(v.rule == "acyclic" for v in _violations(nodes, edges, k))


def test_wire_positions_thread_through_gates():
    c = parse_circuit(DEUTSCH)
    for node, wires in c.gates:
        assert len(wires) == node.dim
        assert all(1 <= p <= c.k for p in wires)
    # the measure node must sit on wire 1
    assert c.measured == (1,)


def test_wire_positions_multiwire_gate_order():
    text = "qubits 3\ngate CNOT 3 1\nmeasure 1\nmeasure 3\n"
    ((_, wires),) = parse_circuit(text).gates
    assert wires == (3, 1)  # input order preserved, not sorted


def test_placed_reads_gates_in_order_and_measured_wires_ascending():
    c = parse_circuit("qubits 3\ngate H 2\ngate CNOT 3 1\nmeasure 3\nmeasure 1\n")
    assert [(node.label, wires) for node, wires in c.gates] == [("H", (2,)), ("CNOT", (3, 1))]
    assert c.measured == (1, 3)


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
    # node unfed; the reader is never handed it, because building it fails
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    with pytest.raises(ValidationFailed):
        reader(dataclasses.replace(c, edges=c.edges[:-1]), s, q)


def test_replacing_edges_checks_the_new_circuit():
    # the Bell circuit without its last edge leaves the second measure node
    # unfed; no reader can be handed it, because it cannot be built
    c = parse_circuit(BELL)
    with pytest.raises(ValidationFailed) as err:
        dataclasses.replace(c, edges=c.edges[:-1])
    assert [dataclasses.astuple(v) for v in err.value.violations] == [
        ("condition2", "node 4", "unitary has degree (2,1), expected (2,2)"),
        ("condition5", "node 4", "outgoing labels [1] != 1..2"),
        ("condition3", "node 6", "measure has degree (0,0), expected (1,0)"),
        ("condition5", "node 6", "incoming labels [] != 1..1"),
    ]
    same = dataclasses.replace(c, edges=c.edges)
    assert [(n.label, w) for n, w in same.gates] == [(n.label, w) for n, w in c.gates]


def test_a_circuit_cannot_change_after_its_check():
    matrix = gate_matrix("H")
    c = Circuit(k=1, nodes={1: Node(QUBIT), 2: Node(UNITARY, dim=1, matrix=matrix, label="H"),
                            3: Node(MEASURE)},
                edges=(Edge(1, 2, 1, 1), Edge(2, 3, 1, 1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.edges = c.edges[:-1]
    with pytest.raises(TypeError):
        c.nodes[3] = Node(TERMINATE)
    with pytest.raises(ValueError):
        c.nodes[2].matrix[0, 0] = 2
    with pytest.raises(ValueError):
        c.gates[0][0].matrix[0, 0] = 2
    # the caller's own array stays writable, and writing it changes nothing
    matrix[0, 0] = 2
    assert np.array_equal(c.nodes[2].matrix, gate_matrix("H"))


def test_a_compile_and_verify_checks_and_sorts_the_circuit_once(monkeypatch):
    calls = {"_check": 0, "_topo_order": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(circuit, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(circuit, name, counted)
    c = parse_circuit(DEUTSCH)
    s, _ = translate(c)
    q = reparse_model(emit_qpmc(build_qmc(s)))
    assert check_equivalence(c, s, q).passed
    assert calls == {"_check": 1, "_topo_order": 1}
