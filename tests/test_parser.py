"""Circuit text format: parsing, diagnostics, and writer round-trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit_text
from qmcforge.circuit import MEASURE, QUBIT, TERMINATE, UNITARY, Circuit, Edge, Node
from qmcforge.config import MAX_QUBITS
from qmcforge.errors import (ArityMismatch, CircuitSyntaxError, InvalidCircuit, QmcForgeError,
                             SizeOutOfRange, UnknownGate, WireOutOfRange)
from qmcforge.gates import gate_matrix
from qmcforge.parser import emit_circuit_text, parse_circuit


def test_parse_minimal():
    c = parse_circuit("qubits 1\ngate H 1\nmeasure 1\n")
    assert c.k == 1
    (gid,) = c.nodes_of_kind(UNITARY)
    assert np.allclose(c.nodes[gid].matrix, gate_matrix("H"))
    assert [wires for _, wires in c.gates] == [(1,)] and c.measured == (1,)


def test_parse_comments_and_blank_lines():
    text = """
# leading comment
qubits 2

gate H 1   # trailing comment
gate CNOT 1 2
measure 1
# done
"""
    c = parse_circuit(text)
    assert len(c.nodes_of_kind(UNITARY)) == 2
    assert len(c.nodes_of_kind(MEASURE)) == 1


def test_parse_parametrized_and_combinator_gates():
    text = "qubits 2\ngate RZ(0.25) 1\ngate controlled(adjoint(S)) 1 2\nmeasure 2\n"
    c = parse_circuit(text)
    gates = c.nodes_of_kind(UNITARY)
    dims = sorted(c.nodes[g].dim for g in gates)
    assert dims == [1, 2]


def test_parse_cgate_sugar():
    a = parse_circuit("qubits 2\ncgate X 2 ctrl 1\nmeasure 1\nmeasure 2\n")
    b = parse_circuit("qubits 2\ngate CNOT 1 2\nmeasure 1\nmeasure 2\n")
    (ga,) = a.nodes_of_kind(UNITARY)
    (gb,) = b.nodes_of_kind(UNITARY)
    assert np.array_equal(a.nodes[ga].matrix, b.nodes[gb].matrix)
    assert [wires for _, wires in a.gates] == [wires for _, wires in b.gates]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\ngate H\nmeasure 1\n")
    assert err.value.line == 2

    with pytest.raises(UnknownGate):
        parse_circuit("qubits 1\ngate WAT 1\nmeasure 1\n")
    with pytest.raises(WireOutOfRange):
        parse_circuit("qubits 1\ngate H 2\nmeasure 1\n")
    with pytest.raises(ArityMismatch):
        parse_circuit("qubits 2\ngate CNOT 1\nmeasure 1\nmeasure 2\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("gate H 1\n")  # missing qubits header
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits \u00b2\n")  # a digit that int() cannot read
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\ngate CNOT 1 1\nmeasure 1\nmeasure 2\n")


def test_parse_caps_register_width():
    # a 2^40 square step would need 8 TiB; the parser stops at the header line
    with pytest.raises(SizeOutOfRange, match="line 1: qubits 40") as err:
        parse_circuit("qubits 40\n")
    assert isinstance(err.value, QmcForgeError)
    with pytest.raises(SizeOutOfRange, match="line 2: qubits 13"):
        parse_circuit("# too wide by one\nqubits 13\ngate H 1\n")
    # int() refuses a decimal of over 4,300 digits with a bare ValueError
    with pytest.raises(SizeOutOfRange, match="^line 1: qubits value of 5000 digits "
                                             "exceeds the register cap of 12$"):
        parse_circuit("qubits " + "1" * 5000 + "\n")
    assert parse_circuit(f"qubits {MAX_QUBITS}\n").k == MAX_QUBITS == 12


def test_parse_reports_a_5000_digit_wire_as_out_of_range():
    # int() refuses a decimal of over 4,300 digits; the message once called
    # it "not a wire number" and echoed all 5,000 digits
    with pytest.raises(WireOutOfRange, match="^line 2: wire of 5000 digits outside 1..2$"):
        parse_circuit("qubits 2\ngate H " + "1" * 5000)
    with pytest.raises(WireOutOfRange, match="^line 2: wire of 4301 digits outside 1..2$"):
        parse_circuit("qubits 2\ncgate X 1 ctrl " + "9" * 4301)


def test_parse_rejects_mid_circuit_measurement():
    text = "qubits 1\nmeasure 1\ngate H 1\n"
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(text)
    assert "final" in err.value.reason


def test_parse_rejects_duplicate_measure():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 1\ngate H 1\nmeasure 1\nmeasure 1\n")


def test_parse_reports_a_repeated_wire_before_building_the_gate_matrix():
    # each control doubles the matrix's width: ten controls on one wire once
    # built a 2048-square matrix (80 MiB peak) before reporting the repeat
    text = "qubits 2\ncgate X 1 ctrl " + " 2" * 10 + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(CircuitSyntaxError, match=r"^line 2: duplicate wire in \[2, 2, "):
            parse_circuit(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # a line with an unknown gate and a repeated wire reports the repeat
    with pytest.raises(CircuitSyntaxError, match=r"^line 2: duplicate wire in \[1, 1\]$"):
        parse_circuit("qubits 2\ngate WAT 1 1\n")


@pytest.mark.parametrize("line", ["gate H" + " 1" * 5000, "cgate X 1 ctrl" + " 2" * 5000])
def test_a_long_repeated_wire_list_is_echoed_cut(line):
    with pytest.raises(CircuitSyntaxError, match=r"^line 2: duplicate wire in \[") as err:
        parse_circuit(f"qubits 2\n{line}\n")
    assert len(str(err.value)) < 200


def test_writer_round_trip_preserves_semantics():
    text = """qubits 3
gate H 1
gate CNOT 1 2
gate CCNOT 1 2 3
gate RZ(0.5) 2
measure 1
measure 3
"""
    c1 = parse_circuit(text)
    c2 = parse_circuit(emit_circuit_text(c1))
    assert c1.k == c2.k
    assert len(c1.nodes) == len(c2.nodes)
    # same gates on the same wires in the same order
    g1 = [(node.label, wires) for node, wires in c1.gates]
    g2 = [(node.label, wires) for node, wires in c2.gates]
    assert g1 == g2


def test_writer_puts_measure_lines_in_ascending_wire_order():
    c = parse_circuit("qubits 3\ngate CNOT 3 1\nmeasure 3\nmeasure 1\n")
    text = emit_circuit_text(c)
    assert text == "qubits 3\ngate CNOT 3 1\nmeasure 1\nmeasure 3\n"
    assert emit_circuit_text(parse_circuit(text)) == text


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_writer_round_trip_random_circuits(seed):
    c1 = parse_circuit(random_circuit_text(np.random.default_rng(seed)))
    c2 = parse_circuit(emit_circuit_text(c1))
    assert emit_circuit_text(c1) == emit_circuit_text(c2)


def test_writer_refuses_a_gate_without_a_spelling():
    # a hand-built circuit whose X node carries no label has no text form
    x = Node(UNITARY, dim=1, matrix=gate_matrix("X"), label="")
    c = Circuit(k=1, nodes={1: Node(QUBIT), 2: x, 3: Node(TERMINATE)},
                edges=(Edge(1, 2, 1, 1), Edge(2, 3, 1, 1)))
    with pytest.raises(InvalidCircuit, match=r"^gate on wires \(1,\) carries no gate spelling$"):
        emit_circuit_text(c)


# well-formed spellings and their arities, and the malformed spellings and
# tokens a line draws now and then; a statement names at most 4 wires, so no
# generated gate is wider than a few wires
_ARITY = {"H": 1, "X": 1, "S": 1, "RX(0.5)": 1, "CNOT": 2, "SWAP": 2, "controlled(X)": 2,
          "adjoint(controlled(S))": 2, "CCNOT": 3}
_ODD_SPELLINGS = ["RZ(nan)", "RY(inf)", "PHASE(-1e3)", "RX(", "RX()", "RX(1,2)", "H(1)",
                  "controlled(", "FOO"]
_ODD_TOKENS = ["0", "03", "5", "13", "-1", "1.5", "\u0662", "1" * 30, "ctrl", "#"]


@st.composite
def _circuit_like_text(draw):
    """Mostly well-formed statements on distinct wires of a 1..4 wire
    register, now and then with a malformed spelling or token, a stray
    ``qubits`` line or a line of arbitrary text; most often after a valid
    ``qubits`` line."""
    k = draw(st.integers(1, 4))

    def odd(common: str, rare: list[str]) -> str:
        return draw(st.sampled_from(rare)) if draw(st.integers(0, 11)) == 0 else common

    lines = [f"qubits {k}"] if draw(st.integers(0, 7)) else []
    for _ in range(draw(st.integers(0, 6))):
        kind = odd(draw(st.sampled_from(["gate", "cgate", "measure"])), ["qubits", "text"])
        if kind == "text":
            lines.append(draw(st.text(max_size=12)))
            continue
        spelling = draw(st.sampled_from([name for name, arity in _ARITY.items() if arity <= k]))
        arity = _ARITY[spelling] if kind in ("gate", "cgate") else 1
        count = draw(st.integers(min(arity + 1, k), k)) if kind == "cgate" else arity
        words = [odd(str(w), _ODD_TOKENS) for w in draw(st.permutations(range(1, k + 1)))[:count]]
        if kind == "cgate":
            words.insert(arity, "ctrl")
        head = f"{kind} {odd(spelling, _ODD_SPELLINGS)}" if kind in ("gate", "cgate") else kind
        lines.append(" ".join([head, *words]))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=_circuit_like_text())
def test_parse_circuit_returns_a_circuit_or_raises_a_package_error(text):
    try:
        c = parse_circuit(text)
    except QmcForgeError:
        return
    assert isinstance(c, Circuit)
