"""Circuit text format: parsing, diagnostics, and writer round-trips."""

import tracemalloc

import numpy as np
import pytest

from qmcforge.circuit import MEASURE, UNITARY, validate, wire_positions
from qmcforge.config import MAX_QUBITS
from qmcforge.errors import (ArityMismatch, CircuitSyntaxError, QmcForgeError,
                             SizeOutOfRange, UnknownGate, WireOutOfRange)
from qmcforge.gates import gate_matrix
from qmcforge.parser import emit_circuit_text, parse_circuit


def test_parse_minimal():
    c = parse_circuit("qubits 1\ngate H 1\nmeasure 1\n")
    assert c.k == 1
    (gid,) = c.nodes_of_kind(UNITARY)
    assert np.allclose(c.nodes[gid].matrix, gate_matrix("H"))
    assert validate(c) == []


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
    assert wire_positions(a)[ga] == wire_positions(b)[gb]


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
    from qmcforge.circuit import topo_order
    g1 = [(c1.nodes[n].label, wire_positions(c1)[n])
          for n in topo_order(c1) if c1.nodes[n].kind == UNITARY]
    g2 = [(c2.nodes[n].label, wire_positions(c2)[n])
          for n in topo_order(c2) if c2.nodes[n].kind == UNITARY]
    assert g1 == g2


def test_writer_puts_measure_lines_in_ascending_wire_order():
    c = parse_circuit("qubits 3\ngate CNOT 3 1\nmeasure 3\nmeasure 1\n")
    text = emit_circuit_text(c)
    assert text == "qubits 3\ngate CNOT 3 1\nmeasure 1\nmeasure 3\n"
    assert emit_circuit_text(parse_circuit(text)) == text


def test_writer_round_trip_random_circuits():
    from helpers import random_circuit_text
    rng = np.random.default_rng(11)
    for _ in range(25):
        text = random_circuit_text(rng)
        c1 = parse_circuit(text)
        c2 = parse_circuit(emit_circuit_text(c1))
        assert emit_circuit_text(c1) == emit_circuit_text(c2)
