"""Model text emission: formatting, golden files, and reparse round-trips."""

import pathlib

import numpy as np
import pytest

from helpers import random_circuit
from qmcforge.emit import emit_qpmc, format_matrix, format_number, reparse_model
from qmcforge.errors import ReparseError
from qmcforge.gates import gate_matrix
from qmcforge.normalize import SnfCircuit, translate
from qmcforge.parser import parse_circuit
from qmcforge.qmc import build_qmc

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_format_number_integers_stay_integers():
    assert format_number(1.0 + 0.0j) == "1"
    assert format_number(-3.0 + 0.0j) == "-3"
    assert format_number(0.0 + 0.0j) == "0"
    assert format_number(-0.0 + 0.0j) == "0"


def test_format_number_reals_and_imaginaries():
    assert format_number(0.5 + 0.0j) == "0.5"
    assert format_number(0.0 + 1.0j) == "0+1i"
    assert format_number(0.0 - 0.5j) == "0-0.5i"
    assert format_number(1.0 + 1.0j) == "1+1i"
    assert format_number(-0.5 - 0.25j) == "-0.5-0.25i"
    assert format_number(complex(1 / np.sqrt(2), 0)) == "0.7071067811865475"


def test_format_number_round_trips_floats():
    rng = np.random.default_rng(2)
    from qmcforge.emit import _parse_entry
    for _ in range(50):
        z = complex(rng.standard_normal(), rng.standard_normal())
        # the spelled value must reparse to the identical float pair
        assert _parse_entry(format_number(z), "test") == z
    # exponent-bearing spellings keep their sign characters intact
    assert _parse_entry(format_number(complex(1e-17, -2.5e-8)), "test") \
        == complex(1e-17, -2.5e-8)


def test_format_matrix_layout():
    m = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
    assert format_matrix(m) == "[1, 0; 0, 0+1i]"


def test_golden_single_gate_model():
    h = gate_matrix("H")
    q = build_qmc(SnfCircuit(k=1, unitaries=(h,), h=1, wire_map=(1,)))
    expected = (GOLDEN / "single_h.qpmc").read_text()
    assert emit_qpmc(q, name="single_h") == expected


def test_golden_two_wire_model():
    c = parse_circuit((pathlib.Path(__file__).parent.parent
                       / "circuits" / "deutsch.qc").read_text())
    s, _ = translate(c)
    q = build_qmc(s)
    expected = (GOLDEN / "deutsch.qpmc").read_text()
    assert emit_qpmc(q, name="deutsch") == expected


def test_emission_is_deterministic():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_circuit(rng)
        s, _ = translate(c)
        q = build_qmc(s)
        assert emit_qpmc(q) == emit_qpmc(q)


def test_matrix_constants_are_deduplicated():
    text = "qubits 1\ngate H 1\ngate H 1\nmeasure 1\n"
    s, _ = translate(parse_circuit(text))
    q = build_qmc(s)
    emitted = emit_qpmc(q)
    assert emitted.count("const matrix U") == 1  # H declared once, used twice
    assert "<<U1>>" in emitted


def test_reparse_round_trip_random_circuits():
    rng = np.random.default_rng(6)
    for _ in range(25):
        c = random_circuit(rng)
        s, _ = translate(c)
        q = build_qmc(s)
        text = emit_qpmc(q)
        q2 = reparse_model(text)
        assert q2.k == q.k and q2.h == q.h
        assert q2.states == q.states
        assert set(q2.transitions) == set(q.transitions)
        for key, so in q.transitions.items():
            so2 = q2.transitions[key]
            assert len(so.kraus) == len(so2.kraus)
            for a, b in zip(so.kraus, so2.kraus):
                assert np.array_equal(a, b)
        # second emission is byte-identical
        assert emit_qpmc(q2) == text


def test_reparse_rejects_malformed_models():
    h = gate_matrix("H")
    q = build_qmc(SnfCircuit(k=1, unitaries=(h,), h=1, wire_map=(1,)))
    good = emit_qpmc(q)

    with pytest.raises(ReparseError):
        reparse_model(good.replace("qmc\n", "dtmc\n", 1))
    with pytest.raises(ReparseError):
        reparse_model(good.replace("const matrix M1", "const matrix Z9", 1))
    with pytest.raises(ReparseError):  # ragged matrix row
        reparse_model(good.replace("[1, 0; 0, 0]", "[1, 0; 0]", 1))
    with pytest.raises(ReparseError):  # guard for state 1 lost
        reparse_model(good.replace("[] (s = 1) ->", "[] (s = 9) ->", 1))
    with pytest.raises(ReparseError):  # module never closed
        reparse_model(good.replace("endmodule", "", 1))


def test_reparse_rejects_non_finite_entries():
    # a NaN entry once reached the Superoperator trace check and escaped as a
    # raw numpy LinAlgError; 1e999 overflows to inf
    c = parse_circuit((pathlib.Path(__file__).parents[1] / "circuits" / "deutsch.qc").read_text())
    s, _ = translate(c)
    good = emit_qpmc(build_qmc(s))
    assert "const matrix U2 = [1, 0," in good
    for entry in ("nan", "inf", "-inf", "1e999", "0+nani", "1-infi"):
        bad = good.replace("const matrix U2 = [1, 0,", f"const matrix U2 = [{entry}, 0,", 1)
        with pytest.raises(ReparseError, match="non-finite entry at row 1, column 1"):
            reparse_model(bad)


def test_reparse_rejects_non_stochastic_model():
    h = gate_matrix("H")
    q = build_qmc(SnfCircuit(k=1, unitaries=(h,), h=1, wire_map=(1,)))
    # scale a branch so the measurement no longer resolves the identity
    bad = emit_qpmc(q).replace("[0, 0; 0, 1]", "[0, 0; 0, 2]", 1)
    with pytest.raises(ReparseError):
        reparse_model(bad)
