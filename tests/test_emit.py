"""Model text emission: formatting, golden files, and reparse round-trips."""

import hashlib
import pathlib
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import (matrix_chain, nan_step_chain, projector, random_circuit,
                     random_circuit_text)
from qmcforge import emit
from qmcforge.cli import gen_test_circuit, main
from qmcforge.emit import emit_qpmc, format_matrix, format_number, reparse_model
from qmcforge.errors import DimensionMismatch, QmcForgeError, ReparseError
from qmcforge.evaluate import _phase_distances
from qmcforge.gates import gate_matrix
from qmcforge.normalize import SnfCircuit, translate
from qmcforge.parser import parse_circuit
from qmcforge.qmc import (Qmc, Superoperator, _map_census, _monomial_form, build_qmc,
                          verify_row_stochasticity)

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


def _format_matrix_per_entry(m):
    """The definition format_matrix must match: every entry formatted on its own."""
    return "[" + "; ".join(", ".join(emit.format_number(v) for v in row)
                           for row in np.atleast_2d(m)) + "]"


# values whose spellings differ in sign, integer form, exponent or length
_POOL = [0.0, -0.0, 0j, -0j, complex(0.0, -0.0), complex(-0.0, 0.0), 1.0, -1.0,
         2 ** -0.5, -(2 ** -0.5), complex(2 ** -0.5, -(2 ** -0.5)), 0.5j, -0.5j,
         complex(1.0, -1e-17), 1e15 - 1, 1e15, -1e15, 1e16, 2.0 ** 60,
         5e-324, -5e-324, 2.2250738585072014e-308, complex(5e-324, -5e-324),
         complex(3.0, 1e15), 0.1, 1 / 3]


@st.composite
def _sparse_non_monomial(draw):
    """A mostly-zero matrix of ``_POOL`` entries with two nonzeros in one
    row, or, as a transposed view, in one column."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(2, 12))
    m = np.zeros((rows, cols), dtype=np.complex128)
    for _ in range(draw(st.integers(0, 4))):
        m[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = \
            draw(st.sampled_from(_POOL))
    nonzero = st.sampled_from([v for v in _POOL if v != 0])
    row = draw(st.integers(0, rows - 1))
    at = draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=2, unique=True))
    m[row, at] = [draw(nonzero), draw(nonzero)]
    return m.T if draw(st.booleans()) else m


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(arrays(np.complex128, array_shapes(min_dims=2, max_dims=2, max_side=6),
                          elements=st.sampled_from(_POOL)),
                   _sparse_non_monomial()))
def test_format_matrix_matches_per_entry_definition(m):
    assert format_matrix(m) == _format_matrix_per_entry(m)


@settings(max_examples=50, deadline=None)
@given(m=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5),
                elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_format_matrix_matches_per_entry_definition_on_real_floats(m):
    assert format_matrix(m) == _format_matrix_per_entry(m)


@pytest.mark.parametrize("value", [complex(np.nan, 0), complex(1, np.nan),
                                   complex(np.inf, 0), complex(0, -np.inf)])
def test_format_number_rejects_non_finite(value):
    with pytest.raises(DimensionMismatch):
        format_number(value)


def test_emit_rejects_nan_chain():
    s, _ = translate(parse_circuit("qubits 1\ngate H 1\nmeasure 1\n"))
    with pytest.raises(QmcForgeError):
        emit_qpmc(nan_step_chain(build_qmc(s)))


def test_format_matrix_formats_each_nan_on_its_own(monkeypatch):
    # a NaN equals nothing, so with a formatter that tells nan+0j and 1+nanj
    # apart, every NaN must keep its own word
    monkeypatch.setattr(emit, "format_number", lambda v: repr(complex(v)))
    m = np.array([[complex(np.nan, 0), 1, complex(1, np.nan)],
                  [complex(np.nan, 0), complex(0, np.nan), 1]])
    assert format_matrix(m) == _format_matrix_per_entry(m)
    assert format_matrix(m).count("(1+nanj)") == 1


@pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 1), (2, 1, 3, 1)])
def test_format_matrix_refuses_more_than_two_dimensions(shape):
    with pytest.raises(DimensionMismatch, match="at most 2 dimensions"):
        format_matrix(np.zeros(shape))


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2, 4, 8, 16, 32]), seed=st.integers(0, 2 ** 32 - 1),
       values=st.lists(st.sampled_from([v for v in _POOL if v != 0]), min_size=1, max_size=3))
def test_map_literal_of_a_form_equals_the_dense_literal(dim, seed, values):
    # a monomial map of any values is written from its form's nonzeros as
    # every entry formatted on its own writes its dense matrix, and a dense
    # copy's nonzeros give the same literal
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, dim + 1))
    so = Superoperator.from_index(dim, rng.choice(dim, count, replace=False),
                                  rng.choice(dim, count, replace=False),
                                  rng.choice(np.array(values, dtype=np.complex128), count))
    literal = emit._literal((dim, dim), *so._nonzeros())
    assert so._dense is None
    assert f"[{literal}]" == _format_matrix_per_entry(so.matrix)
    assert emit._literal((dim, dim), *Superoperator(so.matrix.copy())._nonzeros()) == literal


def test_golden_single_gate_model():
    h = gate_matrix("H")
    q = build_qmc(SnfCircuit(k=1, unitaries=(Superoperator(h),), h=1, wire_map=(1,)))
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["composed", "direct", "naive-adjacent"]), st.booleans())
def test_shared_step_arrays_emit_as_copies_do(seed, strategy, swaps_as_gates):
    # translate gives equal steps one array; the model and the row check must
    # be those of the same chain with every position holding its own copy
    c = random_circuit(np.random.default_rng(seed))
    s, _ = translate(c, strategy=strategy, emit_swaps_as_gates=swaps_as_gates)
    q = build_qmc(s)
    copies = matrix_chain(s.k, s.h, [u.matrix.copy() for u in s.unitaries],
                          [so.matrix.copy() for so in q.branches])
    assert emit_qpmc(q) == emit_qpmc(copies)
    assert verify_row_stochasticity(q) == verify_row_stochasticity(copies)


def test_float64_step_re_emits_byte_stably():
    # a float64 step and its complex128 twin were once declared as U1 and U2
    # with the same literal, which reparse collapsed into one constant
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = matrix_chain(1, 1, [x, x.astype(np.complex128), x],
                     [projector(1, 1, i) for i in range(2)])
    text = emit_qpmc(q)
    assert text.count("const matrix U") == 1
    assert emit_qpmc(reparse_model(text)) == text


@pytest.mark.parametrize("name", ["", "m\nendmodule", "1m", "a b", "m-x", "mod\u00e9"])
def test_emit_rejects_non_identifier_names(name):
    q = build_qmc(SnfCircuit(k=1, unitaries=(Superoperator(gate_matrix("H")),), h=1,
                                wire_map=(1,)))
    with pytest.raises(QmcForgeError, match="identifier"):
        emit_qpmc(q, name=name)
    assert "module _m1\n" in emit_qpmc(q, name="_m1")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reparse_round_trip_random_circuits(seed):
    c = random_circuit(np.random.default_rng(seed))
    s, _ = translate(c)
    q = build_qmc(s)
    text = emit_qpmc(q)
    q2 = reparse_model(text)
    assert q2.k == q.k and q2.h == q.h
    assert q2.states == q.states
    assert set(q2.transitions) == set(q.transitions)
    for key, so in q.transitions.items():
        assert np.array_equal(so.matrix, q2.transitions[key].matrix)
    # second emission is byte-identical
    assert emit_qpmc(q2) == text


def test_reparse_rejects_malformed_models():
    h = gate_matrix("H")
    q = build_qmc(SnfCircuit(k=1, unitaries=(Superoperator(h),), h=1, wire_map=(1,)))
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



def _deutsch_model() -> str:
    c = parse_circuit((pathlib.Path(__file__).parents[1] / "circuits" / "deutsch.qc").read_text())
    model = emit_qpmc(build_qmc(translate(c)[0]))
    assert "\nmodule model\n" in model
    return model


# each of these module lines once reparsed into a chain


def test_reparse_rejects_bare_module_line():
    with pytest.raises(ReparseError, match="unrecognized line 'module'"):
        reparse_model(_deutsch_model().replace("\nmodule model\n", "\nmodule\n", 1))


def test_reparse_rejects_module_keyword_prefix():
    with pytest.raises(ReparseError, match="unrecognized line 'modulex y z'"):
        reparse_model(_deutsch_model().replace("\nmodule model\n", "\nmodulex y z\n", 1))


def test_reparse_rejects_module_line_with_endmodule():
    with pytest.raises(ReparseError, match="unrecognized line 'module 9 endmodule'"):
        reparse_model(_deutsch_model().replace("\nmodule model\n",
                                               "\nmodule 9 endmodule\n", 1))


def test_reparse_rejects_second_module_and_stray_endmodule():
    model = _deutsch_model()
    body = model[model.index("module model"):model.index("endmodule") + len("endmodule")]
    with pytest.raises(ReparseError) as err:
        reparse_model(model.replace(body, body + "\n" + body, 1))
    assert str(err.value) == "line 20: expected no line after endmodule, got 'module model'"
    with pytest.raises(ReparseError) as err:
        reparse_model(model.replace("endmodule", "endmodule\nendmodule", 1))
    assert str(err.value) == "line 20: expected no line after endmodule, got 'endmodule'"
    assert reparse_model(model.replace("module model", "module _m2", 1)).n == \
        reparse_model(model).n

VAR_LINE = "  s: [0..5] init 0;\n"


def _move_var_line(model: str, old: str, new: str) -> str:
    return model.replace(VAR_LINE, "").replace(old, new, 1)


# each of these edits once reparsed into a chain
@pytest.mark.parametrize("edit, message", [
    (lambda m: _move_var_line(m, "\nmodule model\n", "\n" + VAR_LINE + "module model\n"),
     "line 10: unrecognized line '  s: [0..5] init 0;'"),
    (lambda m: _move_var_line(m, "endmodule\n", "endmodule\n" + VAR_LINE),
     "line 19: expected no line after endmodule, got '  s: [0..5] init 0;'"),
    (lambda m: m.replace(VAR_LINE, VAR_LINE + VAR_LINE),
     "line 12: expected \"  [] (s = 0) -> <<U1>> : (s' = 1);\", got '  s: [0..5] init 0;'"),
    (lambda m: _move_var_line(m, "  [] (s = 1)", VAR_LINE + "  [] (s = 1)"),
     "line 13: expected \"  [] (s = 0) -> <<U1>> : (s' = 1);\", got '  s: [0..5] init 0;'"),
    (lambda m: m.replace("qmc\n", "", 1), "line 3: missing qmc header"),
    (lambda m: m.replace("qmc\n", "qmc\nqmc\n", 1), "line 2: repeated qmc header"),
], ids=["var-before-module", "var-after-endmodule", "var-twice", "var-after-a-command",
        "header-missing", "header-twice"])
def test_reparse_requires_one_header_and_one_variable_line(edit, message):
    model = _deutsch_model()
    assert VAR_LINE in model
    with pytest.raises(ReparseError) as err:
        reparse_model(edit(model))
    assert str(err.value) == message


# each of these stray constants once reparsed into the 3-step chain
@pytest.mark.parametrize("edit, message", [
    (lambda m: m.replace("endmodule\n", "endmodule\nconst matrix Z = [1];\n", 1),
     "line 20: expected no line after endmodule, got 'const matrix Z = [1];'"),
    (lambda m: m.replace(VAR_LINE, VAR_LINE + "const matrix Z = [1, 0; 0, 1];\n", 1),
     "line 12: expected \"  [] (s = 0) -> <<U1>> : (s' = 1);\", "
     "got 'const matrix Z = [1, 0; 0, 1];'"),
    (lambda m: m.replace("\nmodule model\n", "\nconst matrix Z = [1];\nmodule model\n", 1),
     "constant Z is never used"),
], ids=["after-endmodule", "inside-module", "unused"])
def test_reparse_rejects_stray_constants(edit, message):
    with pytest.raises(ReparseError) as err:
        reparse_model(edit(_deutsch_model()))
    assert str(err.value) == message


_LONG = "N" * 5000
_LONG_CONST = f"const matrix {_LONG} = [1];\n"


def _second_module(model: str) -> str:
    body = model[model.index("module model"):model.index("endmodule") + len("endmodule")]
    return model.replace(body, body + "\n" + body.replace("model", _LONG, 1), 1)


# each of these once echoed the 5,000-character name in full
@pytest.mark.parametrize("edit, shown", [
    (lambda m: m.replace("<<U2>>", f"<<{_LONG}>>", 1),
     f"unknown constant {'N' * 40}... (5000 characters)"),
    (lambda m: m.replace("\nmodule model\n", f"\n{_LONG_CONST * 2}module model\n", 1),
     f"duplicate constant {'N' * 40}... (5000 characters)"),
    (lambda m: m.replace("endmodule\n", f"endmodule\n{_LONG_CONST}", 1),
     f"got 'const matrix {'N' * 27}'... (5020 characters)"),
    (lambda m: m.replace("\nmodule model\n", f"\n{_LONG_CONST}module model\n", 1),
     f"constant {'N' * 40}... (5000 characters)"),
    (_second_module, f"got 'module {'N' * 33}'... (5007 characters)"),
], ids=["unknown", "duplicate", "after-module", "unused", "second-module"])
def test_reparse_cuts_long_names_in_messages(edit, shown):
    with pytest.raises(ReparseError) as err:
        reparse_model(edit(_deutsch_model()))
    text = str(err.value)
    assert shown in text
    assert len(text) < 200


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
    q = build_qmc(SnfCircuit(k=1, unitaries=(Superoperator(h),), h=1, wire_map=(1,)))
    # scale a branch so the measurement no longer resolves the identity
    bad = emit_qpmc(q).replace("[0, 0; 0, 1]", "[0, 0; 0, 2]", 1)
    with pytest.raises(ReparseError):
        reparse_model(bad)


def _verify_against_exits_2(model: str, tmp_path, capsys) -> None:
    path = tmp_path / "model.qpmc"
    path.write_text(model)
    deutsch = pathlib.Path(__file__).parents[1] / "circuits" / "deutsch.qc"
    assert main(["verify", str(deutsch), "--against", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


_HUGE = "1" * 5000  # int() refuses a decimal of over 4,300 digits


# the first three edits once escaped as a bare ValueError
@pytest.mark.parametrize("old, new, message", [
    ("s: [0..5]", f"s: [0..{_HUGE}]",
     f"line 11: expected '  s: [0..5] init 0;', got '  s: [0..{'1' * 31}'... (5018 characters)"),
    ("(s = 5) -> true", f"(s = {_HUGE}) -> true",
     f"line 18: expected '  [] (s = 5) -> true;', got '  [] (s = {'1' * 30}'... (5020 characters)"),
    # the fan-out line is quoted from 20 characters before where it differs
    ("(s' = 5);", f"(s' = {_HUGE});",
     f"line 16: expected ...\"4) + <<M1>> : (s' = 5);\", "
     f"got ...\"4) + <<M1>> : (s' = {'1' * 20}\"... (5022 characters)"),
    # no state number is converted, nor a list of 10^18 guards formed
    ("s: [0..5]", "s: [0..1000000000000000000]",
     "line 11: expected '  s: [0..5] init 0;', got '  s: [0..1000000000000000000] init 0;'"),
], ids=["bound", "guard", "target", "bound-past-the-lines"])
def test_reparse_refuses_huge_state_numbers(old, new, message, tmp_path, capsys):
    model = _deutsch_model()
    assert old in model
    bad = model.replace(old, new, 1)
    with pytest.raises(ReparseError) as err:
        reparse_model(bad)
    assert str(err.value) == message
    _verify_against_exits_2(bad, tmp_path, capsys)


def _swap_lines(text: str, a: str, b: str) -> str:
    lines = text.split("\n")
    i, j = lines.index(a), lines.index(b)
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


# the commands were once keyed by guard, so any order reparsed to one chain
@pytest.mark.parametrize("edit, message", [
    (lambda t: _swap_lines(t, "  [] (s = 0) -> <<U1>> : (s' = 1);",
                           "  [] (s = 1) -> <<U2>> : (s' = 2);"),
     "line 13: expected \"  [] (s = 0) -> <<U2>> : (s' = 1);\", "
     "got \"  [] (s = 1) -> <<U2>> : (s' = 2);\""),
    (lambda t: _swap_lines(t, "  [] (s = 4) -> true;", "  [] (s = 5) -> true;"),
     "line 17: expected '  [] (s = 4) -> true;', got '  [] (s = 5) -> true;'"),
    (lambda t: t.replace("  [] (s = 2) -> <<U3>>", "  [] (s = 1) -> <<U3>>", 1),
     "line 15: expected \"  [] (s = 2) -> <<U3>> : (s' = 3);\", "
     "got \"  [] (s = 1) -> <<U3>> : (s' = 3);\""),
    (lambda t: t.replace("  [] (s = 1) -> <<U2>> : (s' = 2);\n", "", 1),
     "line 14: expected \"  [] (s = 1) -> <<U3>> : (s' = 2);\", "
     "got \"  [] (s = 2) -> <<U3>> : (s' = 3);\""),
], ids=["steps-swapped", "terminals-swapped", "duplicate-guard", "guard-skipped"])
def test_reparse_refuses_commands_out_of_state_order(edit, message, tmp_path, capsys):
    model = _deutsch_model()
    bad = edit(model)
    assert bad != model
    with pytest.raises(ReparseError) as err:
        reparse_model(bad)
    assert str(err.value) == message
    _verify_against_exits_2(bad, tmp_path, capsys)


def _fan_model(branches: int, step: str = "[0, 1; 1, 0]") -> str:
    """A one-step model on the 2x2 projectors M0 and M1 whose fan-out
    applies M0, M1, M0, ... to ``branches`` terminals."""
    terms = " + ".join(f"<<M{i % 2}>> : (s' = {i + 2})" for i in range(branches))
    lines = ["qmc", f"const matrix U1 = {step};", "const matrix M0 = [1, 0; 0, 0];",
             "const matrix M1 = [0, 0; 0, 1];", "module model",
             f"  s: [0..{branches + 1}] init 0;", "  [] (s = 0) -> <<U1>> : (s' = 1);",
             f"  [] (s = 1) -> {terms};",
             *(f"  [] (s = {i + 2}) -> true;" for i in range(branches)), "endmodule"]
    return "\n".join(lines) + "\n"


# the chain's shape is checked by Qmc alone; reparse reports its refusal
@pytest.mark.parametrize("model, message", [
    (_fan_model(3), "need 2^1 branch matrices, got 3"),
    (_fan_model(4), "need 0 <= h <= k, got h=2 k=1"),
    (_fan_model(2, format_matrix(np.eye(4))), "step 1 has shape (4, 4), register needs 2"),
    # the block the writer's lines give for no constant at all
    ("qmc\nmodule model\n  s: [0..0] init 0;\n  [] (s = 0) -> ;\nendmodule\n",
     "need 0 <= h <= k, got h=-1 k=0"),
], ids=["three-branches", "four-branches-one-wire", "step-wider-than-branches", "no-branch"])
def test_reparse_reports_qmc_shape_refusals(model, message, tmp_path, capsys):
    assert reparse_model(_fan_model(2)).n == 1
    with pytest.raises(ReparseError) as err:
        reparse_model(model)
    assert str(err.value) == f"model matrices rejected: {message}"
    _verify_against_exits_2(model, tmp_path, capsys)


# --- emit -> reparse -> emit on random chains --------------------------------

_STEP_POOL = {
    1: [gate_matrix("H"), gate_matrix("X"), gate_matrix("S"), gate_matrix("T"),
        gate_matrix("RY", (0.3,))],
    2: [gate_matrix("CNOT"), gate_matrix("SWAP"), np.kron(gate_matrix("H"), gate_matrix("T"))],
}


@st.composite
def _chain(draw):
    """A chain over k <= 3 wires: steps drawn from gates and seeded random
    unitaries (many distinct entries), repeats allowed, any h <= k."""
    k = draw(st.integers(1, 3))
    dim = 2 ** k
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            steps.append(np.linalg.qr(z)[0])
        else:
            small = draw(st.sampled_from(sorted(_STEP_POOL)).filter(lambda w: w <= k))
            u = draw(st.sampled_from(_STEP_POOL[small]))
            steps.append(np.kron(u, np.eye(dim // 2 ** small, dtype=np.complex128)))
        if steps and draw(st.booleans()):
            steps.append(steps[-1])
    h = draw(st.integers(0, k))
    return matrix_chain(k, h, steps, [projector(h, k, i) for i in range(2 ** h)])


@settings(max_examples=60, deadline=None)
@given(q=_chain())
def test_emit_reparse_emit_is_byte_stable(q):
    text = emit_qpmc(q)
    q2 = reparse_model(text)
    assert q2.states == q.states
    for key, so in q.transitions.items():
        assert np.array_equal(so.matrix, q2.transitions[key].matrix)
    assert emit_qpmc(q2) == text


# tokens float() rejects, each also rejected once an ``i`` suffix is split off
_BAD_TOKENS = ["x", "1x", "0..5", "1+", "1e", "1j", "0.5ii", "--1", "1-+2i", "+-i", "0x10", "1e+i"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bad_token_in_valid_literal_names_line_and_token(data):
    h = gate_matrix("H")
    q = build_qmc(SnfCircuit(k=2, unitaries=(Superoperator(np.kron(h, h)),), h=1,
                                wire_map=(1, 2)))
    lines = emit_qpmc(q).splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("const matrix U1 = ["))
    head, literal = lines[index].split("[", 1)
    cells = [row.split(", ") for row in literal.rstrip("];").split("; ")]
    spots = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=1, max_size=3, unique=True))
    tokens = [data.draw(st.sampled_from(_BAD_TOKENS)) for _ in spots]
    for (row, col), token in zip(spots, tokens):
        cells[row][col] = token
    lines[index] = head + "[" + "; ".join(", ".join(r) for r in cells) + "];"
    first = tokens[spots.index(min(spots))]  # row-major order decides
    message = f"line {index + 1}: bad numeric entry {first!r}"
    with pytest.raises(ReparseError) as err:
        reparse_model("\n".join(lines) + "\n")
    assert str(err.value) == message


# --- the fixed-width byte path for 0/1 matrices -------------------------------

# entries equal to 0 or 1 in each dtype, signed zeros included
_BIT_ENTRIES = {
    "float64": [0.0, -0.0, 1.0],
    "complex128": [0j, -0j, complex(-0.0, 0.0), complex(-0.0, -0.0), 1 + 0j, complex(1, -0.0)],
    "bool": [False, True],
}


def _fixed_width(m: np.ndarray) -> str:
    """The fixed-width literal of a 0/1 matrix, byte by byte: entry i is
    its digit at byte 3i inside the brackets, then ``,`` (``;`` at a row
    end) and a space."""
    out = ["["]
    for i, v in enumerate(m.reshape(-1), start=1):
        out.append("1" if v == 1 else "0")
        if i < m.size:
            out.append("; " if i % m.shape[1] == 0 else ", ")
    return "".join(out) + "]"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_format_matrix_bit_path_matches_word_path(data):
    # the fixed-width layout built byte by byte against format_matrix's words
    dtype = data.draw(st.sampled_from(sorted(_BIT_ENTRIES)))
    m = data.draw(arrays(np.dtype(dtype), array_shapes(min_dims=2, max_dims=2, max_side=9),
                         elements=st.sampled_from(_BIT_ENTRIES[dtype])))
    text = format_matrix(m)
    assert len(text) == 3 * m.size  # brackets around 3rc - 2 bytes
    assert text == _fixed_width(m)


def _parse_outcome(parse, literal):
    try:
        return parse(literal, "line 7")
    except ReparseError as exc:
        return str(exc)


_BYTES = ["0", "1", "2", ",", ";", " ", "\t", "é"]
_SPLICES = ["", "  ", "-0", "1.0", "nan", "0+0i", "1,"]


@st.composite
def _edited_bit_literal(draw):
    """A fixed-width 0/1 literal, then byte flips (which keep the length),
    splices, a truncation or re-spacing."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        cols = rows
    m = draw(arrays(np.float64, (rows, cols), elements=st.sampled_from([0.0, 1.0])))
    literal = format_matrix(m)[1:-1]
    monomial = rows == cols and (m.sum(axis=0) <= 1).all() and (m.sum(axis=1) <= 1).all()
    assert (emit._parse_bits(literal) is not None) == monomial
    kind = draw(st.sampled_from(["keep", "flip", "splice", "truncate", "respace"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(literal) - 1))
            literal = literal[:at] + draw(st.sampled_from(_BYTES)) + literal[at + 1:]
    elif kind == "splice":
        at = draw(st.integers(0, len(literal)))
        cut = draw(st.integers(0, 2))
        literal = literal[:at] + draw(st.sampled_from(_SPLICES)) + literal[at + cut:]
    elif kind == "truncate":
        literal = literal[:draw(st.integers(0, len(literal)))]
    elif kind == "respace":
        old, new = draw(st.sampled_from([(", ", ","), ("; ", ";"), (", ", " , "),
                                         ("; ", " ; "), (" ", "  ")]))
        literal = literal.replace(old, new, draw(st.integers(1, 3)))
    return literal


@settings(max_examples=400, deadline=None)
@given(literal=_edited_bit_literal())
def test_parse_matrix_bit_path_matches_token_path(literal):
    fast = _parse_outcome(emit._parse_matrix, literal)
    slow = _parse_outcome(emit._parse_tokens, literal)
    if isinstance(slow, str):
        assert fast == slow
    else:
        # _parse_matrix returns a map; compare its dense matrix
        assert fast.matrix.dtype == slow.dtype and np.array_equal(fast.matrix, slow)


def test_parse_bits_reads_square_literals_only():
    assert np.array_equal(emit._parse_bits("1, 0; 0, 1").matrix, np.eye(2))
    assert emit._parse_bits("1") is not None
    with pytest.raises(ReparseError, match="^line 7: dimension 3 is not a power of two$"):
        emit._parse_matrix(format_matrix(np.eye(3))[1:-1], "line 7")
    for literal in ("1, 0, 0, 1", "1; 0; 0; 1", "1,0; 0, 1", "1, 0; 0, 1 ", " 1, 0; 0, 1"):
        assert emit._parse_bits(literal) is None


def test_swaps_as_gates_model_is_unchanged_by_the_bit_path(monkeypatch):
    # the inverse routing steps carry -0j entries, which must still print as 0
    s, _ = translate(gen_test_circuit(4), strategy="naive-adjacent", emit_swaps_as_gates=True)
    q = build_qmc(s)
    assert any(np.signbit(so.matrix.imag).any() for so in q.steps)
    text = emit_qpmc(q)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "77ead1087d3a91519f94c02473c9d9ce317240ecd4a3c52a7eab56ef78784c7e"
    fast = reparse_model(text)

    def per_entry(shape, flat, values):
        m = np.zeros(shape, dtype=values.dtype)
        m.reshape(-1)[flat] = values
        return _format_matrix_per_entry(m)[1:-1]

    monkeypatch.setattr(emit, "_literal", per_entry)
    monkeypatch.setattr(emit, "_parse_bits", lambda literal: None)
    assert emit_qpmc(q) == text
    slow = reparse_model(text)
    assert len(fast.steps) == len(slow.steps) == len(q.steps)
    for a, b in zip(fast.steps + fast.branches, slow.steps + slow.branches):
        assert np.array_equal(a.matrix, b.matrix)


# --- one map per model constant ------------------------------------------------

def _two_h_model() -> str:
    text = "qubits 1\ngate H 1\ngate X 1\ngate H 1\nmeasure 1\n"
    model = emit_qpmc(build_qmc(translate(parse_circuit(text))[0]))
    assert "<<U1>> : (s' = 1)" in model and "<<U1>> : (s' = 3)" in model
    return model


def test_reparse_builds_one_map_per_constant():
    q = reparse_model(_two_h_model())
    assert q.n == 3
    assert q.steps[0] is q.steps[2]
    assert q.steps[0] is not q.steps[1]
    assert q.branches[0] is not q.branches[1]


def test_reparse_rejects_trace_increasing_constant_used_twice(monkeypatch):
    model = _two_h_model()
    literal = model.split("const matrix U1 = ", 1)[1].split(";\n", 1)[0]
    bad = model.replace(literal, "[2, 0; 0, 1]", 1)
    reports = []

    def row_check(q):
        reports.append(verify_row_stochasticity(q))
        return reports[-1]

    monkeypatch.setattr(emit, "verify_row_stochasticity", row_check)
    with pytest.raises(ReparseError) as err:
        reparse_model(bad)
    assert str(err.value) == ("model matrices rejected: state s1: outgoing maps "
                              "deviate from trace-preserving by 3.000e+00")
    # the message names the first state; s3 shares the constant and is reported too
    assert [(v.state, v.deviation) for v in reports[0]] == [("s1", 3.0), ("s3", 3.0)]


# each once reparsed: the first with three numpy warnings before its error
# line (a traceback under -W error), the second verified FAIL with exit 1
@pytest.mark.parametrize("literal, message", [
    ("[1e+200, 0, 0, 0; 0, 1, 0, 0; 0, 0, 0, 1; 0, 0, 1, 0]",
     "state s2: outgoing maps deviate from trace-preserving by inf"),
    ("[0.5, 0, 0, 0; 0, 0.5, 0, 0; 0, 0, 0, 0.5; 0, 0, 0.5, 0]",
     "state s2: outgoing maps deviate from trace-preserving by 7.500e-01"),
], ids=["gram-overflows", "trace-decreasing"])
def test_verify_against_refuses_a_model_whose_rows_are_not_trace_preserving(
        literal, message, tmp_path, capsys):
    model = _deutsch_model()
    old = "const matrix U2 = [1, 0, 0, 0; 0, 1, 0, 0; 0, 0, 0, 1; 0, 0, 1, 0];"
    assert old in model
    bad = model.replace(old, f"const matrix U2 = {literal};", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReparseError) as err:
            reparse_model(bad)
        assert str(err.value) == f"model matrices rejected: {message}"
        _verify_against_exits_2(bad, tmp_path, capsys)


# --- the index form: literals, reparse and the constant-pool key ---------------

@st.composite
def _monomial_bits(draw, widths=st.integers(1, 9)):
    """An r x r 0/1 matrix with at most one 1 per row and per column, as
    its (rows, cols) index form."""
    width = draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(0, width))
    return width, np.sort(rng.choice(width, count, replace=False)), \
        rng.choice(width, count, replace=False)


@settings(max_examples=150, deadline=None)
@given(form=_monomial_bits())
def test_index_literal_matches_the_byte_path(form):
    width, rows, cols = form
    so = Superoperator.from_index(width, rows, cols, np.ones(rows.size))
    literal = emit._literal((width, width), *so._nonzeros())
    assert f"[{literal}]" == _fixed_width(so.matrix) == format_matrix(so.matrix)
    # a dense array is written from its scan's nonzeros the same way
    dense = Superoperator(so.matrix.conj())  # -0j in every imaginary part
    assert emit._literal((width, width), *dense._nonzeros()) == literal


@st.composite
def _square_bits(draw):
    """A square 0/1 literal: a monomial one, or one with a second 1 in some
    row or in some column, which the token path reads. Widths 32 and 64
    can hold more than ``emit._FIND_ONES`` 1s, which the numpy scan finds."""
    width, rows, cols = draw(_monomial_bits(st.sampled_from([1, 2, 4, 8, 32, 64])))
    m = np.zeros((width, width))
    m[rows, cols] = 1
    if width > 1:
        i, j = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
        second = draw(st.sampled_from([None, "row", "column"]))
        if second == "row":
            m[i, j] = m[i, (j + 1) % width] = 1
        elif second == "column":
            m[i, j] = m[(i + 1) % width, j] = 1
    return format_matrix(m)[1:-1], m


@settings(max_examples=150, deadline=None)
@given(case=_square_bits())
def test_parse_bits_index_form_densifies_to_the_token_path(case):
    literal, m = case
    so = emit._parse_bits(literal)
    monomial = (np.count_nonzero(m, axis=0).max() <= 1
                and np.count_nonzero(m, axis=1).max() <= 1)
    assert (so is not None) == monomial
    if monomial:
        rows, cols, values = so.monomial
        assert np.array_equal(m[rows, cols], values) and np.count_nonzero(m) == rows.size
    tokens = emit._parse_tokens(literal, "line 7")
    parsed = emit._parse_matrix(literal, "line 7").matrix
    assert parsed.dtype == tokens.dtype and parsed.tobytes() == tokens.tobytes()


def test_identity_step_and_unmeasured_branch_share_one_constant():
    # the h=0 branch is the index-built identity; an identity step is a
    # dense array with equal bytes, so both are U1
    cnot = Superoperator(gate_matrix("CNOT"))
    eye = Superoperator(np.eye(4, dtype=np.complex128))
    for steps in ((eye, cnot), (cnot, eye)):
        model = emit_qpmc(build_qmc(SnfCircuit(k=2, unitaries=steps, h=0, wire_map=(1, 2))))
        assert model.count("\nconst matrix ") == 2
        assert "const matrix M0" not in model
        identity = "U1" if steps[0] is not cnot else "U2"
        assert f"[] (s = 2) -> <<{identity}>> : (s' = 3);" in model
        assert emit_qpmc(reparse_model(model)) == model


_LONG_CHAIN = ("qubits 7\ngate CNOT 1 5\ngate CNOT 7 1\ngate CNOT 2 7\ngate CNOT 4 2\n"
               "gate CNOT 3 4\ngate CNOT 6 3\ngate CNOT 5 6\n")


def test_swap_undo_steps_keep_their_own_constants():
    # the 7-wire cycle under naive-adjacent with swaps as gates: the undo
    # steps carry -0j and stay apart from their forward swaps
    s, _ = translate(parse_circuit(_LONG_CHAIN), strategy="naive-adjacent",
                     emit_swaps_as_gates=True)
    model = emit_qpmc(build_qmc(s))
    assert s.n == 83
    assert len(model) == 691_786 and model.count("\nconst matrix ") == 14
    assert hashlib.sha256(model.encode()).hexdigest() == \
        "3972a60403f3a16b7497c1b8a806107a8a3f4dcc17136c1a05925ad5c7bc0137"


@st.composite
def _pool_maps(draw):
    """Maps of one width for the constant pool to key on their nonzeros:
    index-built forms, dense copies of them, transposed views, maps with two
    nonzeros in a row, any dense one possibly with a signed zero written
    somewhere, and dense copies of the map before with a signed zero
    written, which must share its constant."""
    dim = 2 ** draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    maps = []
    for _ in range(draw(st.integers(2, 6))):
        count = draw(st.integers(0, dim))
        rows = rng.choice(dim, count, replace=False)
        cols = rng.choice(dim, count, replace=False)
        values = draw(st.sampled_from([np.ones(count), np.full(count, 1 - 0j).conj(),
                                       np.exp(1j * np.arange(count))]))
        dense = np.zeros((dim, dim), dtype=np.complex128)
        dense[rows, cols] = values
        kind = draw(st.sampled_from(["index", "dense", "view", "two", "again"]))
        if kind == "index":
            maps.append(Superoperator.from_index(dim, rows, cols, values))
            continue
        if kind == "again" and maps:
            dense = maps[-1].matrix.copy()
        elif kind == "two" and dim > 1:
            dense[0, :2] = 1
        zeros = np.argwhere(dense == 0)
        if zeros.size and draw(st.booleans()):
            dense[tuple(zeros[draw(st.integers(0, len(zeros) - 1))])] = \
                draw(st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0)]))
        if kind == "view":
            dense = dense.T.copy().T
        maps.append(Superoperator(dense))
    return maps


def _reference_pool_key(m: np.ndarray) -> tuple:
    """The (row, col, value bytes) of each nonzero entry, in row-major order."""
    return tuple((r, c, np.complex128(v).tobytes()) for (r, c), v in np.ndenumerate(m) if v != 0)


@settings(max_examples=200, deadline=None)
@given(maps=_pool_maps())
def test_pool_key_is_equal_exactly_when_the_nonzeros_are(maps):
    indexed = [so._dense is None for so in maps]
    keys = [tuple(a.tobytes() for a in so._nonzeros()) for so in maps]
    # reading the keys densified no index-built map
    assert [so._dense is None for so in maps] == indexed
    reference = [_reference_pool_key(so.matrix) for so in maps]
    literals = [format_matrix(so.matrix) for so in maps]
    for a in range(len(maps)):
        for b in range(len(maps)):
            assert (keys[a] == keys[b]) == (reference[a] == reference[b])
            # maps that share a constant have one literal
            assert keys[a] != keys[b] or literals[a] == literals[b]
    # the pool names one constant per distinct key
    q = Qmc(maps[0].dim.bit_length() - 1, 0, tuple(maps[:-1]), (maps[-1],))
    assert emit_qpmc(q).count("\nconst matrix ") == len(set(keys))


# --- model text under edits ----------------------------------------------------

# every line boundary str.splitlines knows, and characters around them
_LINE_CHARS = ["a", " ", "/", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x1f", "\x85", "\u2028", "\u2029", "\u00a0", "\u00e9"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(_LINE_CHARS), max_size=12).map("".join))
def test_split_lines_ends_lines_at_newlines_only(text):
    # no other boundary str.splitlines knows ends a line, and a final "\n"
    # opens no line after it
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    assert list(emit._lines(text)) == lines


def _reparsed(text: str):
    """What reparse_model makes of ``text``: the chain's sizes and each
    map's index form and dense bytes, or the ReparseError message."""
    try:
        q = reparse_model(text)
    except ReparseError as exc:
        return str(exc)
    return q.k, q.h, [(None if so.monomial is None else [a.tobytes() for a in so.monomial],
                       so.matrix.tobytes()) for so in q.steps + q.branches]


def _random_model(draw) -> str:
    """The emitted model of a random circuit on at most 3 wires, fused or
    with swaps as gates."""
    c = random_circuit(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), max_wires=3)
    return emit_qpmc(build_qmc(translate(c, emit_swaps_as_gates=draw(st.booleans()))[0]))


# the line boundaries of str.splitlines other than "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def _model_and_a_break(draw):
    """An emitted model, a position in it and one of the line boundaries
    other than "\\n"."""
    text = _random_model(draw)
    return text, draw(st.integers(0, len(text))), draw(st.sampled_from(_OTHER_BREAKS))


@settings(max_examples=300, deadline=None)
@given(case=_model_and_a_break())
def test_any_other_line_boundary_is_refused_naming_its_line(case):
    # only "\n" ends a line: another boundary is part of the line it falls
    # in, which it breaks unless it is the "\r" of a "\r\n" line end or
    # falls inside a comment
    text, at, ch = case
    start = text.rfind("\n", 0, at) + 1
    end = text.find("\n", at)
    end = len(text) if end < 0 else end
    comment = text.find("//", start, end)
    edited = _reparsed(text[:at] + ch + text[at:])
    if ch == "\r" and at == end or 0 <= comment <= at - 2:
        assert edited == _reparsed(text)
    else:
        lineno = text.count("\n", 0, at) + 1
        assert isinstance(edited, str) and edited.startswith(f"line {lineno}: ")


@st.composite
def _model_with_module_lines_edited(draw):
    """An emitted model, the same model with one whole line of its module
    block (``module NAME`` through ``endmodule``) deleted or duplicated or
    two of them swapped, the numbers of the edited block's first and last
    lines, and whether it still holds ``endmodule``."""
    text = _random_model(draw)
    lines = text.split("\n")
    start, end = lines.index("module model"), lines.index("endmodule") + 1
    block = lines[start:end]
    i, j = (draw(st.integers(0, len(block) - 1)) for _ in range(2))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    if kind == "delete":
        del block[i]
    elif kind == "duplicate":
        block.insert(i, block[i])
    else:
        block[i], block[j] = block[j], block[i]
    edited = "\n".join(lines[:start] + block + lines[end:])
    return text, edited, start + 1, start + len(block), "endmodule" in block


@settings(max_examples=300, deadline=None)
@given(case=_model_with_module_lines_edited())
def test_whole_module_lines_edited_are_refused_naming_one_or_read_the_same(case):
    text, edited, first, last, closed = case
    got = _reparsed(edited)
    if not isinstance(got, str):
        assert got == _reparsed(text)
    elif closed:
        named = re.match(r"line (\d+): ", got)
        assert named and first <= int(named.group(1)) <= last, got
    else:
        assert got == "module is never closed"


def test_reparse_reads_the_module_block_its_writer_writes(monkeypatch):
    # the block is defined once: a writer that spells the state variable
    # otherwise is read back by that same definition, and text in the old
    # spelling is refused naming its state variable line
    model = _deutsch_model()
    module_lines = emit._module_lines

    def init_1(*args):
        for line in module_lines(*args):
            yield line.replace(" init 0;", " init 1;")

    monkeypatch.setattr(emit, "_module_lines", init_1)
    text = _deutsch_model()
    assert text == model.replace("  s: [0..5] init 0;\n", "  s: [0..5] init 1;\n")
    assert emit_qpmc(reparse_model(text)) == text
    with pytest.raises(ReparseError) as err:
        reparse_model(model)
    assert str(err.value) == "line 11: expected '  s: [0..5] init 1;', got '  s: [0..5] init 0;'"


@pytest.mark.parametrize("h", range(4))
def test_property_sketches_are_written_without_the_labeling(h):
    # emit once formed the whole string-keyed labeling of every chain
    q = matrix_chain(3, h, [np.eye(8)] * 2, [projector(h, 3, i) for i in range(2 ** h)])
    text = emit_qpmc(q)
    assert "labeling" not in vars(q)
    sketches = "".join(f"//   qprob(Q=? [ F (s = {q.n + 1 + i}) ], rho0)   // "
                       f"{', '.join(sorted(q.labeling[t]))}\n"
                       for i, t in enumerate(q.terminal_states()))
    assert text.endswith("\n// Property sketches (reachability of measurement outcomes):\n"
                         + sketches)


# each ASCII digit's fullwidth and Arabic-Indic twins, which int() and
# float() read as that digit
_DIGIT_TWINS = {str(d): (chr(0xFF10 + d), chr(0x0660 + d)) for d in range(10)}
# where a number starts: a state number, the bound's digits, a literal token
_NUMBER_START = re.compile(r"(?:(?<=[ \[])|(?<=\.\.))(?=[-0-9])")


@st.composite
def _model_with_one_line_respelled(draw):
    """An emitted model and the number of one line that is neither blank
    nor a comment, edited once: one space dropped, doubled or made a tab,
    one digit made a twin, or one number given a leading zero."""
    text = _random_model(draw)
    lines = text.split("\n")
    kind = draw(st.sampled_from(["drop", "double", "tab", "twin", "zero"]))
    spot = {"twin": re.compile("[0-9]"), "zero": _NUMBER_START}.get(kind, re.compile(" "))
    spots = [(i, m.start()) for i, line in enumerate(lines) if not line.startswith("//")
             for m in spot.finditer(line)]
    i, at = draw(st.sampled_from(spots))
    line = lines[i]
    if kind == "twin":
        new = draw(st.sampled_from(_DIGIT_TWINS[line[at]]))
    else:
        new = {"drop": "", "double": "  ", "tab": "\t", "zero": "0" + line[at]}[kind]
    lines[i] = line[:at] + new + line[at + 1:]
    return "\n".join(lines), i + 1


@settings(max_examples=300, deadline=None)
@given(case=_model_with_one_line_respelled())
def test_one_respelled_token_or_space_is_refused_naming_its_line(case):
    text, lineno = case
    with pytest.raises(ReparseError, match=f"^line {lineno}: "):
        reparse_model(text)


# each of these once reparsed into the Deutsch chain
@pytest.mark.parametrize("old, new, message", [
    ("(s = 1) -> <<U2>> : (s' = 2)", "(s = \u0661) -> <<U2>> : (s' = \u0662)",
     "line 14: expected \"  [] (s = 1) -> <<U2>> : (s' = 2);\", "
     "got \"  [] (s = \u0661) -> <<U2>> : (s' = \u0662);\""),
    ("(s = 1) -> <<U2>>", "(s = 01) -> <<U2>>",
     "line 14: expected \"  [] (s = 1) -> <<U2>> : (s' = 2);\", "
     "got \"  [] (s = 01) -> <<U2>> : (s' = 2);\""),
    ("s: [0..5]", "s: [0..\uff15]",
     "line 11: expected '  s: [0..5] init 0;', got '  s: [0..\uff15] init 0;'"),
    ("const matrix U2 = [1, 0,", "const matrix U2 = [1.0, 0,",
     "line 5: bad numeric entry '1.0'"),
    ("const matrix U2 = [1, 0,", "const matrix U2 = [\uff11, 0,",
     "line 5: bad numeric entry '\uff11'"),
], ids=["arabic-indic-digits", "leading-zero", "fullwidth-bound", "one-point-zero",
        "fullwidth-entry"])
def test_reparse_refuses_other_spellings_of_a_number(old, new, message, tmp_path, capsys):
    model = _deutsch_model()
    assert model.count(old) == 1
    bad = model.replace(old, new)
    with pytest.raises(ReparseError) as err:
        reparse_model(bad)
    assert str(err.value).startswith(message)
    _verify_against_exits_2(bad, tmp_path, capsys)


@pytest.mark.parametrize("text", ["", "\n\n", "// c\n", " \t\r\n"])
def test_text_without_a_line_is_missing_its_header(text):
    with pytest.raises(ReparseError, match="^missing qmc header$"):
        reparse_model(text)


def test_reparse_holds_one_line_at_a_time():
    # 14 constants of 49 KB each: a list of every line would hold the whole text
    s, _ = translate(gen_test_circuit(7), strategy="naive-adjacent", emit_swaps_as_gates=True)
    text = emit_qpmc(build_qmc(s))
    assert len(text) > 600_000
    tracemalloc.start()
    try:
        reparse_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 2


def _with_crlf_and_comments(model: str) -> str:
    """The model with a trailing ``// a/b`` comment on every constant line
    and CRLF line endings."""
    lines = [line + " // a/b" if line.startswith("const matrix ") else line
             for line in model.splitlines()]
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("circuit", sorted((pathlib.Path(__file__).parents[1] / "circuits")
                                           .glob("*.qc")), ids=lambda p: p.stem)
def test_crlf_model_with_comments_reparses_to_the_same_chain(circuit, tmp_path):
    model = emit_qpmc(build_qmc(translate(parse_circuit(circuit.read_text()))[0]))
    edited = _with_crlf_and_comments(model)
    assert edited.count(" // a/b\r\n") == model.count("\nconst matrix ")
    q, q2 = reparse_model(model), reparse_model(edited)
    assert len(q2.steps) == len(q.steps) and len(q2.branches) == len(q.branches)
    for a, b in zip(q.steps + q.branches, q2.steps + q2.branches):
        assert np.array_equal(a.matrix, b.matrix)
    path = tmp_path / "model.qpmc"
    path.write_bytes(edited.encode())
    assert main(["verify", str(circuit), "--against", str(path)]) == 0


def test_slash_inside_a_bit_literal_is_one_error_line(tmp_path, capsys):
    model = _deutsch_model()
    bad = model.replace("const matrix U2 = [1, 0,", "const matrix U2 = [1, 0/,", 1)
    assert bad != model
    with pytest.raises(ReparseError) as err:
        reparse_model(bad)
    assert str(err.value) == "line 5: bad numeric entry '0/'"
    _verify_against_exits_2(bad, tmp_path, capsys)


# one character in place of another; each of the inserts inside a literal
_FLIPS = ["0", "1", "2", ",", ";", " ", "[", "]", "/", "\r", "\n", "\x0b", "\x1c", "-",
          ".", "e", "i", "=", "<", ">", "'", "s", "+", "\u00e9", "\u2028", "\uff11"]
_INSERTS = ["/", "//", "\r", "\r\n", "\u00e9", "\x85", "\u2028", "\u00a0", "\uff11",
            " // a/b"]


@st.composite
def _edited_model(draw):
    """The model of a random circuit on at most 3 wires after one to three
    edits: byte flips, truncations, dropped or swapped lines, inserts inside
    a matrix literal and toggled digits of a literal."""
    c = random_circuit(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), max_wires=3)
    text = emit_qpmc(build_qmc(translate(c)[0]))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "drop", "swap", "insert", "bit"]))
        if kind == "flip" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + draw(st.sampled_from(_FLIPS)) + text[at + 1:]
        elif kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif kind in ("drop", "swap"):
            lines = text.split("\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if kind == "drop":
                del lines[i]
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        else:
            literals = [m.span(1) for m in re.finditer(r"= \[([^\]\n]*)\];", text)]
            if not literals:
                continue
            lo, hi = draw(st.sampled_from(literals))
            at = draw(st.integers(lo, hi))
            if kind == "insert":
                text = text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]
            elif text[at:at + 1] in ("0", "1"):
                # a 0/1 literal stays one after a digit is toggled
                text = text[:at] + "10"[int(text[at])] + text[at + 1:]
    return text


# a projector with a second 1 in its first column: rows distinct, not monomial
_SECOND_ONE_IN_A_COLUMN = _deutsch_model().replace(
    "const matrix M0 = [1, 0, 0, 0; 0, 1, 0, 0; 0, 0, 0, 0;",
    "const matrix M0 = [1, 0, 0, 0; 0, 1, 0, 0; 1, 0, 0, 0;", 1)


@settings(max_examples=300, deadline=None)
@given(text=_edited_model())
@example(text=_SECOND_ONE_IN_A_COLUMN)
def test_edited_model_reparses_to_a_chain_or_a_reparse_error(text):
    parse_bits, accepted = emit._parse_bits, []

    def spy(literal):
        so = parse_bits(literal)
        if so is not None:
            accepted.append((literal, so, so.monomial))
        return so

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emit, "_parse_bits", spy)
        try:
            q = reparse_model(text)
        except ReparseError:
            q = None
    assert q is None or isinstance(q, Qmc)
    # the fixed-width path reads exactly what the per-token path reads, and
    # its index form is the one a scan of that matrix finds
    for literal, so, form in accepted:
        tokens = emit._parse_tokens(literal, "line 1")
        assert so.matrix.dtype == tokens.dtype and np.array_equal(so.matrix, tokens)
        scan = _monomial_form(tokens)
        assert (form is None) == (scan is None)
        assert form is None or all(np.array_equal(a, b) for a, b in zip(form, scan))


_CONST_LINE = re.compile(r"^const matrix (U\d+) = \[([^\]]*)\];$", re.M)


@st.composite
def _row_swapped_permutation(draw):
    """A random circuit on at most 4 wires, its swaps-as-gates model under
    a drawn strategy, and a copy in which two rows of one permutation step
    constant trade their 1s; None when the model has no such constant."""
    text = random_circuit_text(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), 4, 6)
    strategy = draw(st.sampled_from(["composed", "direct", "naive-adjacent"]))
    model = emit_qpmc(build_qmc(translate(parse_circuit(text), strategy, True)[0]))
    permutations = []
    for m in _CONST_LINE.finditer(model):
        rows = m.group(2).split("; ")
        ones = np.array([row.split(", ") for row in rows]) == "1"
        if len(rows) > 1 and set(m.group(2)) <= set("01, ;") and \
                (ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all():
            permutations.append((m, rows))
    if not permutations:
        return None
    m, rows = draw(st.sampled_from(permutations))
    i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    rows[i], rows[j] = rows[j], rows[i]
    return text, model, model[:m.start(2)] + "; ".join(rows) + model[m.end(2):]


@settings(max_examples=100, deadline=None)
@given(case=_row_swapped_permutation())
def test_an_edited_permutation_literal_does_not_pass(case):
    if case is None:
        return
    text, model, edited = case

    def finals(q):
        out = np.eye(2 ** q.k, dtype=np.complex128)
        for so in q.steps:
            out = so.matrix @ out
        return out

    # the rows stay stochastic, so the model is read and checked
    q, q2 = reparse_model(model), reparse_model(edited)
    assert verify_row_stochasticity(q2) == []
    changed = bool((_phase_distances(finals(q), finals(q2)) > 1e-6).any())
    with tempfile.TemporaryDirectory() as tmp:
        circuit, path = pathlib.Path(tmp, "c.qc"), pathlib.Path(tmp, "edited.qpmc")
        circuit.write_text(text)
        path.write_text(edited)
        assert main(["verify", str(circuit), "--against", str(path)]) == (1 if changed else 0)


# --- a map keeps the form it was built with ------------------------------------

def _qft_text(k: int) -> str:
    """The fully measured k-wire QFT of H and controlled phases, as CI
    writes it."""
    lines = [f"qubits {k}"]
    for j in range(1, k + 1):
        lines.append(f"gate H {j}")
        lines += [f"cgate PHASE({np.pi / 2 ** (m - j)!r}) {j} ctrl {m}"
                  for m in range(j + 1, k + 1)]
    lines += [f"measure {w}" for w in range(1, k + 1)]
    return "\n".join(lines) + "\n"


# perfbench's `measured` (seed 0) and `long-chain` (seed 0) circuits and
# their flags, and the 6-wire QFT of CI
_KEPT_FORM_CHAINS = {
    "measured": ("qubits 6\n" + "".join(
        f"gate CNOT {a} {b}\n" for a, b in [(3, 5), (2, 3), (1, 2), (6, 1), (4, 6), (5, 4)])
        + "".join(f"measure {w}\n" for w in range(1, 7)), "composed", False),
    "long-chain": (_LONG_CHAIN, "naive-adjacent", True),
    "qft6": (_qft_text(6), "composed", False),
}


def _observed(q):
    """What a read of a map must not change: the census, which maps are
    index-built, the model bytes and the row-check report."""
    maps = q.steps + q.branches
    return (_map_census(maps), [so._dense is None for so in maps], emit_qpmc(q),
            [(v.state, v.deviation) for v in verify_row_stochasticity(q)])


@pytest.mark.parametrize("reparsed", [False, True], ids=["compiled", "reparsed"])
@pytest.mark.parametrize("name", list(_KEPT_FORM_CHAINS))
def test_reading_a_map_changes_nothing(name, reparsed):
    text, strategy, swaps_as_gates = _KEPT_FORM_CHAINS[name]
    s, _ = translate(parse_circuit(text), strategy=strategy, emit_swaps_as_gates=swaps_as_gates)
    q = build_qmc(s)
    if reparsed:
        q = reparse_model(emit_qpmc(q))
    before = _observed(q)
    assert "index-built" in before[0] and any(before[1])
    for so in (*q.steps, *q.branches, *q.transitions.values()):
        m = so.matrix
        assert so.kraus[0].tobytes() == m.tobytes()
        assert np.array_equal(so.gram(), m.conj().T @ m)
    assert _observed(q) == before


@pytest.mark.parametrize("reparsed", [False, True], ids=["compiled", "reparsed"])
def test_held_matrices_of_a_shared_map_are_one_array(reparsed):
    # a caller holding every step's matrix of the 83-step long chain holds
    # one array per distinct map, not one per step
    s, _ = translate(parse_circuit(_LONG_CHAIN), strategy="naive-adjacent",
                     emit_swaps_as_gates=True)
    q = build_qmc(s)
    if reparsed:
        q = reparse_model(emit_qpmc(q))
    held = [so.kraus[0] for so in q.steps]
    assert len({id(m) for m in held}) == len({id(so) for so in q.steps}) < q.n
    assert all(so._dense is None for so in q.steps)


def _repo_circuits() -> dict[str, str]:
    root = pathlib.Path(__file__).parent.parent / "circuits"
    return {"qft6": _qft_text(6), **{p.name: p.read_text() for p in sorted(root.glob("*.qc"))}}


@pytest.mark.parametrize("swaps_as_gates", [False, True], ids=["fused", "swaps-as-gates"])
@pytest.mark.parametrize("strategy", ["composed", "direct", "naive-adjacent"])
@pytest.mark.parametrize("name", list(_repo_circuits()))
def test_compiled_and_reparsed_chains_hold_the_same_forms(name, strategy, swaps_as_gates):
    s, _ = translate(parse_circuit(_repo_circuits()[name]), strategy=strategy,
                     emit_swaps_as_gates=swaps_as_gates)
    q = build_qmc(s)
    q2 = reparse_model(emit_qpmc(q))
    maps, maps2 = q.steps + q.branches, q2.steps + q2.branches
    assert _map_census(maps2) == _map_census(maps)
    for so, so2 in zip(maps, maps2):
        assert (so2._dense is None) == (so._dense is None)
        if so._dense is None:
            assert all(np.array_equal(a, b) for a, b in zip(so.monomial, so2.monomial))
        else:
            assert np.array_equal(so2.matrix, so.matrix)


@st.composite
def _token_literal(draw):
    """The literal of a matrix that is not 0/1, so the token path reads
    it: a permutation times phases or -1s, maybe with a second nonzero in
    some row or column."""
    dim = 2 ** draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[rng.permutation(dim), np.arange(dim)] = draw(st.sampled_from([
        -np.ones(dim), np.exp(2j * np.pi * rng.random(dim)), 1j * np.ones(dim)]))
    if dim > 1 and draw(st.booleans()):
        m[0, np.flatnonzero(m[0] == 0)[0]] = 0.5
    return format_matrix(m)[1:-1], m


@settings(max_examples=100, deadline=None)
@given(case=_token_literal())
def test_a_token_read_monomial_literal_is_an_index_form(case):
    literal, m = case
    so = emit._parse_matrix(literal, "line 7")
    monomial = (np.count_nonzero(m, axis=0).max() <= 1
                and np.count_nonzero(m, axis=1).max() <= 1)
    assert (so._dense is None) == monomial
    assert so.matrix.tobytes() == emit._parse_tokens(literal, "line 7").tobytes()
