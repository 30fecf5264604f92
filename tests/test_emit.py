"""Model text emission: formatting, golden files, and reparse round-trips."""

import hashlib
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import matrix_chain, nan_step_chain, projector, random_circuit
from qmcforge import emit
from qmcforge.cli import gen_test_circuit, main
from qmcforge.emit import emit_qpmc, format_matrix, format_number, reparse_model
from qmcforge.errors import DimensionMismatch, QmcForgeError, ReparseError
from qmcforge.gates import gate_matrix
from qmcforge.normalize import SnfCircuit, translate
from qmcforge.parser import parse_circuit
from qmcforge.qmc import Qmc, Superoperator, build_qmc, verify_row_stochasticity

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


@settings(max_examples=200, deadline=None)
@given(m=arrays(np.complex128, array_shapes(min_dims=2, max_dims=2, max_side=6),
                elements=st.sampled_from(_POOL)))
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
    # np.unique's default equal_nan would fold nan+0j and 1+nanj into one
    # word; with a formatter that tells them apart, every NaN must keep its own
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
@given(dim=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 2 ** 32 - 1),
       values=st.lists(st.sampled_from([v for v in _POOL if v != 0]), min_size=1, max_size=3))
def test_map_literal_of_a_form_equals_the_dense_literal(dim, seed, values):
    # a monomial map of any values is written from its form, as format_matrix
    # writes its dense matrix
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, dim + 1))
    so = Superoperator.from_index(dim, rng.choice(dim, count, replace=False),
                                  rng.choice(dim, count, replace=False),
                                  rng.choice(np.array(values, dtype=np.complex128), count))
    form = so.monomial
    assert emit._map_literal(so, form) == format_matrix(so.matrix)


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
    with pytest.raises(ReparseError, match="second module model"):
        reparse_model(model.replace(body, body + "\n" + body, 1))
    with pytest.raises(ReparseError, match="endmodule without an open module"):
        reparse_model(model.replace("endmodule", "endmodule\nendmodule", 1))
    assert reparse_model(model.replace("module model", "module _m2", 1)).n == \
        reparse_model(model).n

VAR_LINE = "  s: [0..5] init 0;\n"


def _move_var_line(model: str, old: str, new: str) -> str:
    return model.replace(VAR_LINE, "").replace(old, new, 1)


# each of these edits once reparsed into a chain
@pytest.mark.parametrize("edit, message", [
    (lambda m: _move_var_line(m, "\nmodule model\n", "\n" + VAR_LINE + "module model\n"),
     "line 10: state variable outside the module"),
    (lambda m: _move_var_line(m, "endmodule\n", "endmodule\n" + VAR_LINE),
     "line 19: state variable outside the module"),
    (lambda m: m.replace(VAR_LINE, VAR_LINE + VAR_LINE),
     "line 12: second state variable declaration"),
    (lambda m: m.replace("qmc\n", "", 1), "line 3: missing qmc header"),
    (lambda m: m.replace("qmc\n", "qmc\nqmc\n", 1), "line 2: repeated qmc header"),
], ids=["var-before-module", "var-after-endmodule", "var-twice", "header-missing",
        "header-twice"])
def test_reparse_requires_one_header_and_one_variable_line(edit, message):
    model = _deutsch_model()
    assert VAR_LINE in model
    with pytest.raises(ReparseError, match=message):
        reparse_model(edit(model))


# each of these stray constants once reparsed into the 3-step chain
@pytest.mark.parametrize("edit, message", [
    (lambda m: m.replace("endmodule\n", "endmodule\nconst matrix Z = [1];\n", 1),
     "line 20: constant Z after the module line"),
    (lambda m: m.replace(VAR_LINE, VAR_LINE + "  const matrix Z = [1, 0; 0, 1];\n", 1),
     "line 12: constant Z after the module line"),
    (lambda m: m.replace("\nmodule model\n", "\nconst matrix Z = [1];\nmodule model\n", 1),
     "constant Z is never used"),
], ids=["after-endmodule", "inside-module", "unused"])
def test_reparse_rejects_stray_constants(edit, message):
    with pytest.raises(ReparseError, match=message):
        reparse_model(edit(_deutsch_model()))


_LONG = "N" * 5000
_LONG_CONST = f"const matrix {_LONG} = [1];\n"


def _second_module(model: str) -> str:
    body = model[model.index("module model"):model.index("endmodule") + len("endmodule")]
    return model.replace(body, body + "\n" + body.replace("model", _LONG, 1), 1)


# each of these once echoed the 5,000-character name in full
@pytest.mark.parametrize("edit, message", [
    (lambda m: m.replace("<<U2>>", f"<<{_LONG}>>", 1), "unknown constant"),
    (lambda m: m.replace("\nmodule model\n", f"\n{_LONG_CONST * 2}module model\n", 1),
     "duplicate constant"),
    (lambda m: m.replace("endmodule\n", f"endmodule\n{_LONG_CONST}", 1), "constant"),
    (lambda m: m.replace("\nmodule model\n", f"\n{_LONG_CONST}module model\n", 1),
     "constant"),
    (_second_module, "second module"),
], ids=["unknown", "duplicate", "after-module", "unused", "second-module"])
def test_reparse_cuts_long_names_in_messages(edit, message):
    with pytest.raises(ReparseError) as err:
        reparse_model(edit(_deutsch_model()))
    text = str(err.value)
    assert f"{message} {'N' * 40}... (5000 characters)" in text
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
    ("s: [0..5]", f"s: [0..{_HUGE}]", "^line 11: state number of 5000 digits$"),
    ("(s = 5) -> true", f"(s = {_HUGE}) -> true", "^line 18: state number of 5000 digits$"),
    ("(s' = 5);", f"(s' = {_HUGE});", "^line 16: state number of 5000 digits$"),
    # converts, but must not become a list of 10^18 guards
    ("s: [0..5]", "s: [0..1000000000000000000]",
     "^guards do not cover 0..1000000000000000000 exactly once$"),
], ids=["bound", "guard", "target", "bound-past-the-lines"])
def test_reparse_refuses_huge_state_numbers(old, new, message, tmp_path, capsys):
    model = _deutsch_model()
    assert old in model
    bad = model.replace(old, new, 1)
    with pytest.raises(ReparseError, match=message):
        reparse_model(bad)
    _verify_against_exits_2(bad, tmp_path, capsys)


def _fan_model(branches: int, step: str = "[0, 1; 1, 0]") -> str:
    """A one-step model on the 2x2 projectors M0 and M1 whose fan-out
    applies M0, M1, M0, ... to ``branches`` terminals."""
    terms = " + ".join(f"<<M{i % 2}>> : (s' = {i + 2})" for i in range(branches))
    lines = ["qmc", f"const matrix U1 = {step};", "const matrix M0 = [1, 0; 0, 0];",
             "const matrix M1 = [0, 0; 0, 1];", "module model",
             f"s: [0..{branches + 1}] init 0;", "[] (s = 0) -> <<U1>> : (s' = 1);",
             f"[] (s = 1) -> {terms};",
             *(f"[] (s = {i + 2}) -> true;" for i in range(branches)), "endmodule"]
    return "\n".join(lines) + "\n"


# the chain's shape is checked by Qmc alone; reparse reports its refusal
@pytest.mark.parametrize("model, message", [
    (_fan_model(3), "need 2^1 branch matrices, got 3"),
    (_fan_model(4), "need 0 <= h <= k, got h=2 k=1"),
    (_fan_model(2, format_matrix(np.eye(4))), "step 1 has shape (4, 4), register needs 2"),
], ids=["three-branches", "four-branches-one-wire", "step-wider-than-branches"])
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
    monkeypatch.setattr(emit, "_map_literal", lambda so, form: format_matrix(so.matrix))
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
    ("[1e200, 0, 0, 0; 0, 1, 0, 0; 0, 0, 0, 1; 0, 0, 1, 0]",
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
    literal = emit._map_literal(so, so.monomial)
    assert literal == _fixed_width(so.matrix) == format_matrix(so.matrix)
    # a dense monomial array is written from its scan the same way
    dense = Superoperator(so.matrix.conj())  # -0j in every imaginary part
    assert emit._map_literal(dense, dense.monomial) == literal


@st.composite
def _square_bits(draw):
    """A square 0/1 literal: a monomial one, or one with a second 1 in some
    row or column, which the token path reads."""
    width, rows, cols = draw(_monomial_bits(st.sampled_from([1, 2, 4, 8])))
    m = np.zeros((width, width))
    m[rows, cols] = 1
    if width > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
        m[i, j] = m[i, (j + 1) % width] = 1
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
    """Maps of one width that the constant pool must tell apart by their
    dense bytes: index-built forms, dense copies of them, dense copies with
    a signed zero written somewhere, transposed views and a map with two
    nonzeros in a row."""
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
        kind = draw(st.sampled_from(["index", "dense", "signed", "view", "two"]))
        if kind == "index":
            maps.append(Superoperator.from_index(dim, rows, cols, values))
            continue
        if kind == "signed":
            zeros = np.argwhere(dense == 0)
            if zeros.size:
                dense[tuple(zeros[draw(st.integers(0, len(zeros) - 1))])] = \
                    draw(st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0)]))
        elif kind == "view":
            dense = dense.T.copy().T
        elif kind == "two" and dim > 1:
            dense[0, :2] = 1
        maps.append(Superoperator(dense))
    return maps


@settings(max_examples=200, deadline=None)
@given(maps=_pool_maps())
def test_pool_key_is_equal_exactly_when_the_dense_bytes_are(maps):
    keys = [so._bytes_key()[0] for so in maps]
    dense = [so.matrix.tobytes() for so in maps]
    for a in range(len(maps)):
        for b in range(len(maps)):
            assert (keys[a] == keys[b]) == (dense[a] == dense[b])


# --- model text under edits ----------------------------------------------------

# every line boundary str.splitlines knows, and characters around them
_LINE_CHARS = ["a", " ", "/", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x1f", "\x85", "\u2028", "\u2029", "\u00a0", "\u00e9"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(_LINE_CHARS), max_size=12).map("".join))
def test_split_lines_splits_as_splitlines_does(text):
    assert emit._split_lines(text) == text.splitlines()


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
        scan = Superoperator(tokens).monomial
        assert (form is None) == (scan is None)
        assert form is None or all(np.array_equal(a, b) for a, b in zip(form, scan))
