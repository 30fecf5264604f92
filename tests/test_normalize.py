"""Strong normal form: padding, grouping, swap accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import permutation_matrix, random_circuit, random_circuit_text, swap_matrix
from qmcforge import normalize
from qmcforge.emit import emit_qpmc
from qmcforge.evaluate import _walk
from qmcforge.gates import gate_arity, gate_matrix
from qmcforge.linalg import _permute_indices, dagger, swap_decomposition, tensor
from qmcforge.normalize import SnfCircuit, translate
from qmcforge.parser import parse_circuit
from qmcforge.qmc import Superoperator, build_qmc

DEUTSCH = """\
qubits 2
gate H 1
gate H 2
gate CNOT 1 2
gate H 1
measure 1
"""


def test_padding_matches_explicit_embedding():
    # H on wire 2 of 3 = I (x) H (x) I exactly (nothing measured, so no
    # realignment is fused into the step)
    s, _ = translate(parse_circuit("qubits 3\ngate H 2\n"))
    (step,) = s.unitaries
    step = step.matrix
    expected = tensor(np.eye(2), gate_matrix("H"), np.eye(2))
    assert np.allclose(step, expected, atol=1e-12)


def test_padding_nonadjacent_wires():
    # CNOT control on wire 3, target on wire 1, inside a 3-wire register:
    # |b1 b2 b3> -> |b1 xor b3, b2, b3>.
    s, _ = translate(parse_circuit("qubits 3\ngate CNOT 3 1\nmeasure 1\n"))
    (m,) = s.unitaries
    m = m.matrix
    for idx in range(8):
        b1, b2, b3 = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        target = ((b1 ^ b3) << 2) | (b2 << 1) | b3
        assert m[target, idx] == 1.0


def test_snf_groups_disjoint_consecutive_gates():
    s, account = translate(parse_circuit(DEUTSCH))
    assert s.k == 2 and s.h == 1 and s.n == 3
    h, eye = gate_matrix("H"), np.eye(2)
    assert np.allclose(s.unitaries[0].matrix, tensor(h, h), atol=1e-12)
    assert np.allclose(s.unitaries[1].matrix, gate_matrix("CNOT"), atol=1e-12)
    assert np.allclose(s.unitaries[2].matrix, tensor(h, eye), atol=1e-12)
    assert len(account.per_gate) == 3


def _relabel(index: int, wire_map: tuple[int, ...], k: int) -> int:
    """Basis index after moving wire w to position wire_map[w-1] (wire 1 is
    the most significant bit)."""
    out = 0
    for w, p in enumerate(wire_map, start=1):
        if (index >> (k - w)) & 1:
            out |= 1 << (k - p)
    return out


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["composed", "direct", "naive-adjacent"]), st.booleans())
def test_snf_product_matches_dag_semantics(seed, strategy, swaps_as_gates):
    # the chain's product must equal the DAG walk on every basis input, with
    # the measured wires moved to the front; the walk shares no code with
    # translate
    c = parse_circuit(random_circuit_text(np.random.default_rng(seed),
                                          max_wires=5, max_gates=8))
    s, _ = translate(c, strategy=strategy, emit_swaps_as_gates=swaps_as_gates)
    dim = 2 ** s.k
    product = np.eye(dim, dtype=np.complex128)
    for u in s.unitaries:
        product = u.matrix @ product
    finals, _ = _walk(c.k, c.gates, (), np.eye(dim, dtype=np.complex128))
    expected = np.empty_like(finals)
    expected[[_relabel(i, s.wire_map, s.k) for i in range(dim)]] = finals
    assert np.abs(product - expected).max() <= 1e-9


def test_snf_measured_wires_lead():
    # measuring only wire 3 forces a realignment that puts it first
    text = "qubits 3\ngate H 3\nmeasure 3\n"
    s, account = translate(parse_circuit(text))
    assert s.h == 1
    assert s.wire_map == (2, 3, 1)
    # realignment is accounted as its own final entry
    assert len(account.per_gate) == 2
    assert account.total == sum(account.per_gate)


def test_snf_no_realignment_when_measured_wires_lead_already():
    s, account = translate(parse_circuit(DEUTSCH))
    assert s.wire_map == (1, 2)
    assert len(account.per_gate) == s.n


@pytest.mark.parametrize("strategy", ["composed", "direct", "naive-adjacent"])
def test_strategies_produce_identical_chains(strategy):
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_circuit(rng)
        base, _ = translate(c, strategy="direct")
        s, account = translate(c, strategy=strategy)
        assert s.n == base.n
        for a, b in zip(s.unitaries, base.unitaries):
            assert np.allclose(a.matrix, b.matrix, atol=1e-12)
        if strategy == "direct":
            assert account.total == 0


def test_swap_counts_respect_strategy_bounds():
    text = "qubits 4\ngate CNOT 4 2\ngate CNOT 2 4\ngate H 3\nmeasure 2\n"
    c = parse_circuit(text)
    k = c.k
    _, naive = translate(c, strategy="naive-adjacent")
    _, composed = translate(c, strategy="composed")
    assert all(g <= k * (k - 1) // 2 for g in naive.per_gate)
    assert all(g <= k - 1 for g in composed.per_gate)
    assert naive.total >= composed.total


def test_emit_swaps_as_gates_expands_chain():
    text = "qubits 3\ngate CNOT 3 1\nmeasure 3\n"
    c = parse_circuit(text)
    fused, af = translate(c, strategy="naive-adjacent")
    split, asp = translate(c, strategy="naive-adjacent", emit_swaps_as_gates=True)
    assert split.n > fused.n
    assert asp.total == af.total
    # the products of both chains agree
    pf = np.eye(8, dtype=np.complex128)
    for u in fused.unitaries:
        pf = u.matrix @ pf
    ps = np.eye(8, dtype=np.complex128)
    for u in split.unitaries:
        ps = u.matrix @ ps
    assert np.allclose(pf, ps, atol=1e-12)


def test_swap_steps_share_one_array_per_matrix():
    # a CNOT cycle routed by adjacent swaps emitted as gates repeats a few
    # matrices at many positions: each distinct matrix is one array
    cycle = [(3, 1), (5, 3), (2, 5), (4, 2), (1, 4)]
    text = "qubits 5\n" + "".join(f"gate CNOT {a} {b}\n" for a, b in cycle)
    s, _ = translate(parse_circuit(text), strategy="naive-adjacent",
                     emit_swaps_as_gates=True)
    distinct = {u.matrix.tobytes() for u in s.unitaries}
    assert len({id(u) for u in s.unitaries}) == len(distinct) < s.n


# --- index-built steps against the dense arithmetic ------------------------------

def _reference_steps(c, strategy, swaps_as_gates):
    """The chain steps as dense arrays, by the arithmetic translate used
    before it built index forms: the run padded by np.kron, the fused gather
    by np.ix_, routing steps as dense permutation matrices, their undos by
    dagger, and the realignment as a row gather."""
    k, h = c.k, len(c.measured)

    def route(perm, swaps):
        if swaps:
            return [swap_matrix(k, i, j) for i, j in swaps]
        return [] if list(perm) == list(range(1, k + 1)) else [permutation_matrix(k, perm)]

    steps = []
    for group in normalize._grouped_payloads(c.gates):
        wires = tuple(w for _, gw in group for w in gw)
        padded = tensor(*(base for base, _ in group),
                        np.eye(2 ** (k - len(wires)), dtype=np.complex128))
        perm = normalize._route_perm(wires, k)
        swaps = swap_decomposition(perm, strategy)
        if swaps_as_gates:
            routing = route(perm, swaps)
            steps += [*routing, padded, *(dagger(m) for m in reversed(routing))]
        else:
            idx = _permute_indices(k, perm)
            steps.append(padded[np.ix_(idx, idx)])
    if c.measured != tuple(range(1, h + 1)):
        wire_map = normalize._route_perm(c.measured, k)
        if swaps_as_gates:
            steps += route(wire_map, swap_decomposition(wire_map, strategy))
        else:
            last = steps.pop() if steps else np.eye(2 ** k, dtype=np.complex128)
            steps.append(last[np.argsort(_permute_indices(k, wire_map))])
    return steps


def _is_monomial(m) -> bool:
    return (np.count_nonzero(m, axis=0).max() <= 1
            and np.count_nonzero(m, axis=1).max() <= 1)


# monomial gates with every sign of zero, -1, +-i and unit phases, and H
_GATES = ["I", "X", "Y", "Z", "S", "T", "CNOT", "CZ", "SWAP", "CCNOT", "adjoint(X)", "adjoint(S)",
          "adjoint(T)", "adjoint(Y)", "controlled(S)", "controlled(Y)",
          "controlled(adjoint(T))", "adjoint(controlled(Z))", "controlled(controlled(Z))",
          "H"]


@st.composite
def _phase_circuit(draw):
    k = draw(st.integers(1, 4))
    lines = [f"qubits {k}"]
    for _ in range(draw(st.integers(0, 7))):
        name = draw(st.sampled_from(
            [g for g in _GATES if gate_arity(g) <= k]
            + [f"PHASE({draw(st.floats(-4, 4, allow_nan=False))!r})", "PHASE(0.0)"]))
        wires = draw(st.permutations(range(1, k + 1)))[:gate_arity(name)]
        lines.append(f"gate {name} " + " ".join(map(str, wires)))
    measured = draw(st.lists(st.integers(1, k), unique=True, max_size=k))
    lines += [f"measure {w}" for w in measured]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_phase_circuit(), strategy=st.sampled_from(["composed", "direct", "naive-adjacent"]),
       swaps_as_gates=st.booleans())
def test_index_built_steps_equal_the_dense_arithmetic(text, strategy, swaps_as_gates):
    c = parse_circuit(text)
    s, _ = translate(c, strategy=strategy, emit_swaps_as_gates=swaps_as_gates)
    reference = _reference_steps(c, strategy, swaps_as_gates)
    assert len(s.unitaries) == len(reference)
    # a step is dense exactly when its run holds a gate with two nonzeros in a row
    for so, m in zip(s.unitaries, reference):
        assert (so._dense is None) == _is_monomial(m)
        if so._dense is None:
            rows, cols, values = so.monomial
            want_rows, want_cols = np.nonzero(m)
            assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()
            assert values.tobytes() == m[rows, cols].tobytes()
    # the same constants, signed zeros of the dense arrays included, and bytes
    dense = SnfCircuit(s.k, tuple(map(Superoperator, reference)), s.h, s.wire_map)
    assert emit_qpmc(build_qmc(s)) == emit_qpmc(build_qmc(dense))
    # and read dense, each step is the reference array, signed zeros included
    for so, m in zip(s.unitaries, reference):
        assert so.matrix.tobytes() == m.tobytes()


def test_equal_forms_with_other_signed_zeros_keep_their_own_constants():
    # Y on wire 2 alone and the run (I on 1, Y on 2) have equal index forms,
    # but the kron of I's zeros with Y's -0-1j leaves -0 where the other
    # has +0: the dense arrays differ, and so do the constants
    text = "qubits 2\ngate Y 2\ngate I 1\ngate Y 2\ngate controlled(S) 2 1\n"
    s, _ = translate(parse_circuit(text))
    first, second = s.unitaries[:2]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first.monomial, second.monomial))
    model = emit_qpmc(build_qmc(s))
    assert "<<U1>> : (s' = 1)" in model and "<<U2>> : (s' = 2)" in model
    literals = [line.split(" = ", 1)[1] for line in model.splitlines()
                if line.startswith("const matrix U")]
    assert len(literals) == 3 and literals[0] == literals[1]
    assert first.matrix.tobytes() != second.matrix.tobytes()
