"""Strong normal form: padding, grouping, swap accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, random_circuit_text
from qmcforge.circuit import placed
from qmcforge.evaluate import _walk
from qmcforge.gates import gate_matrix
from qmcforge.linalg import tensor
from qmcforge.normalize import translate
from qmcforge.parser import parse_circuit

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
    expected = tensor(np.eye(2), gate_matrix("H"), np.eye(2))
    assert np.allclose(step, expected, atol=1e-12)


def test_padding_nonadjacent_wires():
    # CNOT control on wire 3, target on wire 1, inside a 3-wire register:
    # |b1 b2 b3> -> |b1 xor b3, b2, b3>.
    s, _ = translate(parse_circuit("qubits 3\ngate CNOT 3 1\nmeasure 1\n"))
    (m,) = s.unitaries
    for idx in range(8):
        b1, b2, b3 = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        target = ((b1 ^ b3) << 2) | (b2 << 1) | b3
        assert m[target, idx] == 1.0


def test_snf_groups_disjoint_consecutive_gates():
    s, account = translate(parse_circuit(DEUTSCH))
    assert s.k == 2 and s.h == 1 and s.n == 3
    h, eye = gate_matrix("H"), np.eye(2)
    assert np.allclose(s.unitaries[0], tensor(h, h), atol=1e-12)
    assert np.allclose(s.unitaries[1], gate_matrix("CNOT"), atol=1e-12)
    assert np.allclose(s.unitaries[2], tensor(h, eye), atol=1e-12)
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
        product = u @ product
    finals, _ = _walk(c.k, placed(c)[0], (), np.eye(dim, dtype=np.complex128))
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
            assert np.allclose(a, b, atol=1e-12)
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
        pf = u @ pf
    ps = np.eye(8, dtype=np.complex128)
    for u in split.unitaries:
        ps = u @ ps
    assert np.allclose(pf, ps, atol=1e-12)


def test_swap_steps_share_one_array_per_matrix():
    # a CNOT cycle routed by adjacent swaps emitted as gates repeats a few
    # matrices at many positions: each distinct matrix is one array
    cycle = [(3, 1), (5, 3), (2, 5), (4, 2), (1, 4)]
    text = "qubits 5\n" + "".join(f"gate CNOT {a} {b}\n" for a, b in cycle)
    s, _ = translate(parse_circuit(text), strategy="naive-adjacent",
                     emit_swaps_as_gates=True)
    distinct = {u.tobytes() for u in s.unitaries}
    assert len({id(u) for u in s.unitaries}) == len(distinct) < s.n
