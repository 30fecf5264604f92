"""Normal form and strong normal form: padding, grouping, swap accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, random_circuit_text
from qmcforge.circuit import UNITARY, validate, wire_positions
from qmcforge.errors import NotNormalForm
from qmcforge.gates import gate_matrix
from qmcforge.linalg import generalized_swap, tensor
from qmcforge.normalize import (snf_to_circuit, to_normal_form, to_snf,
                                translate)
from qmcforge.parser import parse_circuit

DEUTSCH = """\
qubits 2
gate H 1
gate H 2
gate CNOT 1 2
gate H 1
measure 1
"""


def test_normal_form_pads_every_gate_to_full_width():
    c = to_normal_form(parse_circuit(DEUTSCH))
    assert validate(c) == []
    gates = c.nodes_of_kind(UNITARY)
    assert len(gates) == 4  # gate count unchanged
    for g in gates:
        assert c.nodes[g].dim == c.k
        assert c.nodes[g].matrix.shape == (4, 4)
    # every full-width gate occupies all wires in ascending order
    positions = wire_positions(c)
    for g in gates:
        assert positions[g] == (1, 2)


def test_normal_form_keeps_footprint_metadata():
    c = to_normal_form(parse_circuit(DEUTSCH))
    footprints = sorted(c.nodes[g].footprint for g in c.nodes_of_kind(UNITARY))
    assert footprints == [(1,), (1,), (1, 2), (2,)]
    for g in c.nodes_of_kind(UNITARY):
        node = c.nodes[g]
        assert node.base.shape == (2 ** len(node.footprint),) * 2


def test_normal_form_is_idempotent():
    c1 = to_normal_form(parse_circuit(DEUTSCH))
    c2 = to_normal_form(c1)
    g1 = [c1.nodes[g].matrix for g in sorted(c1.nodes_of_kind(UNITARY))]
    g2 = [c2.nodes[g].matrix for g in sorted(c2.nodes_of_kind(UNITARY))]
    assert len(g1) == len(g2)
    for a, b in zip(g1, g2):
        assert np.allclose(a, b, atol=1e-12)


def test_padding_matches_explicit_embedding():
    # H on wire 2 of 3 = I (x) H (x) I exactly.
    c = to_normal_form(parse_circuit("qubits 3\ngate H 2\nmeasure 2\n"))
    (g,) = c.nodes_of_kind(UNITARY)
    expected = tensor(np.eye(2), gate_matrix("H"), np.eye(2))
    assert np.allclose(c.nodes[g].matrix, expected, atol=1e-12)


def test_padding_nonadjacent_wires():
    # CNOT control on wire 3, target on wire 1, inside a 3-wire register:
    # |b1 b2 b3> -> |b1 xor b3, b2, b3>.
    c = to_normal_form(parse_circuit("qubits 3\ngate CNOT 3 1\nmeasure 1\n"))
    (g,) = c.nodes_of_kind(UNITARY)
    m = c.nodes[g].matrix
    for idx in range(8):
        b1, b2, b3 = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        target = ((b1 ^ b3) << 2) | (b2 << 1) | b3
        assert m[target, idx] == 1.0


def test_snf_groups_disjoint_consecutive_gates():
    s, account = to_snf(to_normal_form(parse_circuit(DEUTSCH)))
    assert s.k == 2 and s.h == 1 and s.n == 3
    h, eye = gate_matrix("H"), np.eye(2)
    assert np.allclose(s.unitaries[0], tensor(h, h), atol=1e-12)
    assert np.allclose(s.unitaries[1], gate_matrix("CNOT"), atol=1e-12)
    assert np.allclose(s.unitaries[2], tensor(h, eye), atol=1e-12)
    assert len(account.per_gate) == 3


def test_snf_rejects_unnormalized_input():
    with pytest.raises(NotNormalForm):
        to_snf(parse_circuit(DEUTSCH))


def test_snf_product_matches_dag_semantics():
    from qmcforge.evaluate import simulate_circuit
    rng = np.random.default_rng(3)
    for _ in range(30):
        c = random_circuit(rng)
        s, _ = translate(c)
        product = np.eye(2 ** s.k, dtype=np.complex128)
        for u in s.unitaries:
            product = u @ product
        reorder, _ = generalized_swap(s.wire_map, "direct")
        for idx in range(2 ** s.k):
            tau = np.zeros(2 ** s.k, dtype=np.complex128)
            tau[idx] = 1.0
            assert np.allclose(product @ tau,
                               reorder @ simulate_circuit(c, tau), atol=1e-9)


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


def test_snf_to_circuit_round_trip():
    s, _ = translate(parse_circuit(DEUTSCH))
    c = snf_to_circuit(s)
    assert validate(c) == []
    s2, _ = translate(c)
    assert s2.n == s.n and s2.h == s.h
    for a, b in zip(s.unitaries, s2.unitaries):
        assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["composed", "direct", "naive-adjacent"]), st.booleans())
def test_translate_equals_snf_of_normal_form(seed, strategy, swaps_as_gates):
    # translate reads the source gates directly; the padded normal form it
    # skips must lead to the very same chain, bit for bit
    c = parse_circuit(random_circuit_text(np.random.default_rng(seed),
                                          max_wires=5, max_gates=8))
    s, account = translate(c, strategy=strategy, emit_swaps_as_gates=swaps_as_gates)
    ref, ref_account = to_snf(to_normal_form(c), strategy=strategy,
                              emit_swaps_as_gates=swaps_as_gates)
    assert (s.k, s.h, s.wire_map) == (ref.k, ref.h, ref.wire_map)
    assert account == ref_account
    assert len(s.unitaries) == len(ref.unitaries)
    for a, b in zip(s.unitaries, ref.unitaries):
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # the emitter's constant pool keys
