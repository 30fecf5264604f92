"""Chain construction: superoperators, branching, and row stochasticity."""

import numpy as np
import pytest

from helpers import nan_step_chain, random_circuit
from qmcforge.errors import DimensionMismatch, OutcomeOutOfRange
from qmcforge.gates import gate_matrix
from qmcforge.normalize import SnfCircuit, translate
from qmcforge.qmc import (Qmc, Superoperator, build_qmc, measurement_matrix,
                          verify_row_stochasticity)

H = gate_matrix("H")


def _single_h_chain():
    return build_qmc(SnfCircuit(k=1, unitaries=(H,), h=1, wire_map=(1,)))


def test_superoperator_validates_kraus_family():
    Superoperator((H,))  # unitary: fine
    half = np.diag([1.0, 0.5]).astype(np.complex128)
    Superoperator((half,))  # trace-nonincreasing: fine
    with pytest.raises(DimensionMismatch):
        Superoperator((np.diag([1.0, 1.5]).astype(np.complex128),))
    with pytest.raises(DimensionMismatch):
        Superoperator((H, np.eye(4, dtype=np.complex128)))
    with pytest.raises(DimensionMismatch):
        Superoperator(())


def test_superoperator_apply():
    rho = np.diag([1.0, 0.0]).astype(np.complex128)
    so = Superoperator((H,))
    out = so.apply(rho)
    assert np.allclose(out, np.full((2, 2), 0.5), atol=1e-12)


def test_measurement_matrix_shapes_and_blocks():
    # two measured of three wires: projector onto outcome block (x) identity
    m = measurement_matrix(2, 3, 1)
    expected = np.zeros((8, 8))
    expected[2:4, 2:4] = np.eye(2)
    assert np.array_equal(m, expected)
    with pytest.raises(OutcomeOutOfRange):
        measurement_matrix(2, 3, 4)
    with pytest.raises(DimensionMismatch):
        measurement_matrix(4, 3, 0)


def test_measurement_matrices_resolve_identity():
    for k in range(1, 7):
        for h in range(0, k + 1):
            acc = np.zeros((2 ** k, 2 ** k), dtype=np.complex128)
            for i in range(2 ** h):
                m = measurement_matrix(h, k, i)
                acc += m.conj().T @ m
            assert np.allclose(acc, np.eye(2 ** k), atol=1e-12)


def test_chain_shape_single_gate():
    q = _single_h_chain()
    assert q.k == 1 and q.h == 1 and q.n == 1
    assert q.internal_states() == ["s1", "s2"]
    assert q.terminal_states() == ["t0", "t1"]
    assert set(q.transitions) == {("s1", "s2"), ("s2", "t0"), ("s2", "t1"),
                                  ("t0", "t0"), ("t1", "t1")}


def test_chain_labeling_and_ap():
    q = _single_h_chain()
    assert q.labeling["s1"] == frozenset({"step=1"})
    assert q.labeling["t0"] == frozenset({"terminal", "outcome=0"})
    assert q.labeling["t1"] == frozenset({"terminal", "outcome=1"})
    assert "terminal" in q.ap and "outcome=1" in q.ap


def test_chain_without_measurements():
    s = SnfCircuit(k=2, unitaries=(np.kron(H, H),), h=0, wire_map=(1, 2))
    q = build_qmc(s)
    assert q.h == 0
    assert q.terminal_states() == ["t0"]
    assert q.labeling["t0"] == frozenset({"terminal"})
    so = q.transitions[("s2", "t0")]
    assert np.array_equal(so.kraus[0], np.eye(4))


def test_terminal_states_self_loop():
    q = _single_h_chain()
    for t in q.terminal_states():
        so = q.transitions[(t, t)]
        assert len(so.kraus) == 1
        assert np.array_equal(so.kraus[0], np.eye(2))


def test_row_stochasticity_clean_chain():
    q = _single_h_chain()
    assert verify_row_stochasticity(q) == []


def test_row_stochasticity_flags_leaky_chain():
    q = _single_h_chain()
    # drop one branch: state s2 no longer resolves the identity
    cut = {k: v for k, v in q.transitions.items() if k != ("s2", "t1")}
    leaky = Qmc(k=q.k, h=q.h, states=q.states, transitions=cut,
                ap=q.ap, labeling=q.labeling)
    bad = verify_row_stochasticity(leaky)
    assert [v.state for v in bad] == ["s2"]
    assert bad[0].deviation > 0.4


def test_row_stochasticity_flags_nan():
    # a NaN deviation is a violation, not a pass
    bad = verify_row_stochasticity(nan_step_chain(_single_h_chain()))
    assert [v.state for v in bad] == ["s1"]
    assert np.isnan(bad[0].deviation)


def test_row_stochasticity_random_circuits():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = random_circuit(rng)
        s, _ = translate(c)
        q = build_qmc(s)
        assert verify_row_stochasticity(q) == []


def test_chain_successors():
    q = _single_h_chain()
    assert [dst for dst, _ in q.successors("s1")] == ["s2"]
    assert [dst for dst, _ in q.successors("s2")] == ["t0", "t1"]
    assert [dst for dst, _ in q.successors("t0")] == ["t0"]
