"""Dual semantics: DAG walks, Born probabilities, chain runs, equivalence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (DOUBLE, PARAM, SINGLE, basis_state, nan_step_chain,
                     random_circuit)
from qmcforge.circuit import UNITARY, topo_order, wire_positions
from qmcforge.errors import (BadInitialState, BitLengthMismatch,
                             DimensionMismatch, ValidationFailed)
from qmcforge.evaluate import (_walk, _worse, check_equivalence,
                               global_phase_distance, measured_wires,
                               outcome_probability, random_kets, run_qmc,
                               simulate_circuit)
from qmcforge.gates import gate_matrix
from qmcforge.linalg import tensor
from qmcforge.normalize import to_normal_form, translate
from qmcforge.parser import parse_circuit
from qmcforge.qmc import build_qmc

BELL = "qubits 2\ngate H 1\ngate CNOT 1 2\nmeasure 1\nmeasure 2\n"


def test_simulate_single_hadamard():
    c = parse_circuit("qubits 1\ngate H 1\nmeasure 1\n")
    out = simulate_circuit(c, basis_state(1, 0))
    assert np.allclose(out, np.array([1, 1]) / np.sqrt(2))


def test_simulate_bell_state():
    c = parse_circuit(BELL)
    out = simulate_circuit(c, basis_state(2, 0))
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(out, expected, atol=1e-12)


def test_simulate_gate_on_nonadjacent_wires():
    # CNOT with control on wire 3, target on wire 1: |001> -> |101>
    c = parse_circuit("qubits 3\ngate CNOT 3 1\nmeasure 1\n")
    out = simulate_circuit(c, basis_state(3, 0b001))
    assert np.allclose(out, basis_state(3, 0b101), atol=1e-12)


def test_simulate_agrees_with_padded_matrices():
    # the tensor-contraction walk must equal multiplying the padded gates
    rng = np.random.default_rng(12)
    for _ in range(20):
        c = random_circuit(rng)
        nf = to_normal_form(c)
        from qmcforge.circuit import UNITARY, topo_order
        product = np.eye(2 ** c.k, dtype=np.complex128)
        for nid in topo_order(nf):
            if nf.nodes[nid].kind == UNITARY:
                product = nf.nodes[nid].matrix @ product
        for idx in range(2 ** c.k):
            tau = basis_state(c.k, idx)
            assert np.allclose(simulate_circuit(c, tau), product @ tau,
                               atol=1e-12)


def test_simulate_rejects_wrong_length():
    c = parse_circuit(BELL)
    with pytest.raises(DimensionMismatch):
        simulate_circuit(c, np.ones(3) / np.sqrt(3))


def test_outcome_probability_bell():
    c = parse_circuit(BELL)
    tau = basis_state(2, 0)
    assert outcome_probability(c, tau, "00") == pytest.approx(0.5)
    assert outcome_probability(c, tau, "11") == pytest.approx(0.5)
    assert outcome_probability(c, tau, "01") == pytest.approx(0.0, abs=1e-12)
    assert outcome_probability(c, tau, (1, 0)) == pytest.approx(0.0, abs=1e-12)


def test_outcome_probability_partial_measurement():
    # only wire 2 of the Bell pair is read: both outcomes equally likely
    text = "qubits 2\ngate H 1\ngate CNOT 1 2\nmeasure 2\n"
    c = parse_circuit(text)
    tau = basis_state(2, 0)
    assert outcome_probability(c, tau, "0") == pytest.approx(0.5)
    assert outcome_probability(c, tau, "1") == pytest.approx(0.5)


def test_outcome_probability_checks_bit_count():
    c = parse_circuit(BELL)
    with pytest.raises(BitLengthMismatch):
        outcome_probability(c, basis_state(2, 0), "0")
    with pytest.raises(BitLengthMismatch):
        outcome_probability(c, basis_state(2, 0), "021")


def test_run_qmc_bell_probabilities():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    tau = basis_state(2, 0)
    report = run_qmc(q, np.outer(tau, tau.conj()))
    assert [o.bits for o in report.outcomes] == ["00", "01", "10", "11"]
    assert report.probabilities == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-12)
    assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-9)
    # unnormalized post-measurement density keeps its branch weight as trace
    assert np.trace(report.outcomes[0].density).real == pytest.approx(0.5)


def test_run_qmc_accumulated_product():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    tau = basis_state(2, 0)
    report = run_qmc(q, np.outer(tau, tau.conj()))
    product = np.eye(4, dtype=np.complex128)
    for u in s.unitaries:
        product = u @ product
    assert np.allclose(report.accumulated, product, atol=1e-12)
    assert len(report.densities) == s.n + 1


def test_run_qmc_rejects_bad_initial_state():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    with pytest.raises(DimensionMismatch):
        run_qmc(q, np.eye(8, dtype=np.complex128) / 8)
    with pytest.raises(BadInitialState):
        run_qmc(q, np.eye(4, dtype=np.complex128))  # trace 4
    skew = np.zeros((4, 4), dtype=np.complex128)
    skew[0, 1] = 1.0
    skew[0, 0] = 1.0
    with pytest.raises(BadInitialState):
        run_qmc(q, skew)  # not Hermitian


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 2)])
def test_run_qmc_rejects_nan_initial_state(entry):
    # nan > tol is False, so a "> tol" check once let NaN through
    q = build_qmc(translate(parse_circuit(BELL))[0])
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[0, 0] = 1.0
    rho[entry] = np.nan
    with pytest.raises(BadInitialState):
        run_qmc(q, rho)


def test_global_phase_distance():
    v = np.array([1, 1j]) / np.sqrt(2)
    assert global_phase_distance(v, v) == pytest.approx(0.0, abs=1e-15)
    assert global_phase_distance(v, np.exp(0.7j) * v) == pytest.approx(0.0, abs=1e-15)
    w = np.array([1, -1j]) / np.sqrt(2)
    assert global_phase_distance(v, w) > 0.5
    with pytest.raises(DimensionMismatch):
        global_phase_distance(v, np.ones(3))


def test_random_kets_are_normalized():
    rng = np.random.default_rng(8)
    for v in random_kets(3, 5, rng):
        assert v.shape == (8,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_check_equivalence_passes_for_honest_translation():
    rng = np.random.default_rng(10)
    for _ in range(15):
        c = random_circuit(rng)
        s, _ = translate(c)
        q = build_qmc(s)
        inputs = random_kets(s.k, 3, rng)
        rep = check_equivalence(c, s, q, inputs)
        assert rep.passed, rep.failures
        assert rep.state <= 1e-9 and rep.prob <= 1e-9


def test_check_equivalence_flags_wrong_chain():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    # sabotage the first internal step with an extra Hadamard on wire 1
    from qmcforge.qmc import Superoperator
    wrong = tensor(gate_matrix("H"), np.eye(2)) @ q.steps[0].matrix
    q = dataclasses.replace(q, steps=(Superoperator(wrong), *q.steps[1:]))
    rep = check_equivalence(c, s, q)
    assert not rep.passed
    assert any("state clause" in f or "probability clause" in f
               for f in rep.failures)


def test_check_equivalence_flags_wrong_wire_map():
    c = parse_circuit("qubits 2\ngate H 2\nmeasure 2\n")
    s, _ = translate(c)
    q = build_qmc(s)
    assert s.wire_map != (1, 2)  # the measured wire really was rerouted
    # forget the rerouting: the reordered DAG state stops matching the chain
    from qmcforge.normalize import SnfCircuit
    lied = SnfCircuit(k=s.k, unitaries=s.unitaries, h=s.h, wire_map=(1, 2))
    rep = check_equivalence(c, lied, q)
    assert not rep.passed
    assert any("state clause" in f for f in rep.failures)


def test_check_equivalence_fails_closed_on_nan():
    # max(0.0, nan) is 0.0 and nan > tol is False: both once let this PASS
    c = parse_circuit("qubits 1\ngate H 1\nmeasure 1\n")
    s, _ = translate(c)
    rep = check_equivalence(c, s, nan_step_chain(build_qmc(s)))
    assert not rep.passed
    assert all(math.isnan(v) for v in (rep.state, rep.chain, rep.prob, rep.support))
    assert "state clause: input 0 deviates by nan" in rep.failures


def test_worst_deviation_keeps_nan():
    assert _worse(0.0, 1e-3) == 1e-3
    assert _worse(1e-3, 0.0) == 1e-3
    assert math.isnan(_worse(0.0, float("nan")))
    assert math.isnan(_worse(_worse(0.0, float("nan")), 1.0))


def test_check_equivalence_rejects_bad_circuits_and_kets():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    with pytest.raises(DimensionMismatch):
        check_equivalence(c, s, q, [np.ones(3) / np.sqrt(3)])
    broken = parse_circuit(BELL)
    broken.edges = broken.edges[:-1]
    with pytest.raises(ValidationFailed):
        check_equivalence(broken, s, q)
    with pytest.raises(ValidationFailed):
        simulate_circuit(broken, basis_state(2, 0))


# --- the batched oracle against a per-ket definition ----------------------

@st.composite
def _circuit_text(draw):
    """Up to 4 wires and 6 gates; any subset of wires measured, in any order."""
    k = draw(st.integers(1, 4))
    lines = [f"qubits {k}"]
    for _ in range(draw(st.integers(1, 6))):
        wires = draw(st.permutations(range(1, k + 1)))
        kinds = ["single", "param"] + (["double"] if k >= 2 else []) + \
            (["ccnot"] if k >= 3 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "single":
            lines.append(f"gate {draw(st.sampled_from(SINGLE))} {wires[0]}")
        elif kind == "param":
            angle = draw(st.floats(-math.pi, math.pi))
            lines.append(f"gate {draw(st.sampled_from(PARAM))}({angle:.6f}) {wires[0]}")
        elif kind == "double":
            lines.append(f"gate {draw(st.sampled_from(DOUBLE))} {wires[0]} {wires[1]}")
        else:
            lines.append(f"gate CCNOT {wires[0]} {wires[1]} {wires[2]}")
    measured = draw(st.lists(st.integers(1, k), unique=True, max_size=k))
    lines.extend(f"measure {w}" for w in measured)
    return "\n".join(lines) + "\n"


def _full_matrix(u: np.ndarray, wires: tuple[int, ...], k: int) -> np.ndarray:
    """The 2^k matrix of gate ``u`` on 1-based ``wires`` (wire 1 the MSB),
    entry by entry."""
    dim = 2 ** k
    out = np.zeros((dim, dim), dtype=np.complex128)
    rest = [w for w in range(1, k + 1) if w not in wires]

    def bit(i, w):
        return (i >> (k - w)) & 1

    def sub(i):
        return int("".join(str(bit(i, w)) for w in wires), 2)

    for row in range(dim):
        for col in range(dim):
            if all(bit(row, w) == bit(col, w) for w in rest):
                out[row, col] = u[sub(row), sub(col)]
    return out


@settings(max_examples=60, deadline=None)
@given(text=_circuit_text(), count=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_oracle_matches_per_ket_definition(text, count, seed):
    c = parse_circuit(text)
    k, wires = c.k, measured_wires(c)
    h = len(wires)
    kets = random_kets(k, count, np.random.default_rng(seed))
    positions = wire_positions(c)
    gates = [_full_matrix(c.nodes[n].matrix, positions[n], k)
             for n in topo_order(c) if c.nodes[n].kind == UNITARY]

    finals, born = _walk(c, np.array(kets).T)
    assert finals.shape == (2 ** k, count) and born.shape == (2 ** h, count)
    for j, ket in enumerate(kets):
        expected = ket
        for g in gates:
            expected = g @ expected
        assert np.allclose(finals[:, j], expected, atol=1e-12)
        assert np.allclose(simulate_circuit(c, ket), expected, atol=1e-12)
        for outcome in range(2 ** h):
            bits = format(outcome, f"0{h}b") if h else ""
            p = sum(abs(expected[i]) ** 2 for i in range(2 ** k)
                    if "".join(str((i >> (k - w)) & 1) for w in wires) == bits)
            assert born[outcome, j] == pytest.approx(p, abs=1e-12)
            assert outcome_probability(c, ket, bits) == pytest.approx(p, abs=1e-12)
