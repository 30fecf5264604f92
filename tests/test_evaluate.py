"""Dual semantics: DAG walks, Born probabilities, chain runs, equivalence."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (DOUBLE, PARAM, SINGLE, apply_gate_tensordot, basis_state,
                     chain_run_per_step, matrix_chain, nan_step_chain, random_circuit,
                     random_circuit_text, run_qmc_per_step, swap_matrix)
from qmcforge.cli import gen_test_circuit
from qmcforge.config import DEFAULT_TOL
from qmcforge import evaluate
from qmcforge.emit import emit_qpmc, reparse_model
from qmcforge.errors import (BadInitialState, BitLengthMismatch,
                             DimensionMismatch, QmcForgeError)
from qmcforge.evaluate import (_chain_run, _product_rows, _walk, _worst,
                               check_equivalence, outcome_probability, random_kets,
                               run_qmc, simulate_circuit)
from qmcforge.gates import gate_arity, gate_matrix
from qmcforge.linalg import _permute_indices, tensor
from qmcforge.normalize import SnfCircuit, translate
from qmcforge.parser import emit_circuit_text, parse_circuit
from qmcforge.qmc import Qmc, Superoperator, build_qmc

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
        product = u.matrix @ product
    assert np.allclose(report.accumulated, product, atol=1e-12)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_run_qmc_gives_nan_probabilities_for_a_non_finite_step(value):
    # inf * 0 in a step product once raised RuntimeWarning under -W error
    q = build_qmc(translate(parse_circuit("qubits 1\ngate H 1\nmeasure 1\n"))[0])
    chain = nan_step_chain(q, value, at=(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_qmc(chain, np.diag([1.0, 0.0]))
    assert all(math.isnan(p) for p in report.probabilities)


def test_run_qmc_refuses_infinite_tolerance():
    # an infinite tol once accepted this non-Hermitian trace-5 density and
    # returned outcome probabilities of about 3.0 and 2.0
    q = build_qmc(translate(parse_circuit("qubits 1\nmeasure 1\n"))[0])
    with pytest.raises(QmcForgeError, match="^tol wants a finite number >= 0, got inf$"):
        run_qmc(q, np.array([[3, 1], [0, 2]]), tol=math.inf)


def test_run_qmc_refuses_nan_and_negative_tolerance():
    # a NaN tol once raised BadInitialState, blaming a valid density
    q = build_qmc(translate(parse_circuit("qubits 1\nmeasure 1\n"))[0])
    for tol in (math.nan, -1e-9):
        with pytest.raises(QmcForgeError, match="^tol wants a finite number >= 0"):
            run_qmc(q, np.diag([1.0, 0.0]), tol=tol)


@st.composite
def _run_case(draw):
    """A compiled ``random_circuit_text`` chain on <= 4 wires, some of them
    measured, any strategy, swaps fused or as gates; perhaps its branches
    followed by one permutation with phases (index forms off the diagonal,
    values not 1); perhaps one step replaced by a dense copy with a NaN or
    an inf written in; and an initial density, one random ket's or a
    mixture of two."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = parse_circuit(random_circuit_text(rng, 4, 6))
    s, _ = translate(c, draw(st.sampled_from(["composed", "direct", "naive-adjacent"])),
                     draw(st.booleans()))
    q = build_qmc(s)
    dim = 2 ** q.k
    if draw(st.booleans()):
        perm, phases = rng.permutation(dim), np.exp(2j * np.pi * rng.random(dim))
        q = Qmc(q.k, q.h, q.steps, tuple(
            Superoperator.from_index(dim, perm[cols], cols, phases[cols])
            for _, cols, _ in (so.monomial for so in q.branches)))
    if q.steps and draw(st.integers(0, 2)) == 0:
        steps = list(q.steps)
        at = draw(st.integers(0, len(steps) - 1))
        so = Superoperator(steps[at].matrix.copy())
        so.matrix[tuple(rng.integers(0, dim, 2))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        steps[at] = so
        q = Qmc(q.k, q.h, tuple(steps), q.branches)
    kets = random_kets(q.k, 2, rng)
    weight = draw(st.sampled_from([1.0, 0.5, 0.25]))
    rho0 = weight * np.outer(kets[0], kets[0].conj()) + \
        (1 - weight) * np.outer(kets[1], kets[1].conj())
    return q, rho0


def _agree(got, want):
    """NaN exactly where ``want`` has NaN, everything else within 1e-12."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.allclose(got[~nan], want[~nan], rtol=0.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(case=_run_case())
def test_run_qmc_agrees_with_the_step_by_step_density_run(case):
    q, rho0 = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_qmc(q, rho0)
        densities = [o.density for o in report.outcomes]
    probabilities, accumulated, posts = run_qmc_per_step(q, rho0)
    _agree(report.probabilities, probabilities)
    _agree(report.accumulated, accumulated)
    for got, want in zip(densities, posts, strict=True):
        _agree(got, want)


def test_run_qmc_forms_no_per_step_density_and_densifies_no_map():
    # 85 index-built steps on k=7: a density per step would take 22 MB
    q = build_qmc(translate(gen_test_circuit(7), "naive-adjacent", emit_swaps_as_gates=True)[0])
    tau = basis_state(7, 5)
    rho0 = np.outer(tau, tau.conj())
    tracemalloc.start()
    try:
        report = run_qmc(q, rho0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(so._dense is None for so in q.steps + q.branches)
    assert peak < 4 * 2 ** 20
    assert report.probabilities == (1.0,)


def test_global_phase_distance():
    # one distance per column: the same ket, the ket times a phase, another ket
    v = np.array([1, 1j]) / np.sqrt(2)
    w = np.array([1, -1j]) / np.sqrt(2)
    dist = evaluate._phase_distances(np.array([v, v, v]).T, np.array([v, np.exp(0.7j) * v, w]).T)
    assert dist[:2] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert dist[2] > 0.5


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_global_phase_distance_of_a_non_finite_ket_is_nan(value):
    # inf * 0 in the aligned difference once raised RuntimeWarning under -W error
    a = np.array([[0.0], [1.0]], dtype=np.complex128)
    b = np.array([[value], [0.0]], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(evaluate._phase_distances(a, b)[0])


def test_random_kets_are_normalized():
    rng = np.random.default_rng(8)
    for v in random_kets(3, 5, rng):
        assert v.shape == (8,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def _random_kets_one_at_a_time(k, count, rng):
    # the ket-by-ket draw random_kets once made
    out = []
    for _ in range(count):
        v = rng.standard_normal(2 ** k) + 1j * rng.standard_normal(2 ** k)
        out.append(v / np.linalg.norm(v))
    return out


@pytest.mark.parametrize("k, count, seed", [
    (1, 0, 0), (1, 1, 3), (2, 7, 1), (3, 5, 8), (6, 4, 2), (10, 3, 11), (2, 200, 5),
])
def test_random_kets_equal_a_ket_by_ket_draw_to_the_bit(k, count, seed):
    kets = random_kets(k, count, np.random.default_rng(seed))
    reference = _random_kets_one_at_a_time(k, count, np.random.default_rng(seed))
    assert isinstance(kets, list) and len(kets) == count
    for v, w in zip(kets, reference):
        assert v.shape == w.shape == (2 ** k,)
        assert v.tobytes() == w.tobytes()


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


def test_check_equivalence_refuses_a_consistent_wire_map_lie():
    # a compiler that swaps two unmeasured wires at the end and records the
    # swap in its wire map: the oracle derives the order itself
    c = parse_circuit("qubits 3\ngate X 2\nmeasure 1\n")
    s, _ = translate(c)
    lied = SnfCircuit(k=3, unitaries=(*s.unitaries, Superoperator(swap_matrix(3, 2, 3))), h=s.h,
                      wire_map=(1, 3, 2))
    q = build_qmc(lied)
    for claim in (lied, None):
        rep = check_equivalence(c, claim, q)
        assert not rep.passed
        assert "state clause: input 0 deviates by 1.414e+00" in rep.failures
    assert check_equivalence(c, lied, q).failures[0] == \
        "state clause: wire map (1, 3, 2) is not the measured-first order (1, 2, 3)"


def test_check_equivalence_fails_closed_on_nan():
    # max(0.0, nan) is 0.0 and nan > tol is False: both once let this PASS
    c = parse_circuit("qubits 1\ngate H 1\nmeasure 1\n")
    s, _ = translate(c)
    rep = check_equivalence(c, s, nan_step_chain(build_qmc(s)))
    assert not rep.passed
    assert all(math.isnan(v) for v in (rep.state, rep.chain, rep.prob, rep.support))
    assert "state clause: input 0 deviates by nan" in rep.failures


def test_worst_deviation_keeps_nan():
    nan = float("nan")
    assert _worst(np.array([0.0, 1e-3])) == (1e-3, 1)
    assert _worst(np.array([1e-3, 0.0, 1e-3])) == (1e-3, 0)
    value, at = _worst(np.array([0.0, nan, 1.0, nan]))
    assert math.isnan(value) and at == 1


def test_check_equivalence_refuses_infinite_tolerances():
    # with both tolerances infinite, a chain whose H step is the identity
    # once passed
    c = parse_circuit("qubits 1\ngate H 1\nmeasure 1\n")
    s, _ = translate(c)
    q = build_qmc(s)
    wrong = dataclasses.replace(q, steps=(Superoperator(np.eye(2)),))
    assert not check_equivalence(c, s, wrong).passed
    with pytest.raises(QmcForgeError, match="^tol wants a finite number >= 0, got inf$"):
        check_equivalence(c, s, wrong, tol=math.inf, support_tol=math.inf)
    with pytest.raises(QmcForgeError, match="^support_tol wants a finite number >= 0"):
        check_equivalence(c, s, wrong, support_tol=math.inf)


@pytest.mark.parametrize("name", ["tol", "support_tol"])
@pytest.mark.parametrize("value", [math.nan, -1e-9, "1e-9"], ids=["nan", "negative", "text"])
def test_check_equivalence_refuses_bad_tolerances(name, value):
    c = parse_circuit(BELL)
    s, _ = translate(c)
    with pytest.raises(QmcForgeError, match=f"^{name} wants a finite number >= 0"):
        check_equivalence(c, s, build_qmc(s), **{name: value})


def test_check_equivalence_rejects_bad_circuits_and_kets():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    with pytest.raises(DimensionMismatch):
        check_equivalence(c, s, q, [np.ones(3) / np.sqrt(3)])
    # a circuit this chain was not compiled from: other width, other h
    wider = parse_circuit("qubits 3\ngate H 1\nmeasure 1\nmeasure 2\n")
    with pytest.raises(DimensionMismatch, match="^chain acts on 2 wires, circuit has 3$"):
        check_equivalence(wider, s, q)
    fewer = parse_circuit("qubits 2\ngate H 1\nmeasure 1\n")
    with pytest.raises(BitLengthMismatch, match="^chain has 4 outcomes, circuit has 2$"):
        check_equivalence(fewer, s, q)


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
    k, wires = c.k, c.measured
    h = len(wires)
    kets = random_kets(k, count, np.random.default_rng(seed))
    gates = [_full_matrix(node.matrix, positions, k) for node, positions in c.gates]

    finals, _ = _walk(k, c.gates, (), np.array(kets).T)
    lead, born = _walk(k, c.gates, wires, np.array(kets).T)
    assert finals.shape == lead.shape == (2 ** k, count) and born.shape == (2 ** h, count)
    # lead holds basis state i at the index whose bits are i's measured
    # bits followed by its other bits, each in ascending wire order
    order = list(wires) + [w for w in range(1, k + 1) if w not in wires]
    moved = [int("".join(str((i >> (k - w)) & 1) for w in order), 2) for i in range(2 ** k)]
    assert np.array_equal(lead[moved], finals)
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


@settings(max_examples=60, deadline=None)
@given(text=_circuit_text(), strategy=st.sampled_from(["composed", "direct", "naive-adjacent"]),
       swaps_as_gates=st.booleans())
def test_an_honest_compile_claims_the_oracles_own_wire_order(text, strategy, swaps_as_gates):
    # with or without the compiler's claim, the same report, bit for bit
    c = parse_circuit(text)
    s, _ = translate(c, strategy=strategy, emit_swaps_as_gates=swaps_as_gates)
    q = build_qmc(s)
    inputs = list(np.eye(2 ** c.k)) + random_kets(c.k, 2, np.random.default_rng(0))
    assert check_equivalence(c, None, q, inputs) == check_equivalence(c, s, q, inputs)


@st.composite
def _gate_circuit_text(draw):
    """Up to 5 wires and 8 gates: H, RX and the phase gates, each plain or
    as a ``cgate`` with up to two controls, and two-wire gates, on wires in
    any order; any subset of wires measured."""
    k = draw(st.integers(1, 5))
    lines = [f"qubits {k}"]
    for _ in range(draw(st.integers(1, 8))):
        wires = draw(st.permutations(range(1, k + 1)))
        if k >= 2 and draw(st.integers(0, 3)) == 0:
            lines.append(f"gate {draw(st.sampled_from(DOUBLE))} {wires[0]} {wires[1]}")
            continue
        name = draw(st.sampled_from(["H", "S", "T", "Z", "RX", "RZ", "PHASE"]))
        if name in ("RX", "RZ", "PHASE"):
            name += f"({draw(st.floats(-math.pi, math.pi)):.6f})"
        controls = wires[1:1 + draw(st.integers(0, min(2, k - 1)))]
        lines.append(f"cgate {name} {wires[0]} ctrl {' '.join(map(str, controls))}"
                     if controls else f"gate {name} {wires[0]}")
    measured = draw(st.lists(st.integers(1, k), unique=True, max_size=k))
    lines.extend(f"measure {w}" for w in measured)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=_gate_circuit_text(), count=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_walk_is_bit_identical_to_the_tensordot_walk(text, count, seed):
    c = parse_circuit(text)
    kets = np.array(random_kets(c.k, count, np.random.default_rng(seed))).T
    finals, born = _walk(c.k, c.gates, c.measured, kets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_apply_gate", apply_gate_tensordot)
        want_finals, want_born = _walk(c.k, c.gates, c.measured, kets)
    assert np.array_equal(finals, want_finals) and np.array_equal(born, want_born)


def test_a_non_finite_step_densifies_no_index_built_map():
    # the 5-wire cycle with swaps as gates compiles to index-built maps only;
    # a dense step holding a NaN in front of them loses every ket, and both
    # runs still read every later map by its kind, converting none
    c = gen_test_circuit(5)
    q = build_qmc(translate(c, strategy="naive-adjacent", emit_swaps_as_gates=True)[0])
    indexed = {id(so): so for so in q.steps + q.branches}.values()
    assert len(indexed) > 2 and all(so._dense is None for so in indexed)
    nan = Superoperator(np.eye(2 ** q.k, dtype=np.complex128))
    nan.matrix[0, 0] = np.nan
    chain = Qmc(q.k, q.h, (nan, *q.steps), q.branches)
    report = check_equivalence(c, None, chain)
    assert not report.passed and math.isnan(report.chain)
    rho0 = np.zeros((2 ** q.k,) * 2, dtype=np.complex128)
    rho0[0, 0] = 1
    assert all(math.isnan(p) for p in run_qmc(chain, rho0).probabilities)
    assert all(so._dense is None for so in indexed)


# --- the ket block against the per-input check ----------------------------

def _worse(worst: float, dev: float) -> float:
    """The larger deviation; a NaN, once seen, stays the worst."""
    return dev if dev > worst or math.isnan(dev) else worst


def _reference_check(c, s, q, inputs, tol=DEFAULT_TOL.pipeline,
                     support_tol=DEFAULT_TOL.algebraic):
    """The per-input check_equivalence: one run_qmc per input, the state
    clause from its accumulated product, the chain clause from densities
    propagated step by step, M rho M† with every map dense, and the branch
    clauses from its outcome records.

    Returns the failures, the worst deviation per clause and every
    deviation counted, keyed by clause and then by (input, outcome bits).
    """
    k, h = s.k, s.h
    dim = 2 ** k
    taus = [np.asarray(psi, dtype=np.complex128).reshape(-1) for psi in inputs]
    columns = np.array(taus, dtype=np.complex128).reshape(-1, dim).T
    finals, _ = _walk(k, c.gates, (), columns)
    _, born = _walk(k, c.gates, c.measured, columns)
    reordered = finals[np.argsort(_permute_indices(k, s.wire_map))]
    seen = {"state": {}, "chain": {}, "prob": {}, "support": {}}
    failures = []

    block = dim // (2 ** h)
    for idx, tau in enumerate(taus):
        report = run_qmc(q, np.outer(tau, tau.conj()), tol=tol)

        # the reference's own products of a non-finite chain make NaNs too;
        # the package calls around them run unguarded
        with np.errstate(invalid="ignore", over="ignore"):
            product_state = report.accumulated @ tau
        dev = float(evaluate._phase_distances(reordered[:, idx, None], product_state[:, None])[0])
        seen["state"][idx, None] = dev
        if not dev <= tol:
            failures.append(f"state clause: input {idx} deviates by {dev:.3e}")

        vec, rho = tau.copy(), np.outer(tau, tau.conj())
        worst_step = 0.0
        for step, so in enumerate(q.steps, start=1):
            with np.errstate(invalid="ignore", over="ignore"):
                rho = so.matrix @ rho @ so.matrix.conj().T
                vec = so.matrix @ vec
                cdev = float(np.max(np.abs(rho - np.outer(vec, vec.conj()))))
            worst_step = _worse(worst_step, cdev)
            if not cdev <= tol:
                failures.append(
                    f"chain clause: input {idx} step {step} deviates by {cdev:.3e}")
                break
        seen["chain"][idx, None] = worst_step

        for rec in report.outcomes:
            pdev = abs(float(born[rec.index, idx]) - rec.probability)
            seen["prob"][idx, rec.bits] = pdev
            if not pdev <= tol:
                failures.append(
                    f"probability clause: input {idx} outcome {rec.bits or '-'} "
                    f"deviates by {pdev:.3e}")
            leak = np.abs(rec.density)
            lo, hi = rec.index * block, (rec.index + 1) * block
            leak[lo:hi, lo:hi] = 0.0
            sdev = float(np.max(leak))
            seen["support"][idx, rec.bits] = sdev
            if not sdev <= support_tol:
                failures.append(
                    f"support clause: input {idx} outcome {rec.bits or '-'} "
                    f"leaks {sdev:.3e} outside its block")

    worst = {}
    for clause, devs in seen.items():
        worst[clause] = 0.0
        for dev in devs.values():
            worst[clause] = _worse(worst[clause], dev)
    return tuple(failures), worst, seen


@st.composite
def _perturbed_case(draw):
    """A random circuit and its chain, with some steps replaced by
    contractive non-unitary maps, some branches by non-projector
    contractions, perhaps a NaN or an infinity written into a step after
    construction, and a battery of random and basis kets."""
    c = parse_circuit(draw(_circuit_text()))
    s, _ = translate(c)
    q = build_qmc(s)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** s.k

    def contraction():
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return a * (rng.uniform(0.2, 0.99) / np.linalg.norm(a, 2))

    steps = [contraction() if draw(st.booleans()) else so.matrix.copy()
             for so in q.steps]
    branches = [contraction() if draw(st.integers(0, 3)) == 0 else so.matrix
                for so in q.branches]
    chain = matrix_chain(s.k, s.h, steps, branches)
    if steps and draw(st.booleans()):
        t = draw(st.integers(0, len(steps) - 1))
        row, col = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        chain.steps[t].matrix[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    basis = draw(st.lists(st.integers(0, dim - 1), max_size=4))
    kets = random_kets(s.k, draw(st.integers(0, 3)), rng) + \
        [basis_state(s.k, i) for i in basis]
    return c, s, chain, kets or [basis_state(s.k, 0)]


@settings(max_examples=80, deadline=None)
@given(case=_perturbed_case())
def test_ket_block_matches_per_input_check(case):
    c, s, q, kets = case
    failures, worst, seen = _reference_check(c, s, q, kets)
    rep = check_equivalence(c, s, q, kets)
    assert rep.failures == failures
    assert rep.passed == (not failures)
    for clause, ref in worst.items():
        got = getattr(rep, clause)
        if math.isnan(ref):
            assert math.isnan(got), clause
        else:
            assert abs(got - ref) <= 1e-12, clause
        # the recorded location holds the worst deviation
        at = seen[clause][rep.worst_at[clause]]
        assert math.isnan(at) if math.isnan(ref) else abs(at - ref) <= 1e-12


def test_check_equivalence_rejects_non_unit_kets():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    for bad in (2 * basis_state(2, 1), np.full(4, np.nan)):
        with pytest.raises(BadInitialState, match="input 1"):
            check_equivalence(c, s, q, [basis_state(2, 0), bad])


def test_worst_location_per_clause():
    c = parse_circuit(BELL)
    s, _ = translate(c)
    q = build_qmc(s)
    rep = check_equivalence(c, s, q)
    assert set(rep.worst_at) == {"state", "chain", "prob", "support"}
    assert rep.worst_at["state"][1] is None and rep.worst_at["chain"][1] is None
    # no input is no check: an empty battery is refused, not passed
    for empty in ([], np.zeros((0, 4))):
        with pytest.raises(BadInitialState, match="^no input to check: the battery is empty$"):
            check_equivalence(c, s, q, empty)
    # every input deviates by NaN: the first NaN is the one named
    one = parse_circuit("qubits 1\ngate H 1\nmeasure 1\n")
    s1, _ = translate(one)
    nan = check_equivalence(one, s1, nan_step_chain(build_qmc(s1)))
    assert nan.worst_at == {"state": (0, None), "chain": (0, None),
                            "prob": (0, "0"), "support": (0, "0")}


# --- each input read on its own -----------------------------------------------

def _overflow_case():
    """A 5-wire chain: two index-built steps scaling |0> by 1e300 (their
    product overflows), then two permutations with phases; index-built
    projectors measuring wire 1. A = |0> overflows; B, a random ket with
    B[0] = 0, does not."""
    k, dim = 5, 32
    rng = np.random.default_rng(1)
    index, big = np.arange(dim), np.ones(dim)
    big[0] = 1e300
    steps = [Superoperator.from_index(dim, index, index, big)] * 2
    for _ in range(2):
        perm, phases = rng.permutation(dim), np.exp(2j * np.pi * rng.random(dim))
        steps.append(Superoperator.from_index(dim, perm, index, phases))
    c = parse_circuit("qubits 5\nmeasure 1\n")
    q = Qmc(k, 1, tuple(steps), build_qmc(translate(c)[0]).branches)
    a, b = basis_state(k, 0), random_kets(k, 1, rng)[0]
    b[0] = 0
    return c, q, a, b / np.linalg.norm(b)


def test_an_overflowing_input_leaves_its_neighbour_as_it_runs_alone():
    # the whole block once went through dense matmuls as soon as A
    # overflowed, so B's ket depended on the ket checked beside it (here
    # in the sign of a zero)
    c, q, a, b = _overflow_case()
    with np.errstate(invalid="ignore", over="ignore"):
        both, first = _chain_run(q, np.array([a, b]).T)
        alone, first_alone = _chain_run(q, b[:, None])
    assert first.tolist() == [1, 4] and first_alone.tolist() == [4]
    assert both[:, 1].tobytes() == alone[:, 0].tobytes()
    # A's ket is NaN, whole, though the gathers kept its inf on one row
    assert np.isnan(both[:, 0]).all()
    rep = check_equivalence(c, None, q, [a, b])
    lines = tuple(f.replace("input 0 ", "input 1 ") for f in check_equivalence(c, None, q, [b]).failures)
    assert rep.failures == (
        "state clause: input 0 deviates by nan",
        "chain clause: input 0 step 2 deviates by nan",
        "probability clause: input 0 outcome 0 deviates by nan",
        "support clause: input 0 outcome 0 leaks nan outside its block",
        "probability clause: input 0 outcome 1 deviates by nan",
        "support clause: input 0 outcome 1 leaks nan outside its block") + lines
    # the zero map reads no row of A's ket, and still deviates by NaN
    empty = np.arange(0)
    zero = Superoperator.from_index(32, empty, empty, empty)
    q = Qmc(q.k, q.h, q.steps, (q.branches[0], zero))
    assert check_equivalence(c, None, q, [a]).failures[-2:] == (
        "probability clause: input 0 outcome 1 deviates by nan",
        "support clause: input 0 outcome 1 leaks nan outside its block")


def test_an_overflowing_input_forms_no_index_built_map_dense(monkeypatch):
    c, q, a, b = _overflow_case()
    formed, matrix = [], Superoperator.matrix
    monkeypatch.setattr(Superoperator, "matrix", property(
        lambda so: (so._dense is None and formed.append(so)) or matrix.fget(so)))
    assert not check_equivalence(c, None, q, [a, b]).passed
    report = run_qmc(q, np.outer(a, a.conj()))
    assert all(math.isnan(p) for p in report.probabilities)
    assert formed == []


@st.composite
def _neighbour_case(draw):
    """A circuit on k <= 3 wires measuring its first h, and its compiled
    chain with steps mixed in: permutations (folded), permutations times
    phases, partial forms, and maps built from arrays (a step's dense copy
    or a random contraction); perhaps one value of 1e300 on basis row r,
    index-built or in an array, at the front twice, so that exactly the
    inputs with amplitude on |r> overflow; branches index-built or built
    from arrays. The inputs: at least two, basis kets and random kets,
    some of them with no amplitude on |r>."""
    k = draw(st.integers(1, 3))
    h = draw(st.integers(0, k))
    dim = 2 ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lines = [f"qubits {k}"]
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from([g for g in ("H", "X", "T", "CNOT", "SWAP", "CCNOT")
                                     if gate_arity(g) <= k]))
        wires = draw(st.permutations(range(1, k + 1)))[:gate_arity(name)]
        lines.append(f"gate {name} " + " ".join(map(str, wires)))
    c = parse_circuit("\n".join(lines + [f"measure {w}" for w in range(1, h + 1)]) + "\n")
    q = build_qmc(translate(c)[0])
    index = np.arange(dim)
    steps = list(q.steps)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["perm", "phases", "partial", "copy", "contraction"]))
        perm = rng.permutation(dim)
        if kind == "perm":
            so = Superoperator.from_index(dim, perm, index, np.ones(dim))
        elif kind == "phases":
            so = Superoperator.from_index(dim, perm, index, np.exp(2j * np.pi * rng.random(dim)))
        elif kind == "partial":
            keep = rng.random(dim) < 0.5
            so = Superoperator.from_index(dim, perm[keep], index[keep], np.ones(dim)[keep])
        elif kind == "copy" and steps:
            so = Superoperator(steps[draw(st.integers(0, len(steps) - 1))].matrix.copy())
        else:
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            so = Superoperator(a * (rng.uniform(0.2, 0.99) / np.linalg.norm(a, 2)))
        steps.insert(draw(st.integers(0, len(steps))), so)
    row = draw(st.integers(0, dim - 1))
    overflow = draw(st.sampled_from([None, "index", "array"]))
    if overflow:
        big = np.ones(dim)
        big[row] = 1e300
        so = Superoperator.from_index(dim, index, index, big)
        so = Superoperator(so.matrix.copy()) if overflow == "array" else so
        steps[:0] = [so, so]
    branches = tuple(Superoperator(so.matrix.copy()) if draw(st.booleans()) else so
                     for so in q.branches)
    kets = [basis_state(k, draw(st.integers(0, dim - 1))) for _ in range(draw(st.integers(1, 2)))]
    for ket in random_kets(k, draw(st.integers(1, 3)), rng):
        if draw(st.booleans()):
            ket[row] = 0
            ket /= np.linalg.norm(ket)
        kets.append(ket)
    return c, Qmc(k, h, tuple(steps), branches), draw(st.permutations(kets))


def _same_deviation(a: float, b: float) -> bool:
    """Both NaN, or both finite and within 1e-12."""
    return math.isnan(b) if math.isnan(a) else abs(a - b) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(case=_neighbour_case())
def test_each_input_reports_as_it_does_checked_alone(case):
    c, q, kets = case
    block = check_equivalence(c, None, q, kets)
    alone = [check_equivalence(c, None, q, [ket]) for ket in kets]
    for j, rep in enumerate(alone):
        own = tuple(f.replace(f"input {j} ", "input 0 ", 1) for f in block.failures
                    if f" input {j} " in f)
        assert own == rep.failures
    assert block.passed == all(rep.passed for rep in alone)
    for clause in ("state", "chain", "prob", "support"):
        # the block's worst is the worst of the inputs alone, a NaN first,
        # and the input it names deviates by that much alone
        devs = [getattr(rep, clause) for rep in alone]
        worst = math.nan if any(map(math.isnan, devs)) else max(devs)
        assert _same_deviation(getattr(block, clause), worst), clause
        assert _same_deviation(getattr(alone[block.worst_at[clause][0]], clause), worst), clause
    # a ket is the ket it is alone: to the bit through gathers and folded
    # permutations; a matmul of one column and of a block may round apart
    with np.errstate(invalid="ignore", over="ignore"):
        v, first = _chain_run(q, np.array(kets).T)
        for j, ket in enumerate(kets):
            w, first_alone = _chain_run(q, ket[:, None])
            assert first[j] == first_alone[0]
            if all(so.monomial is not None for so in q.steps):
                assert v[:, j].tobytes() == w[:, 0].tobytes()
            else:
                assert np.allclose(v[:, j], w[:, 0], rtol=0, atol=1e-12, equal_nan=True)


def test_check_equivalence_memory_is_bounded():
    # fully measured k=6 CNOT cycle, all 64 basis kets. Peak traced
    # allocation: 0.57 MB for the ket block, which forms no density, and
    # 11.1 MB for the per-input check above, which allocates every step's
    # and every branch's 64x64 density afresh for each input.
    c = parse_circuit(emit_circuit_text(gen_test_circuit(6)) +
                      "".join(f"measure {w}\n" for w in range(1, 7)))
    s, _ = translate(c)
    q = build_qmc(s)
    tracemalloc.start()
    try:
        rep = check_equivalence(c, s, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 2_000_000


# --- the gather readers against the dense matmul ---------------------------------

@st.composite
def _index_chain(draw):
    """A chain on k <= 4 wires of index-built steps (permutations times 0/1
    values or unit phases) and its index-built projectors, the same maps as
    dense arrays, a block of random and basis kets, and whether any value
    is a non-real phase."""
    k = draw(st.integers(0, 4))
    h = draw(st.integers(0, k))
    dim = 2 ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phases = draw(st.booleans())
    forms = []
    for _ in range(draw(st.integers(0, 5))):
        values = np.exp(2j * np.pi * rng.random(dim)) if phases else np.ones(dim)
        forms.append((rng.permutation(dim), np.arange(dim), values))
    block = dim // 2 ** h
    spans = np.arange(dim).reshape(-1, block)
    forms += [(span, span, np.ones(block)) for span in spans]
    maps = [Superoperator.from_index(dim, *form) for form in forms]
    dense = []
    for rows, cols, values in forms:
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[rows, cols] = values
        dense.append(m)
    q = Qmc(k, h, tuple(maps[:-2 ** h]), tuple(maps[-2 ** h:]))
    kets = np.array(random_kets(k, draw(st.integers(0, 3)), rng)
                    + [basis_state(k, draw(st.integers(0, dim - 1)))]).T
    return q, dense, kets, phases


@settings(max_examples=150, deadline=None)
@given(case=_index_chain())
def test_gather_readers_equal_the_matmul(case):
    q, dense, kets, phases = case

    def same(a, b):
        if phases:
            return np.max(np.abs(a - b)) <= DEFAULT_TOL.pipeline
        return np.array_equal(a, b)

    v, first = _chain_run(q, kets)
    reference = kets
    for m in dense[:q.n]:
        reference = m @ reference
    assert same(v, reference) and (first == q.n).all()
    for so, m in zip(q.branches, dense[q.n:]):
        rows, w = _product_rows(so, v, so.monomial)
        full = np.zeros_like(v)
        full[rows] = w
        assert np.array_equal(full, m @ v)


def _chain_run_scattered(q, taus):
    """The reference for _chain_run: every step read by its kind, every
    gathered step scattered into a zero block, whether or not its form
    covers every row, and each ket that was not finite after some step set
    to NaN at the end."""
    v, n = taus, len(q.steps)
    first = np.full(taus.shape[1], n)
    for t, so in enumerate(q.steps):
        rows, mv = _product_rows(so, v, so.monomial)
        if rows is None:
            v = mv
        else:
            v = np.zeros_like(v)
            v[rows] = mv
        first[(first == n) & ~np.isfinite(v).all(axis=0)] = t
    if (first < n).any():
        v[:, first < n] = np.nan
    return v, first


@st.composite
def _mixed_chain(draw):
    """A chain on k <= 3 wires whose steps have full index forms (a
    permutation times phases), partial ones (some rows missing), empty ones
    (the zero map), or none (a dense identity with a NaN written in), and a
    block of random kets."""
    k = draw(st.integers(0, 3))
    dim = 2 ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["full", "partial", "empty", "nan"]))
        count = {"full": dim, "partial": int(rng.integers(0, dim + 1)), "empty": 0}.get(kind)
        if count is None:
            so = Superoperator(np.eye(dim, dtype=np.complex128))
            so.matrix[tuple(rng.integers(0, dim, 2))] = np.nan
        else:
            so = Superoperator.from_index(dim, rng.choice(dim, count, replace=False),
                                          rng.choice(dim, count, replace=False),
                                          np.exp(2j * np.pi * rng.random(count)))
        steps.append(so)
    branch = Superoperator.from_index(dim, np.arange(dim), np.arange(dim), np.ones(dim))
    q = Qmc(k, 0, tuple(steps), (branch,))
    return q, np.array(random_kets(k, draw(st.integers(1, 3)), rng)).T


@settings(max_examples=200, deadline=None)
@given(case=_mixed_chain())
def test_chain_run_skips_the_scatter_of_full_forms_bit_for_bit(case):
    q, kets = case
    v, first = _chain_run(q, kets)
    want_v, want_first = _chain_run_scattered(q, kets)
    assert v.tobytes() == want_v.tobytes()
    assert first.tolist() == want_first.tolist()


# --- folded permutation runs against the step-by-step run ----------------------

@st.composite
def _folding_chain(draw):
    """A circuit on k <= 4 wires measuring its first h, and its compiled
    chain (any strategy, swaps fused or as gates) with steps mixed in:
    permutations, index-built or dense, alone or followed by their inverse
    (which keeps the chain honest); permutations times phases; partial-row
    forms; runs of dense H; and perhaps one step replaced by a dense map
    with a NaN or an inf written into its matrix. Random and basis kets."""
    k = draw(st.integers(1, 4))
    h = draw(st.integers(0, k))
    dim = 2 ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lines = [f"qubits {k}"]
    for _ in range(draw(st.integers(1, 5))):
        name = draw(st.sampled_from([g for g in ("H", "X", "T", "CNOT", "SWAP", "CCNOT")
                                     if gate_arity(g) <= k]))
        wires = draw(st.permutations(range(1, k + 1)))[:gate_arity(name)]
        lines.append(f"gate {name} " + " ".join(map(str, wires)))
    c = parse_circuit("\n".join(lines + [f"measure {w}" for w in range(1, h + 1)]) + "\n")
    s, _ = translate(c, draw(st.sampled_from(["composed", "direct", "naive-adjacent"])),
                     draw(st.booleans()))
    q = build_qmc(s)
    steps = list(q.steps)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["perm", "dense perm", "pair", "phases", "partial", "H"]))
        perm, ones = rng.permutation(dim), np.ones(dim)
        if kind == "perm":
            extra = [Superoperator.from_index(dim, perm, np.arange(dim), ones)]
        elif kind == "dense perm":
            m = np.zeros((dim, dim), dtype=np.complex128)
            m[perm, np.arange(dim)] = 1.0
            extra = [Superoperator(m)]
        elif kind == "pair":
            extra = [Superoperator.from_index(dim, perm, np.arange(dim), ones),
                     Superoperator.from_index(dim, np.arange(dim), perm, ones)]
        elif kind == "phases":
            extra = [Superoperator.from_index(dim, perm, np.arange(dim),
                                              np.exp(2j * np.pi * rng.random(dim)))]
        elif kind == "partial":
            keep = rng.random(dim) < 0.5
            extra = [Superoperator.from_index(dim, perm[keep], np.arange(dim)[keep], ones[keep])]
        else:
            wire = int(rng.integers(k))
            hadamard = np.kron(np.kron(np.eye(2 ** wire), gate_matrix("H")),
                               np.eye(2 ** (k - 1 - wire)))
            extra = [Superoperator(hadamard)] * draw(st.integers(1, 3))
        at = draw(st.integers(0, len(steps)))
        steps[at:at] = extra
    if steps and draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(steps) - 1))
        so = Superoperator(steps[at].matrix.copy())
        so.matrix[tuple(rng.integers(0, dim, 2))] = draw(st.sampled_from([np.nan, np.inf]))
        steps[at] = so
    kets = random_kets(k, draw(st.integers(0, 3)), rng) + \
        [basis_state(k, draw(st.integers(0, dim - 1)))]
    return c, Qmc(k, h, tuple(steps), q.branches), kets


@settings(max_examples=200, deadline=None)
@given(case=_folding_chain())
def test_folded_permutation_runs_report_as_the_step_by_step_run(case):
    c, q, kets = case
    block = np.array(kets).T
    with np.errstate(invalid="ignore", over="ignore"):
        v, first = _chain_run(q, block)
        want_v, want_first = chain_run_per_step(q, block)
    # equal by ==, so a folded gather may differ from 1 * x in a zero's sign
    assert np.array_equal(v, want_v, equal_nan=True)
    assert first.tolist() == want_first.tolist()
    fast = check_equivalence(c, None, q, kets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_chain_run", chain_run_per_step)
        slow = check_equivalence(c, None, q, kets)
    assert fast.passed == slow.passed and fast.failures == slow.failures
    assert fast.worst_at == slow.worst_at and _same_report(fast, slow)


def test_chain_run_reads_each_distinct_map_once(monkeypatch):
    # long chains share few map objects; a dense map's form is a full scan
    c = parse_circuit(emit_circuit_text(gen_test_circuit(5)))
    q = build_qmc(translate(c, "naive-adjacent", emit_swaps_as_gates=True)[0])
    hadamard = Superoperator(np.kron(gate_matrix("H"), np.eye(16)))
    q = Qmc(q.k, q.h, q.steps + (hadamard,) * 3 + q.steps, q.branches)
    reads, monomial = [], Superoperator.monomial
    monkeypatch.setattr(Superoperator, "monomial",
                        property(lambda so: reads.append(id(so)) or monomial.fget(so)))
    _chain_run(q, np.eye(32, dtype=np.complex128))
    assert sorted(reads) == sorted({id(so) for so in q.steps})


_PERMUTING = ["X", "CNOT", "SWAP", "CCNOT", "Z", "S"]


@st.composite
def _permuting_pair(draw):
    """Two circuits on the same wires with the same measured wires, built
    from X, CNOT, SWAP, CCNOT and the 0/±1/±i phases Z and S, so every chain
    map is monomial; the second is either the first or unrelated."""
    k = draw(st.integers(1, 4))
    measured = draw(st.lists(st.integers(1, k), unique=True, max_size=k))

    def text():
        lines = [f"qubits {k}"]
        for _ in range(draw(st.integers(1, 6))):
            wires = draw(st.permutations(range(1, k + 1)))
            name = draw(st.sampled_from([g for g in _PERMUTING
                                         if gate_arity(g) <= k]))
            lines.append(f"gate {name} " + " ".join(map(str, wires[:gate_arity(name)])))
        return "\n".join(lines + [f"measure {w}" for w in measured]) + "\n"

    first = text()
    return first, first if draw(st.booleans()) else text()


@settings(max_examples=80, deadline=None)
@given(pair=_permuting_pair(), seed=st.integers(0, 2 ** 32 - 1))
def test_check_equivalence_reports_the_same_through_the_index_forms(pair, seed):
    source, other = pair
    c = parse_circuit(source)
    s, _ = translate(parse_circuit(other))
    model = emit_qpmc(build_qmc(s))
    kets = random_kets(c.k, 2, np.random.default_rng(seed)) + [basis_state(c.k, 0)]
    fast = check_equivalence(c, None, reparse_model(model), kets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Superoperator, "monomial", property(lambda so: None))
        slow = check_equivalence(c, None, reparse_model(model), kets)
    assert fast == slow
    if source == other:
        assert fast.passed


# --- the gathered branch read against one branch at a time ----------------------

def _per_branch_deviations(branches, kets, born):
    """The probability and support deviations read one branch at a time by
    ``_product_rows``, each by its kind: the reference for the gathered
    read."""
    dim, count = kets.shape
    block = dim // len(branches)
    prob = np.empty((len(branches), count))
    support = np.zeros((len(branches), count))
    everywhere = np.arange(dim)
    for b, so in enumerate(branches):
        rows, w = _product_rows(so, kets, so.monomial)
        rows, w = everywhere if rows is None else rows, np.abs(w)
        prob[b] = np.abs(born[b] - np.sum(w ** 2, axis=0))
        lo, hi = b * block, (b + 1) * block
        if block < dim:
            outside = w[(rows < lo) | (rows >= hi)].max(axis=0, initial=0.0)
            support[b] = outside * w.max(axis=0, initial=0.0)
    return prob, support


@st.composite
def _branch_set(draw):
    """A circuit on k <= 4 wires measuring its first h, its compiled steps,
    and 2^h branches: the projectors, some with phases, scaled values,
    rows moved out of their block, rows dropped (forms of other lengths),
    an all-zero branch (an empty form) or one non-monomial branch; perhaps
    a NaN written into a step; random and basis kets."""
    k = draw(st.integers(1, 4))
    h = draw(st.integers(0, k))
    dim, block = 2 ** k, 2 ** (k - h)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lines = [f"qubits {k}"]
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from([g for g in ("H", "X", "T", "CNOT", "SWAP", "CCNOT")
                                     if gate_arity(g) <= k]))
        wires = draw(st.permutations(range(1, k + 1)))[:gate_arity(name)]
        lines.append(f"gate {name} " + " ".join(map(str, wires)))
    c = parse_circuit("\n".join(lines + [f"measure {w}" for w in range(1, h + 1)]) + "\n")
    steps = [so.matrix.copy() for so in build_qmc(translate(c)[0]).steps]
    # one kind for every branch, then at most two branches of any kind
    kinds = [draw(st.sampled_from(["projector", "phases", "scaled", "moved"]))] * 2 ** h
    for b, kind in draw(st.lists(st.tuples(st.integers(0, 2 ** h - 1), st.sampled_from(
            ["projector", "phases", "scaled", "moved", "fewer", "zero", "dense"])), max_size=2)):
        kinds[b] = kind
    branches = []
    for b, kind in enumerate(kinds):
        rows = np.arange(b * block, (b + 1) * block)
        cols, values = rows.copy(), np.ones(block, dtype=np.complex128)
        if kind == "phases":
            values = np.exp(2j * np.pi * rng.random(block))
        elif kind == "scaled":
            values = values * rng.uniform(0.1, 2.0, block)
        elif kind == "moved":
            cols = rng.permutation(dim)[:block]
            rows = np.sort(rng.permutation(dim)[:block])
        elif kind == "fewer":
            keep = rng.random(block) < 0.5
            rows, cols, values = rows[keep], cols[keep], values[keep]
        elif kind == "zero":
            rows, cols, values = rows[:0], cols[:0], values[:0]
        so = Superoperator.from_index(dim, rows, cols, values)
        if kind == "dense" and dim > 1:
            m = so.matrix.copy()
            m[rows[0], (cols[0] + 1) % dim] = 0.5
            so = Superoperator(m)
        branches.append(so)
    q = Qmc(k, h, tuple(map(Superoperator, steps)), tuple(branches))
    if q.steps and draw(st.integers(0, 3)) == 0:
        q.steps[draw(st.integers(0, q.n - 1))].matrix[0, 0] = np.nan
    kets = random_kets(k, draw(st.integers(0, 3)), rng) + \
        [basis_state(k, draw(st.integers(0, dim - 1)))]
    return c, q, kets


def _same_report(a, b) -> bool:
    """Reports equal field by field, a NaN equal to a NaN."""
    return all(x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
               for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)))


@settings(max_examples=200, deadline=None)
@given(case=_branch_set())
def test_gathered_branch_read_equals_one_branch_at_a_time(case):
    c, q, kets = case
    block = np.array(kets).T
    _, born = _walk(c.k, c.gates, c.measured, block)
    v, _ = _chain_run(q, block)
    got = evaluate._branch_deviations(q.branches, v, born)
    want = _per_branch_deviations(q.branches, v, born)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    fast = check_equivalence(c, None, q, kets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_branch_deviations", _per_branch_deviations)
        slow = check_equivalence(c, None, q, kets)
    assert fast.failures == slow.failures and fast.worst_at == slow.worst_at
    assert _same_report(fast, slow)


@settings(max_examples=100, deadline=None)
@given(case=_branch_set(), compiled=st.booleans())
def test_the_default_basis_reports_as_the_basis_list_does(case, compiled):
    c, q, _ = case
    if compiled:
        q = build_qmc(translate(c)[0])
    basis = check_equivalence(c, None, q, list(np.eye(2 ** c.k, dtype=np.complex128)))
    with pytest.MonkeyPatch.context() as mp:
        def refuse(psi, k):
            raise AssertionError("the default basis went through _as_ket")
        mp.setattr(evaluate, "_as_ket", refuse)
        default = check_equivalence(c, None, q)
    assert default.failures == basis.failures and default.worst_at == basis.worst_at
    assert _same_report(default, basis)
