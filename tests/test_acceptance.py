"""Acceptance gate: the end-to-end guarantees the package ships under.

Each test covers one numbered criterion and prints exactly one PASS/FAIL
line (straight to the terminal, bypassing capture) so the gate can be read
off a plain ``pytest -v`` run. Tolerances are pinned here on purpose; they
are the contract, not a configuration knob.
"""

import json
import time

import numpy as np
import pytest

from conftest import record_acceptance
from helpers import basis_state, random_circuit
from qmcforge.cli import gen_test_circuit, main
from qmcforge.emit import emit_qpmc, reparse_model
from qmcforge.evaluate import check_equivalence, run_qmc
from qmcforge.normalize import translate
from qmcforge.parser import parse_circuit
from qmcforge.qmc import build_qmc, measurement_matrix, verify_row_stochasticity

GROVER = """\
qubits 3
gate H 1
gate H 2
gate H 3
gate CCNOT 1 2 3
gate H 1
gate H 2
gate X 1
gate X 2
gate CZ 1 2
gate X 1
gate X 2
gate H 1
gate H 2
gate H 3
measure 1
measure 2
"""

DEUTSCH_BALANCED = """\
qubits 2
gate H 1
gate H 2
gate CNOT 1 2
gate H 1
measure 1
"""

DEUTSCH_CONSTANT = DEUTSCH_BALANCED.replace("gate CNOT 1 2", "gate I 1")

SUITE_SEED = 20260817
SUITE_SIZE = 200


def _announce(num, name, ok):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    record_acceptance(line)


@pytest.fixture(scope="module")
def random_suite():
    """200 seeded random circuits (up to 4 wires, up to 6 gates), compiled
    and equivalence-checked over every computational basis input."""
    rng = np.random.default_rng(SUITE_SEED)
    entries = []
    t0 = time.perf_counter()
    for _ in range(SUITE_SIZE):
        c = random_circuit(rng, max_wires=4, max_gates=6)
        s, _ = translate(c)
        q = build_qmc(s)
        report = check_equivalence(c, s, q, tol=1e-9, support_tol=1e-12)
        entries.append((c, s, q, report))
    elapsed = time.perf_counter() - t0
    return entries, elapsed


@pytest.fixture(scope="module")
def bench_chains():
    chains = []
    for k in range(3, 9):
        s, account = translate(gen_test_circuit(k), strategy="naive-adjacent")
        chains.append((k, s, account, build_qmc(s)))
    return chains


def test_criterion_1_grover_end_to_end():
    ok = False
    try:
        t0 = time.perf_counter()
        c = parse_circuit(GROVER)
        s, _ = translate(c)
        q = build_qmc(s)
        tau = basis_state(3, 0b001)  # ancilla wire 3 prepared in |1>
        report = run_qmc(q, np.outer(tau, tau.conj()))
        elapsed = time.perf_counter() - t0
        assert [o.bits for o in report.outcomes] == ["00", "01", "10", "11"]
        expected = (0.0, 0.0, 0.0, 1.0)
        assert np.allclose(report.probabilities, expected, atol=1e-9)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        ok = True
    finally:
        _announce(1, "one-round search drives both reads to 1", ok)


def test_criterion_2_deutsch_two_oracles():
    ok = False
    try:
        tau = basis_state(2, 0b01)
        rho = np.outer(tau, tau.conj())
        balanced = build_qmc(translate(parse_circuit(DEUTSCH_BALANCED))[0])
        probs = run_qmc(balanced, rho).probabilities
        assert probs[1] == pytest.approx(1.0, abs=1e-9)
        constant = build_qmc(translate(parse_circuit(DEUTSCH_CONSTANT))[0])
        probs = run_qmc(constant, rho).probabilities
        assert probs[0] == pytest.approx(1.0, abs=1e-9)
        ok = True
    finally:
        _announce(2, "balanced oracle reads 1, constant oracle reads 0", ok)


def test_criterion_3_measurement_resolution():
    ok = False
    try:
        for k in range(1, 7):
            for h in range(0, k + 1):
                acc = np.zeros((2 ** k, 2 ** k), dtype=np.complex128)
                for i in range(2 ** h):
                    m = measurement_matrix(h, k, i)
                    acc += m.conj().T @ m
                assert np.max(np.abs(acc - np.eye(2 ** k))) <= 1e-12, (k, h)
        ok = True
    finally:
        _announce(3, "measurement branches resolve the identity (k <= 6)", ok)


def test_criterion_4_random_suite_chain_semantics(random_suite):
    ok = False
    try:
        entries, elapsed = random_suite
        assert len(entries) == SUITE_SIZE
        for idx, (c, s, q, report) in enumerate(entries):
            assert report.chain <= 1e-9, (idx, report.failures)
            assert report.prob <= 1e-9, (idx, report.failures)
            assert report.support <= 1e-12, (idx, report.failures)
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
        ok = True
    finally:
        _announce(4, "200 random circuits: branch and probability agreement", ok)


def test_criterion_5_random_suite_state_agreement(random_suite):
    ok = False
    try:
        entries, _ = random_suite
        for idx, (c, s, q, report) in enumerate(entries):
            assert report.state <= 1e-9, (idx, report.failures)
        ok = True
    finally:
        _announce(5, "200 random circuits: graph and chain states agree", ok)


def test_criterion_6_swap_accounting(bench_chains):
    ok = False
    try:
        sizes = [k for k, _, _, _ in bench_chains]
        totals = [account.total for _, _, account, _ in bench_chains]
        assert sizes == [3, 4, 5, 6, 7, 8]
        assert totals == [5, 11, 18, 29, 39, 53]
        for k, s, account, _ in bench_chains:
            assert all(g <= k * (k - 1) // 2 for g in account.per_gate), k
        assert all(a < b for a, b in zip(totals, totals[1:]))
        growth = [t / k for t, k in zip(totals, sizes)]
        assert all(a < b for a, b in zip(growth, growth[1:]))
        for k, s, account, _ in bench_chains:
            composed, _ = translate(gen_test_circuit(k), strategy="composed")
            direct, _ = translate(gen_test_circuit(k), strategy="direct")
            for a, b, c_ in zip(s.unitaries, composed.unitaries, direct.unitaries):
                a, b, c_ = a.matrix, b.matrix, c_.matrix
                assert np.max(np.abs(a - b)) <= 1e-12
                assert np.max(np.abs(b - c_)) <= 1e-12
        ok = True
    finally:
        _announce(6, "swap accounting: bounded per gate, superlinear total", ok)


def test_criterion_7_bench_timing(tmp_path):
    ok = False
    try:
        report_path = tmp_path / "bench.json"
        t0 = time.perf_counter()
        code = main(["bench", "--sizes", "3..8", "--runs", "5",
                     "--output", str(report_path)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        payload = json.loads(report_path.read_text())
        results = payload["results"]
        assert [r["size"] for r in results] == [3, 4, 5, 6, 7, 8]
        means = [r["mean_s"] for r in results]
        assert all(a <= b for a, b in zip(means, means[1:])), means
        assert means[-1] < 120.0
        assert elapsed < 120.0, f"bench took {elapsed:.1f}s"
        ok = True
    finally:
        _announce(7, "timing scan 3..8 completes with nondecreasing means", ok)


def test_criterion_8_model_text_round_trip(random_suite, bench_chains):
    ok = False
    try:
        chains = [q for _, _, q, _ in random_suite[0]]
        chains += [q for _, _, _, q in bench_chains]
        for src in (GROVER, DEUTSCH_BALANCED, DEUTSCH_CONSTANT):
            chains.append(build_qmc(translate(parse_circuit(src))[0]))
        for q in chains:
            text = emit_qpmc(q)
            q2 = reparse_model(text)
            assert q2.states == q.states
            for key, so in q.transitions.items():
                for a, b in zip(so.kraus, q2.transitions[key].kraus):
                    assert np.array_equal(a, b)
            assert emit_qpmc(q2) == text
        ok = True
    finally:
        _announce(8, "emitted models reparse exactly and re-emit byte-stably", ok)


def test_criterion_9_row_stochasticity_everywhere(random_suite, bench_chains):
    ok = False
    try:
        chains = [q for _, _, q, _ in random_suite[0]]
        chains += [q for _, _, _, q in bench_chains]
        for src in (GROVER, DEUTSCH_BALANCED, DEUTSCH_CONSTANT):
            chains.append(build_qmc(translate(parse_circuit(src))[0]))
        for q in chains:
            assert verify_row_stochasticity(q, tol=1e-10) == []
        ok = True
    finally:
        _announce(9, "every compiled chain is row-stochastic", ok)
