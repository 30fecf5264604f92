"""Correctness checks made once per run, outside the timed loop.

- ``xor_check``: basis inputs of a CNOT cycle must land where plain XOR bit
  arithmetic puts them, a reference that shares no code with the compiler.
- ``mutation_check``: a well-formed model whose semantics were changed must
  verify FAIL, without raising.
- ``pass_digest`` / ``pinned_digest``: the emitted bytes are part of the
  contract, so each workload and seed has a recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from qmcforge import (build_qmc, check_equivalence, emit_qpmc, parse_circuit,
                      reparse_model, run_qmc, translate, verify_row_stochasticity)

from layers import model_sha, run_op

DIGESTS = Path(__file__).resolve().parent / "digests.json"

_STEP = re.compile(r"^  \[\] \(s = (\d+)\) -> <<(\w+)>> : \(s' = (\d+)\);$", re.M)


def xor_reference(k: int, cnots) -> list[int]:
    """Output basis index of every input index; wire 1 is the top bit."""
    out = []
    for j in range(2 ** k):
        for control, target in cnots:
            if j >> (k - control) & 1:
                j ^= 1 << (k - target)
        out.append(j)
    return out


def xor_check(case, art, samples: int, rng: np.random.Generator) -> str | None:
    """Run the reparsed chain on basis inputs and compare with XOR.

    The circuits measure no wire or every wire, so no measured-wire
    realignment moves the output: the accumulated chain product must be the
    XOR permutation, and each input must reach its XOR image with
    probability 1 (h = 0: the output density; h = k: the outcome bits).
    """
    k = art.snf.k
    ref = xor_reference(k, case.cnots)
    picks = rng.choice(2 ** k, size=min(samples, 2 ** k), replace=False)
    for n, j in enumerate(int(x) for x in picks):
        tau = np.zeros(2 ** k, dtype=np.complex128)
        tau[j] = 1.0
        rep = run_qmc(art.reparsed, np.outer(tau, tau))
        if n == 0:
            expected = np.zeros((2 ** k, 2 ** k))
            expected[ref, range(2 ** k)] = 1.0
            dev = float(np.max(np.abs(rep.accumulated - expected)))
            if dev > 1e-9:
                return f"chain product is not the XOR permutation (deviation {dev:.3e})"
        if art.snf.h == 0:
            got = float(rep.outcomes[0].density[ref[j], ref[j]].real)
        else:
            got = rep.outcomes[ref[j]].probability
        if abs(got - 1.0) > 1e-9:
            return f"basis input {j} reaches {ref[j]} with weight {got:.6f}, not 1"
    return None


def _steps(q) -> list[np.ndarray]:
    n = len(q.internal_states()) - 1
    return [q.transitions[(f"s{i}", f"s{i + 1}")].kraus[0] for i in range(1, n + 1)]


def _product(mats) -> np.ndarray:
    out = np.eye(mats[0].shape[0], dtype=np.complex128)
    for m in mats:
        out = m @ out
    return out


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.linalg.norm(a - phase * b))


def find_mutation(model: str, q, battery) -> str | None:
    """Swap the constants of two step commands so that some battery input
    ends in a different state (beyond a global phase). Returns the mutated
    text, or None when no such swap exists for this model."""
    steps = _steps(q)
    # step commands come first; for h = 0 the single fan-out line matches too
    lines = list(_STEP.finditer(model))[:len(steps)]
    if len(steps) < 2 or [int(m.group(1)) for m in lines] != list(range(len(steps))):
        return None
    base = _product(steps)
    pairs = [(i, i + 1) for i in range(len(steps) - 1)]
    pairs += [(i, j) for i in range(len(steps)) for j in range(i + 2, len(steps))]
    for i, j in pairs:
        if lines[i].group(2) == lines[j].group(2):
            continue
        swapped = list(steps)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        prod = _product(swapped)
        if max(_phase_distance(base @ t, prod @ t) for t in battery) < 1e-6:
            continue
        text = list(model)
        a, b = lines[i], lines[j]
        # replace the later name first so the earlier offsets stay valid
        text[b.start(2):b.end(2)] = a.group(2)
        text[a.start(2):a.end(2)] = b.group(2)
        return "".join(text)
    return None


def mutation_check(workload, first) -> str | None:
    """The first case with a semantics-changing step swap gets its model
    mutated; the mutated model must reparse, keep stochastic rows (the
    swap is well-formed) and verify FAIL. ``first`` holds the artifacts
    of case 0 from the warm-up operation."""
    for index, case in enumerate(workload.cases):
        art = first
        if index:
            rec, art = run_op(case, index, workload, keep=True)
            if rec.failure:
                return f"case {index} failed before mutation: {rec.failure}"
        mutated = find_mutation(art.model, art.reparsed, case.battery)
        if mutated is None:
            continue
        try:
            qm = reparse_model(mutated)
            if verify_row_stochasticity(qm):
                return "mutated model lost row stochasticity"
            report = check_equivalence(art.circuit, art.snf, qm, list(case.battery))
        except Exception as exc:
            return f"mutated model raised {type(exc).__name__}: {exc}"
        return "mutated model verified PASS" if report.passed else None
    return "no case admits a semantics-changing step swap"


def compile_model(case, workload) -> str:
    """The compile path alone, for digests of passes that are not timed."""
    s, _ = translate(parse_circuit(case.text), strategy=workload.strategy,
                     emit_swaps_as_gates=workload.swaps_as_gates)
    return emit_qpmc(build_qmc(s))


def pass_digest(model_shas) -> str:
    """Digest of one pass: sha256 over the per-model hex digests in order."""
    return hashlib.sha256("".join(model_shas).encode("ascii")).hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text())["digests"][workload]
    return table.get(str(seed))
