"""Dual semantics: state-vector circuit runs vs density-matrix chain runs.

The circuit side walks the DAG directly, applying each gate to its wires by
tensor contraction; it never touches the normalizer's padded matrices, so it
serves as an independent oracle for the compiled chain. One walk validates
and places the circuit once and carries a whole block of input kets, one
per column, so all final states and all Born probabilities of a battery
come from a single pass over the DAG; ``simulate_circuit`` and
``outcome_probability`` are that walk on a block of one. The chain side
propagates a density matrix through the superoperators, one input at a
time. ``check_equivalence`` compares the two along every clause that the
translation promises to preserve; a NaN deviation counts as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import MEASURE, UNITARY, Circuit, topo_order, validate, wire_positions
from .config import DEFAULT_TOL
from .errors import (BadInitialState, BitLengthMismatch, DimensionMismatch,
                     ValidationFailed)
from .linalg import _permute_indices
from .normalize import SnfCircuit
from .qmc import Qmc

__all__ = ["EvalReport", "OutcomeRecord", "EquivalenceReport",
           "simulate_circuit", "outcome_probability", "run_qmc",
           "check_equivalence", "global_phase_distance", "random_kets",
           "measured_wires"]


def _as_ket(psi, k: int) -> np.ndarray:
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if v.shape != (2 ** k,):
        raise DimensionMismatch(f"ket has {v.shape[0]} amplitudes, register needs {2 ** k}")
    return v


def _apply_gate(state: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    d = len(axes)
    g = u.reshape((2,) * (2 * d))
    state = np.tensordot(g, state, axes=(tuple(range(d, 2 * d)), axes))
    return np.moveaxis(state, tuple(range(d)), axes)


def _measured(c: Circuit, positions: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    return tuple(sorted(positions[m][0] for m in c.nodes_of_kind(MEASURE)))


def measured_wires(c: Circuit) -> tuple[int, ...]:
    """Wire positions that end in a measurement node, ascending."""
    return _measured(c, wire_positions(c))


def _walk(c: Circuit, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the circuit on a block of kets, one per column.

    ``kets`` is 2^k x N. Returns the final states (2^k x N, wire 1 the most
    significant bit) and the Born probabilities (2^h x N): row i is the
    outcome whose h bits, read as a binary number, are the measured wires
    in ascending wire order.
    """
    problems = validate(c)
    if problems:
        raise ValidationFailed(problems)
    if kets.shape[0] != 2 ** c.k:
        raise DimensionMismatch(
            f"ket has {kets.shape[0]} amplitudes, register needs {2 ** c.k}")
    positions = wire_positions(c)
    count = kets.shape[1]
    state = kets.reshape((2,) * c.k + (count,))
    for nid in topo_order(c):
        node = c.nodes[nid]
        if node.kind == UNITARY:
            state = _apply_gate(state, node.matrix,
                                tuple(p - 1 for p in positions[nid]))
    axes = tuple(w - 1 for w in _measured(c, positions))
    h = len(axes)
    probs = np.moveaxis(np.abs(state) ** 2, axes, tuple(range(h)))
    born = probs.reshape(2 ** h, 2 ** (c.k - h), count).sum(axis=1)
    return state.reshape(kets.shape), born


def simulate_circuit(c: Circuit, psi) -> np.ndarray:
    """Run the circuit on a ket, returning the register state just before
    the measure/terminate sinks (wire 1 is the most significant bit).
    """
    final, _ = _walk(c, _as_ket(psi, c.k)[:, None])
    return final[:, 0]


def _normalize_bits(bits, h: int) -> tuple[int, ...]:
    values = tuple(int(b) for b in bits)
    if len(values) != h or any(b not in (0, 1) for b in values):
        raise BitLengthMismatch(f"expected {h} outcome bits, got {bits!r}")
    return values


def outcome_probability(c: Circuit, psi, bits) -> float:
    """Born-rule probability of reading ``bits`` off the measured wires.

    Bit j belongs to the j-th measured wire in ascending wire order.
    """
    values = _normalize_bits(bits, len(measured_wires(c)))
    _, born = _walk(c, _as_ket(psi, c.k)[:, None])
    return float(born[int("".join(map(str, values)) or "0", 2), 0])


def _worse(worst: float, dev: float) -> float:
    """The larger deviation; a NaN, once seen, stays the worst."""
    return dev if dev > worst or math.isnan(dev) else worst


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement branch: its outcome bits, the unnormalized
    post-measurement density matrix, and the probability (its trace)."""

    index: int
    bits: str
    probability: float
    density: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Everything a chain run produces."""

    outcomes: tuple[OutcomeRecord, ...]
    accumulated: np.ndarray
    densities: tuple[np.ndarray, ...]

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(o.probability for o in self.outcomes)


def run_qmc(q: Qmc, rho0: np.ndarray,
            tol: float = DEFAULT_TOL.pipeline) -> EvalReport:
    """Propagate a density matrix through the chain.

    Returns per-outcome terminal records, the accumulated product of the
    internal unitaries (last step leftmost), and the density after every
    internal state.
    """
    dim = 2 ** q.k
    rho = np.asarray(rho0, dtype=np.complex128)
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"density {rho.shape}, register needs {dim}x{dim}")
    # written as "not <= tol" so that a NaN entry fails the check
    if not (np.max(np.abs(rho - rho.conj().T)) <= tol and abs(np.trace(rho) - 1.0) <= tol):
        raise BadInitialState("initial state is not a unit-trace Hermitian matrix")

    densities = [rho]
    accumulated = np.eye(dim, dtype=np.complex128)
    for so in q.steps:
        rho = so.apply(rho)
        densities.append(rho)
        accumulated = so.matrix @ accumulated

    outcomes = []
    for i, so in enumerate(q.branches):
        post = so.apply(rho)
        bits = format(i, f"0{q.h}b") if q.h else ""
        outcomes.append(OutcomeRecord(index=i, bits=bits,
                                      probability=float(np.trace(post).real) + 0.0,
                                      density=post))
    return EvalReport(outcomes=tuple(outcomes), accumulated=accumulated,
                      densities=tuple(densities))


def global_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over theta of the 2-norm distance between a and e^{i theta} b.

    The minimizing phase aligns b with a; subtracting the aligned vectors
    directly stays accurate when the two states agree to machine precision,
    where the closed-form norm expression loses half its digits.
    """
    va, vb = np.asarray(a).reshape(-1), np.asarray(b).reshape(-1)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"cannot compare shapes {va.shape} and {vb.shape}")
    overlap = np.vdot(vb, va)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.linalg.norm(va - phase * vb))


def random_kets(k: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Haar-ish random unit kets: normalized complex Gaussians."""
    dim = 2 ** k
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return out


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case deviations per clause over all checked inputs.

    ``state``   final state-vector vs chain product (global phase ignored);
    ``chain``   rank-1 preservation along the internal chain;
    ``prob``    Born-rule vs terminal-trace probabilities;
    ``support`` post-measurement mass outside the outcome's block.
    """

    passed: bool
    state: float
    chain: float
    prob: float
    support: float
    failures: tuple[str, ...]


def check_equivalence(c: Circuit, s: SnfCircuit, q: Qmc, inputs=None,
                      tol: float = DEFAULT_TOL.pipeline,
                      support_tol: float = DEFAULT_TOL.algebraic) -> EquivalenceReport:
    """Compare circuit semantics against the compiled chain, clause by clause.

    Args:
        c: source circuit (the independent oracle side).
        s: its strong normal form (for the recorded wire reordering).
        q: the chain under test; may come from reparse_model.
        inputs: kets to try; defaults to every computational basis state.

    Only rank-1 inputs make the clause-1 comparison meaningful, so inputs
    are kets, not densities. The oracle walks the DAG once over the whole
    block of inputs and yields every final state and every Born
    probability; the chain is run once per input. A deviation fails unless
    it is at most its tolerance, so a NaN fails and shows as the worst.
    """
    k, h = s.k, s.h
    dim = 2 ** k
    if inputs is None:
        inputs = np.eye(dim, dtype=np.complex128)
    taus = [_as_ket(psi, k) for psi in inputs]
    finals, born = _walk(c, np.array(taus, dtype=np.complex128).reshape(-1, dim).T)
    if born.shape[0] != 2 ** q.h:
        raise BitLengthMismatch(f"chain has {2 ** q.h} outcomes, circuit has {born.shape[0]}")

    # into the chain's wire order: row j of the DAG's finals moves to row idx[j]
    reordered = finals[np.argsort(_permute_indices(k, s.wire_map))]
    worst = {"state": 0.0, "chain": 0.0, "prob": 0.0, "support": 0.0}
    failures: list[str] = []

    block = dim // (2 ** h)
    for idx, tau in enumerate(taus):
        report = run_qmc(q, np.outer(tau, tau.conj()), tol=tol)

        # clause: product form agrees with the DAG walk after reordering
        product_state = report.accumulated @ tau
        dev = global_phase_distance(reordered[:, idx], product_state)
        worst["state"] = _worse(worst["state"], dev)
        if not dev <= tol:
            failures.append(f"state clause: input {idx} deviates by {dev:.3e}")

        # clause: the chain preserves rank-1 states step by step
        vec = tau.copy()
        for step, (so, rho) in enumerate(zip(q.steps, report.densities[1:]), start=1):
            vec = so.matrix @ vec
            cdev = float(np.max(np.abs(rho - np.outer(vec, vec.conj()))))
            worst["chain"] = _worse(worst["chain"], cdev)
            if not cdev <= tol:
                failures.append(
                    f"chain clause: input {idx} step {step} deviates by {cdev:.3e}")
                break

        # clause: Born probabilities match terminal traces; mass stays in block
        for rec in report.outcomes:
            pdev = abs(float(born[rec.index, idx]) - rec.probability)
            worst["prob"] = _worse(worst["prob"], pdev)
            if not pdev <= tol:
                failures.append(
                    f"probability clause: input {idx} outcome {rec.bits or '-'} "
                    f"deviates by {pdev:.3e}")
            leak = np.abs(rec.density)
            lo, hi = rec.index * block, (rec.index + 1) * block
            leak[lo:hi, lo:hi] = 0.0
            sdev = float(np.max(leak))
            worst["support"] = _worse(worst["support"], sdev)
            if not sdev <= support_tol:
                failures.append(
                    f"support clause: input {idx} outcome {rec.bits or '-'} "
                    f"leaks {sdev:.3e} outside its block")

    return EquivalenceReport(passed=not failures, state=worst["state"],
                             chain=worst["chain"], prob=worst["prob"],
                             support=worst["support"], failures=tuple(failures))
