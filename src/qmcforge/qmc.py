"""Superoperator-weighted Markov chains.

A chain compiled from a strong-normal-form tuple <k, [U1..Un], h> has
internal states s1..s(n+1) joined by the unitary superoperators, one
branching fan-out from s(n+1) into 2^h terminal states weighted by the
measurement superoperators, and an identity self-loop on every terminal.
The defining soundness condition is that the superoperators leaving any
state sum to a trace-preserving map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, OutcomeOutOfRange
from .normalize import SnfCircuit

__all__ = ["Superoperator", "Qmc", "RowViolation", "measurement_matrix",
           "build_qmc", "qmc_from_matrices", "verify_row_stochasticity"]


@dataclass(frozen=True)
class Superoperator:
    """A completely positive map given by its Kraus operators.

    Construction rejects empty, non-square, mixed-dimension, non-finite or
    trace-increasing operator lists.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise DimensionMismatch("superoperator needs at least one Kraus operator")
        dim = self.kraus[0].shape[0]
        for m in self.kraus:
            if m.ndim != 2 or m.shape != (dim, dim):
                raise DimensionMismatch(
                    f"Kraus operators must share one square shape, got {m.shape}")
            if not np.isfinite(m).all():
                raise DimensionMismatch("Kraus operators must have finite entries")
        gram = self.gram()
        herm = (gram + gram.conj().T) / 2.0
        limit = 1.0 + DEFAULT_TOL.psd_slack
        # Gershgorin: the largest eigenvalue is at most the largest absolute
        # row sum, which already settles every permutation, unitary and
        # projector step without an eigendecomposition.
        bound = np.abs(herm).sum(axis=1).max()
        if bound <= limit:
            return
        if not np.isfinite(bound):
            raise DimensionMismatch("superoperator gram overflows: entries too large")
        top = np.linalg.eigvalsh(herm).max()
        if not top <= limit:
            raise DimensionMismatch(
                f"superoperator increases trace (largest eigenvalue {top:.3e})")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"density {rho.shape} vs superoperator dim {self.dim}")
        return sum(m @ rho @ m.conj().T for m in self.kraus)

    def gram(self) -> np.ndarray:
        """Sum of K^dagger K over the Kraus operators."""
        return sum(m.conj().T @ m for m in self.kraus)


@dataclass
class Qmc:
    """States, transition superoperators, and the atomic-proposition labeling.

    Internal states are named ``s1..s{n+1}``, terminals ``t0..t{2^h-1}``
    (outcome index in binary gives the measured bits, wire 1 first).
    """

    k: int
    h: int
    states: tuple[str, ...]
    transitions: dict[tuple[str, str], Superoperator] = field(default_factory=dict)
    ap: frozenset[str] = frozenset()
    labeling: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Number of unitary steps in the underlying chain."""
        return sum(1 for s in self.states if s.startswith("s")) - 1

    def internal_states(self) -> list[str]:
        return [s for s in self.states if s.startswith("s")]

    def terminal_states(self) -> list[str]:
        return [s for s in self.states if s.startswith("t")]

    def successors(self, state: str) -> list[tuple[str, Superoperator]]:
        return [(dst, so) for (src, dst), so in sorted(self.transitions.items())
                if src == state]


def measurement_matrix(h: int, k: int, i: int) -> np.ndarray:
    """Projector onto outcome ``i`` of measuring the first h of k wires.

    The result is |i><i| on the measured block, identity on the rest, so a
    2^k square matrix with ones on the diagonal positions whose leading h
    bits spell ``i``.
    """
    if h < 0 or k < h:
        raise DimensionMismatch(f"need 0 <= h <= k, got h={h} k={k}")
    if not 0 <= i < 2 ** h:
        raise OutcomeOutOfRange(f"outcome {i} outside 0..{2 ** h - 1}")
    block = np.zeros((2 ** h, 2 ** h), dtype=np.complex128)
    block[i, i] = 1.0
    return np.kron(block, np.eye(2 ** (k - h), dtype=np.complex128))


def _outcome_bits(i: int, h: int) -> str:
    return format(i, f"0{h}b") if h else ""


def qmc_from_matrices(k: int, h: int, steps: list[np.ndarray],
                      branches: list[np.ndarray]) -> Qmc:
    """Assemble the chain from raw step and measurement-branch matrices."""
    dim = 2 ** k
    if len(branches) != 2 ** h:
        raise DimensionMismatch(f"need 2^{h} branch matrices, got {len(branches)}")
    internal = [f"s{i}" for i in range(1, len(steps) + 2)]
    terminal = [f"t{i}" for i in range(2 ** h)]
    transitions: dict[tuple[str, str], Superoperator] = {}
    for i, u in enumerate(steps):
        if u.shape != (dim, dim):
            raise DimensionMismatch(f"step {i + 1} has shape {u.shape}, register needs {dim}")
        transitions[(internal[i], internal[i + 1])] = Superoperator((u,))
    eye = np.eye(dim, dtype=np.complex128)
    for i, m in enumerate(branches):
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"branch {i} has shape {m.shape}, register needs {dim}")
        transitions[(internal[-1], terminal[i])] = Superoperator((m,))
        transitions[(terminal[i], terminal[i])] = Superoperator((eye,))

    labeling: dict[str, frozenset[str]] = {}
    ap: set[str] = set()
    for i, name in enumerate(internal, start=1):
        labeling[name] = frozenset({f"step={i}"})
        ap.add(f"step={i}")
    for i, name in enumerate(terminal):
        props = {"terminal"}
        if h:
            props.add(f"outcome={_outcome_bits(i, h)}")
        labeling[name] = frozenset(props)
        ap |= props
    return Qmc(k=k, h=h, states=tuple(internal + terminal),
               transitions=transitions, ap=frozenset(ap), labeling=labeling)


def build_qmc(s: SnfCircuit) -> Qmc:
    """Compile a strong-normal-form tuple into its Markov chain.

    One internal state per chain position, 2^h terminals. Internal
    transitions carry the single-Kraus unitary superoperators; the final
    internal state fans out through the measurement projectors; terminals
    self-loop with the identity.
    """
    branches = [measurement_matrix(s.h, s.k, i) for i in range(2 ** s.h)]
    return qmc_from_matrices(s.k, s.h, list(s.unitaries), branches)


@dataclass(frozen=True)
class RowViolation:
    state: str
    deviation: float

    def __str__(self) -> str:
        return f"state {self.state}: outgoing maps deviate from trace-preserving by {self.deviation:.3e}"


def verify_row_stochasticity(q: Qmc, tol: float = DEFAULT_TOL.qmc_rows) -> list[RowViolation]:
    """Check that each state's outgoing superoperators sum to a
    trace-preserving map (sum of all K^dagger K equals the identity).

    Returns one violation per offending state; an empty list certifies the
    chain. States with no outgoing transition are reported with infinite
    deviation.
    """
    out: list[RowViolation] = []
    eye = np.eye(2 ** q.k, dtype=np.complex128)
    for state in q.states:
        succ = q.successors(state)
        if not succ:
            out.append(RowViolation(state, float("inf")))
            continue
        total = np.zeros_like(eye)
        for _, so in succ:
            total = total + so.gram()
        dev = float(np.max(np.abs(total - eye)))
        if not dev <= tol:
            out.append(RowViolation(state, dev))
    return out
