"""Superoperator-weighted Markov chains.

A chain compiled from a strong-normal-form tuple <k, [U1..Un], h> has
internal states s1..s(n+1) joined by the unitary superoperators, one
branching fan-out from s(n+1) into 2^h terminal states weighted by the
measurement superoperators, and an identity self-loop on every terminal.
The defining soundness condition is that the superoperators leaving any
state sum to a trace-preserving map; :func:`verify_row_stochasticity` is
the one check of it, and construction checks only the shape of the maps.
Permutation, phase and projector rows are read from their diagonal in
O(d^2); only the other rows form d^3 grams.

The chain is stored as that shape: a ``steps`` tuple and a ``branches``
tuple of one-matrix superoperators. The state names, the transition table
keyed by ``(source, target)`` and the labeling are read-only views derived
from the two tuples.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_TOL, check_tolerance
from .errors import DimensionMismatch, OutcomeOutOfRange
from .linalg import check_finite
from .normalize import SnfCircuit

__all__ = ["Superoperator", "Qmc", "RowViolation", "measurement_matrix",
           "build_qmc", "qmc_from_matrices", "verify_row_stochasticity"]


@dataclass(frozen=True)
class Superoperator:
    """The completely positive map rho -> M rho M^dagger of one matrix M,
    the only kind of map the model text writes.

    ``matrix`` is stored as complex128. Construction rejects input that is
    not a non-empty square 2-D matrix of finite entries; whether the map is
    physical is left to :func:`verify_row_stochasticity`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.matrix, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch("superoperator needs one numeric matrix") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise DimensionMismatch(
                f"superoperator needs a non-empty square matrix, got shape {m.shape}")
        check_finite(m, "superoperator matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def kraus(self) -> tuple[np.ndarray]:
        """Read-only one-operator Kraus view, ``(matrix,)``."""
        return (self.matrix,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"density {rho.shape} vs superoperator dim {self.dim}")
        return self.matrix @ rho @ self.matrix.conj().T

    def gram(self) -> np.ndarray:
        """M^dagger M."""
        return self.matrix.conj().T @ self.matrix


@dataclass(frozen=True)
class Qmc:
    """A linear chain: ``steps`` joins s1..s{n+1}, ``branches[i]`` leads
    from s{n+1} to terminal t{i} (outcome index in binary gives the measured
    bits, wire 1 first).

    Construction checks 0 <= h <= k, the branch count and that every map
    has the register's dimension. ``states``, ``transitions`` and
    ``labeling`` are read-only views of the tuples; all terminal self-loops
    share one identity superoperator.
    """

    k: int
    h: int
    steps: tuple[Superoperator, ...]
    branches: tuple[Superoperator, ...]

    def __post_init__(self):
        if self.h < 0 or self.k < self.h:
            raise DimensionMismatch(f"need 0 <= h <= k, got h={self.h} k={self.k}")
        dim = 2 ** self.k
        if len(self.branches) != 2 ** self.h:
            raise DimensionMismatch(
                f"need 2^{self.h} branch matrices, got {len(self.branches)}")
        for kind, maps, first in (("step", self.steps, 1), ("branch", self.branches, 0)):
            for i, so in enumerate(maps, start=first):
                if so.dim != dim:
                    raise DimensionMismatch(
                        f"{kind} {i} has shape {so.matrix.shape}, register needs {dim}")

    @property
    def n(self) -> int:
        """Number of unitary steps in the underlying chain."""
        return len(self.steps)

    def internal_states(self) -> list[str]:
        return [f"s{i}" for i in range(1, self.n + 2)]

    def terminal_states(self) -> list[str]:
        return [f"t{i}" for i in range(len(self.branches))]

    @property
    def states(self) -> tuple[str, ...]:
        return (*self.internal_states(), *self.terminal_states())

    @cached_property
    def transitions(self) -> Mapping[tuple[str, str], Superoperator]:
        internal = self.internal_states()
        table = dict(zip(zip(internal, internal[1:]), self.steps))
        loop = Superoperator(np.eye(2 ** self.k, dtype=np.complex128))
        for t, so in zip(self.terminal_states(), self.branches):
            table[(internal[-1], t)] = so
            table[(t, t)] = loop
        return MappingProxyType(table)

    @cached_property
    def labeling(self) -> Mapping[str, frozenset[str]]:
        table = {s: frozenset({f"step={i}"})
                 for i, s in enumerate(self.internal_states(), start=1)}
        for i, t in enumerate(self.terminal_states()):
            outcome = {f"outcome={i:0{self.h}b}"} if self.h else set()
            table[t] = frozenset({"terminal", *outcome})
        return MappingProxyType(table)


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


def qmc_from_matrices(k: int, h: int, steps: list[np.ndarray],
                      branches: list[np.ndarray]) -> Qmc:
    """Assemble the chain from raw step and measurement-branch matrices."""
    return Qmc(k, h, tuple(map(Superoperator, steps)),
               tuple(map(Superoperator, branches)))


def build_qmc(s: SnfCircuit) -> Qmc:
    """Compile a strong-normal-form tuple into its Markov chain.

    One internal state per chain position, 2^h terminals. Internal
    transitions carry the unitary superoperators; the final
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


def _diagonal_mass(maps) -> np.ndarray | None:
    """diag(sum of M^dagger M) over ``maps``, each matrix's column norms
    squared, when every matrix has at most one nonzero per row and per column
    and all its nonzeros are finite; the sum is then exactly diagonal.
    Otherwise None, and the caller forms the grams."""
    d = maps[0].dim
    mass = np.zeros(d)
    for so in maps:
        flat = np.flatnonzero(so.matrix != 0)
        if flat.size > d:
            return None
        rows, cols = np.divmod(flat, d)
        if (np.bincount(rows, minlength=d).max() > 1
                or np.bincount(cols, minlength=d).max() > 1):
            return None
        values = so.matrix[rows, cols]
        if not np.isfinite(values).all():
            return None
        mass[cols] += (values.conj() * values).real
    return mass


# a NaN step and a gram or column norm that overflows to inf are violations, not warnings
@np.errstate(invalid="ignore", over="ignore")
def verify_row_stochasticity(q: Qmc, tol: float = DEFAULT_TOL.qmc_rows) -> list[RowViolation]:
    """Check that each state's outgoing superoperators sum to a
    trace-preserving map (sum of all K^dagger K equals the identity).

    The rows are s1..sn, one step each, and s{n+1}, the sum over the
    measurement branches; the terminals' identity self-loops need no check.
    A row whose matrices have at most one nonzero per row and per column,
    all finite (permutations, phases, diagonal projectors), has a diagonal
    sum, read from the column norms in O(d^2); every other row forms its
    grams. A step object shared by several positions is checked once.
    Returns one violation per offending state; an empty list certifies the
    chain. ``tol`` must be finite and >= 0.
    """
    check_tolerance(tol, "tol")
    eye = np.eye(2 ** q.k, dtype=np.complex128)

    def deviation(maps) -> float:
        mass = _diagonal_mass(maps)
        if mass is None:
            return float(np.max(np.abs(sum(so.gram() for so in maps) - eye)))
        return float(np.max(np.abs(mass - 1)))

    distinct = {id(so): so for so in q.steps}
    step_dev = {key: deviation((so,)) for key, so in distinct.items()}
    rows = [(f"s{i}", step_dev[id(so)]) for i, so in enumerate(q.steps, start=1)]
    rows.append((f"s{q.n + 1}", deviation(q.branches)))
    return [RowViolation(state, dev) for state, dev in rows if not dev <= tol]
