"""Superoperator-weighted Markov chains.

A chain compiled from a strong-normal-form tuple <k, [U1..Un], h> has
internal states s1..s(n+1) joined by the unitary superoperators, one
branching fan-out from s(n+1) into 2^h terminal states weighted by the
measurement superoperators, and an identity self-loop on every terminal.
The defining soundness condition is that the superoperators leaving any
state sum to a trace-preserving map; :func:`verify_row_stochasticity` is
the one check of it, and construction checks only the shape of the maps.
Permutation, phase and projector rows are read from their diagonal
without forming a gram; only the other rows form d^3 grams.

The chain is stored as that shape: a ``steps`` tuple and a ``branches``
tuple of one-matrix superoperators. The state names, the transition table
keyed by ``(source, target)`` and the labeling are read-only views derived
from the two tuples.

A map whose matrix is monomial, at most one nonzero per row and per
column, has an index form (rows, cols, values). ``translate`` builds every
permutation, routing and phase step that way, ``build_qmc`` passes the
steps through and builds the 2^h projectors from index ranges, and
reparse builds every monomial 0/1 constant the same way; none of them is
formed dense. Each of them, and ``Superoperator.from_index`` after its
checks, stores the form through one constructor,
``Superoperator._indexed``, which puts it in row order and marks it
read-only. ``Superoperator.matrix`` materializes the dense array on first
read and keeps it, and from then on that array is the only truth:
``monomial`` derives the form by one scan of it on every read and caches
nothing, so a write into ``matrix`` in place reaches every reader, the row
check included.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT_TOL, check_tolerance
from .errors import DimensionMismatch
from .linalg import check_finite

if TYPE_CHECKING:
    from .normalize import SnfCircuit

__all__ = ["Superoperator", "Qmc", "RowViolation", "build_qmc",
           "verify_row_stochasticity"]

log = logging.getLogger(__name__)


class Superoperator:
    """The completely positive map rho -> M rho M^dagger of one matrix M,
    the only kind of map the model text writes.

    ``Superoperator(m)`` stores the dense matrix ``m`` as complex128 (no
    copy for complex128 input). :meth:`from_index` builds the map of a
    monomial matrix, at most one nonzero per row and per column (a
    permutation times phases, a diagonal projector), from its index form
    alone. ``matrix`` materializes that dense array on first read and keeps
    it; from then on the dense array is the only truth, so a write into
    ``matrix`` in place is seen by every later reader. ``monomial`` gives
    the index form to the readers that can use it (the row check, emit and
    the equivalence check).

    An index form holds no zero entries, so it cannot say that the dense
    array a step of ``translate`` stands for holds a signed zero somewhere
    (an undo step's ``conj`` writes ``-0j`` into every entry; -1 times a
    zero of the identity is -0). Such a map carries a function that forms
    its exact dense array; ``matrix`` calls it, and the constant pool calls
    it only to tell apart two maps of equal forms (see :meth:`_bytes_key`).

    Construction rejects input that is not a non-empty square 2-D matrix of
    finite entries; whether the map is physical is left to
    :func:`verify_row_stochasticity`.
    """

    __slots__ = ("_dense", "_index", "_dim", "_exact")

    def __init__(self, matrix: np.ndarray):
        try:
            m = np.asarray(matrix, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch("superoperator needs one numeric matrix") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise DimensionMismatch(
                f"superoperator needs a non-empty square matrix, got shape {m.shape}")
        check_finite(m, "superoperator matrix")
        self._dense, self._index, self._dim, self._exact = m, None, m.shape[0], None

    @classmethod
    def from_index(cls, d: int, rows, cols, values) -> Superoperator:
        """The map of the d x d matrix with ``values[i]`` at
        ``(rows[i], cols[i])`` and zeros elsewhere, formed without a dense
        array. Each row and each column may appear at most once, and
        ``values`` must be finite. The form is stored canonically: zero
        values dropped, entries in row order, arrays read-only.
        """
        try:
            rows, cols = np.asarray(rows), np.asarray(cols)
            values = np.array(values, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch("index form needs numeric arrays") from exc
        if not (isinstance(d, (int, np.integer)) and d > 0):
            raise DimensionMismatch(f"index form needs a dimension >= 1, got {d!r}")
        if not (rows.ndim == cols.ndim == values.ndim == 1
                and rows.shape == cols.shape == values.shape
                and rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise DimensionMismatch("index form needs three 1-D arrays of one length, "
                                    "integer rows and columns")
        rows, cols = rows.astype(np.intp), cols.astype(np.intp)
        if rows.size and not (0 <= min(rows.min(), cols.min())
                              and max(rows.max(), cols.max()) < d
                              and np.bincount(rows).max() == np.bincount(cols).max() == 1):
            raise DimensionMismatch(
                f"index form needs distinct rows and distinct columns in 0..{d - 1}")
        check_finite(values, "superoperator values")
        if not values.all():
            keep = values != 0
            rows, cols, values = rows[keep], cols[keep], values[keep]
        return cls._indexed(int(d), rows, cols, values)

    @classmethod
    def _indexed(cls, d: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                 exact: Callable[[], np.ndarray] | None = None) -> Superoperator:
        """The map of an index form with distinct rows, distinct columns and
        nonzero finite values (checked by :meth:`from_index`, or built so by
        the caller), stored canonically: entries put in row order when they
        are not in it already, and the three arrays marked read-only, so a
        form may be shared between maps. Rows are distinct, so the order is
        unique. ``exact``, when given, forms the map's dense array with its
        signed zeros; without it every zero entry is +0."""
        if rows.size > 1 and np.count_nonzero(rows[1:] < rows[:-1]):
            order = np.argsort(rows)
            rows, cols, values = rows[order], cols[order], values[order]
        for a in (rows, cols, values):
            a.setflags(write=False)
        so = cls.__new__(cls)
        so._dense, so._index, so._dim, so._exact = None, (rows, cols, values), d, exact
        return so

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, formed from the index form on first read."""
        if self._dense is None:
            self._dense = self._form()
            self._index = self._exact = None
        return self._dense

    def _form(self) -> np.ndarray:
        """The dense matrix: the one kept, else formed afresh and not kept."""
        if self._dense is not None:
            return self._dense
        if self._exact is not None:
            return self._exact()
        rows, cols, values = self._index
        m = np.zeros((self._dim, self._dim), dtype=np.complex128)
        m[rows, cols] = values
        return m

    @property
    def monomial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The index form (rows, cols, values), entries in row order, when
        the matrix has at most one nonzero per row and per column and all
        its nonzeros are finite; otherwise None. The stored form while no
        dense array exists; after that one scan of ``matrix`` per read, so
        a write into ``matrix`` is never missed."""
        if self._dense is None:
            return self._index
        m = self._dense
        flat = np.flatnonzero(m != 0)
        if flat.size > self._dim:
            return None
        rows, cols = np.divmod(flat, self._dim)
        if (np.bincount(rows, minlength=self._dim).max() > 1
                or np.bincount(cols, minlength=self._dim).max() > 1):
            return None
        values = m[rows, cols]
        if not np.isfinite(values).all():
            return None
        return rows, cols, values

    def _bytes_key(self) -> tuple[tuple, tuple | None]:
        """(key, ``monomial``): two maps get equal keys exactly when their
        dense arrays have equal ``tobytes()``, signed zeros included, and an
        index-built map is not densified. A monomial map's key is its index
        form's bytes and then its :class:`_ZeroSigns`, which a dict compares
        only after the form's bytes matched; any other map's key is its
        dense bytes."""
        form = self.monomial
        if form is None:
            return ("dense", self._dense.tobytes()), None
        return ("index", *(a.tobytes() for a in form), _ZeroSigns(self)), form

    def _zero_signs(self) -> bytes | None:
        """The sign bits of the dense matrix's zero entries, packed; None
        when no zero entry has one set. An index-built map without an
        exact-form function has none and forms nothing."""
        if self._dense is None and self._exact is None:
            return None
        # the parts one by one: a dagger view cannot be read as float pairs
        m = self._form()
        zero = m == 0
        signs = np.stack((np.signbit(m.real) & zero, np.signbit(m.imag) & zero))
        return np.packbits(signs).tobytes() if signs.any() else None

    @property
    def kraus(self) -> tuple[np.ndarray]:
        """Read-only one-operator Kraus view, ``(matrix,)``."""
        return (self.matrix,)

    @property
    def dim(self) -> int:
        return self._dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"density {rho.shape} vs superoperator dim {self.dim}")
        return self.matrix @ rho @ self.matrix.conj().T

    def gram(self) -> np.ndarray:
        """M^dagger M."""
        return self.matrix.conj().T @ self.matrix


class _ZeroSigns:
    """The last element of a monomial map's pool key: the sign bits of its
    zero entries, the one part of the dense bytes that an index form does
    not hold. It hashes as a constant, so a dict compares it only when the
    form's bytes matched already, and it forms the bits (see
    :meth:`Superoperator._zero_signs`) only then, once."""

    __slots__ = ("_so", "_bits")
    _UNSET = object()

    def __init__(self, so: Superoperator):
        self._so, self._bits = so, self._UNSET

    def bits(self) -> bytes | None:
        if self._bits is self._UNSET:
            self._bits = self._so._zero_signs()
        return self._bits

    def __eq__(self, other) -> bool:
        return isinstance(other, _ZeroSigns) and self.bits() == other.bits()

    def __hash__(self) -> int:
        return 0


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
                        f"{kind} {i} has shape {(so.dim, so.dim)}, register needs {dim}")

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


def build_qmc(s: SnfCircuit) -> Qmc:
    """Compile a strong-normal-form tuple into its Markov chain.

    One internal state per chain position, 2^h terminals. Internal
    transitions carry the step maps of ``s`` as they are, a map shared by
    several positions staying one object; the final internal state fans
    out through the measurement projectors, built from their index ranges
    with no dense matrix; terminals self-loop with the identity.
    """
    d, block = 2 ** s.k, 2 ** (s.k - s.h)
    # projector i keeps the block of rows i * block .. (i + 1) * block - 1
    index, ones = np.arange(d), np.ones(block, dtype=np.complex128)
    branches = tuple(Superoperator._indexed(d, span, span, ones)
                     for span in index.reshape(-1, block))
    q = Qmc(s.k, s.h, s.unitaries, branches)
    _log_maps("build_qmc", q)
    return q


def _map_census(maps) -> str:
    """How many distinct maps ``maps`` holds, and how many of them are
    index-built and how many dense."""
    distinct = {id(so): so for so in maps}.values()
    index = sum(so._dense is None for so in distinct)
    return f"{len(distinct)} distinct map(s): {index} index-built, {len(distinct) - index} dense"


def _log_maps(stage: str, q: Qmc) -> None:
    """One debug line: the chain's sizes and its :func:`_map_census`."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s: k=%d, h=%d, %d step(s), %s",
                  stage, q.k, q.h, q.n, _map_census(q.steps + q.branches))


@dataclass(frozen=True)
class RowViolation:
    state: str
    deviation: float

    def __str__(self) -> str:
        return f"state {self.state}: outgoing maps deviate from trace-preserving by {self.deviation:.3e}"


def _diagonal_mass(maps) -> np.ndarray | None:
    """diag(sum of M^dagger M) over ``maps``, each matrix's column norms
    squared, when every map has an index form (``Superoperator.monomial``);
    the sum is then exactly diagonal. Otherwise None, and the caller forms
    the grams. One ``bincount`` over all the forms' columns adds each
    column's weights in map order, as a loop over the maps would."""
    forms = []
    for so in maps:
        form = so.monomial
        if form is None:
            return None
        forms.append(form)
    values = np.concatenate([values for _, _, values in forms])
    return np.bincount(np.concatenate([cols for _, cols, _ in forms]),
                       weights=(values.conj() * values).real, minlength=maps[0].dim)


# a NaN step and a gram or column norm that overflows to inf are violations, not warnings
@np.errstate(invalid="ignore", over="ignore")
def verify_row_stochasticity(q: Qmc, tol: float = DEFAULT_TOL.qmc_rows) -> list[RowViolation]:
    """Check that each state's outgoing superoperators sum to a
    trace-preserving map (sum of all K^dagger K equals the identity).

    The rows are s1..sn, one step each, and s{n+1}, the sum over the
    measurement branches; the terminals' identity self-loops need no check.
    A row whose maps all have an index form (permutations, phases,
    diagonal projectors, with finite nonzeros) has a diagonal sum, read from
    the column norms of the forms; every other row forms its grams. A step object shared by several positions is checked once.
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
