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
column, has an index form (rows, cols, values), and every map the
pipeline builds is index-built exactly when its matrix is monomial:
``translate`` builds every permutation, routing and phase step that way,
``build_qmc`` passes the steps through and builds the 2^h projectors as
views of one shared identity form (``_identity_form``, which the terminal
self-loop and the identity factor of a gate run are views of too), and
reparse builds every monomial literal the same way. Each of them, and
``Superoperator.from_index`` after its checks, stores the form through one
constructor, ``Superoperator._indexed``, which puts it in row order and
marks it read-only. A map keeps the form it was built with for life:
``matrix`` of an index-built map is a read-only array formed from the
form, which the map never keeps (it holds only a weak reference, so
readers that overlap share one array), and no read converts a map. A map
built from an array keeps the caller's array, and ``monomial`` scans it
on every read (``_monomial_form``, the scan ``translate`` also reads gate
matrices with), so a write into it in place reaches every reader, the
row check included.

The constant pool keys a map on its nonzero entries, ``_nonzeros``: their
row-major positions and values, from the index form of an index-built map
and from one scan of the array of any other. It writes the map's literal
from the same two arrays.
"""

from __future__ import annotations

import logging
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _monomial_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The index form (rows, cols, values), rows ascending, of a square
    matrix with at most one nonzero per row and per column, all of them
    finite; otherwise None."""
    d = m.shape[0]
    flat = np.flatnonzero(m)
    if flat.size > d:
        return None
    rows, cols = np.divmod(flat, d)
    if np.bincount(rows, minlength=d).max() > 1 or np.bincount(cols, minlength=d).max() > 1:
        return None
    values = m[rows, cols]
    if not np.isfinite(values).all():
        return None
    return rows, cols, values


# bounded: reparse asks for widths read from model text
@lru_cache(maxsize=16)
def _identity_form(d: int) -> tuple[np.ndarray, np.ndarray]:
    """0..d-1 and d ones, read-only: the identity's index form (index,
    index, ones), which the projectors, the terminal self-loop and the
    identity factor of a gate run are views of."""
    index, ones = np.arange(d, dtype=np.intp), np.ones(d, dtype=np.complex128)
    index.setflags(write=False)
    ones.setflags(write=False)
    return index, ones


class Superoperator:
    """The completely positive map rho -> M rho M^dagger of one matrix M,
    the only kind of map the model text writes.

    ``Superoperator(m)`` stores the dense matrix ``m`` as complex128 (no
    copy for complex128 input). :meth:`from_index` builds the map of a
    monomial matrix (a permutation times phases, a diagonal projector) from
    its index form alone; either keeps its form for life (see the module
    docstring for how ``matrix`` and ``monomial`` read each).

    Construction rejects input that is not a non-empty square 2-D matrix of
    finite entries; whether the map is physical is left to
    :func:`verify_row_stochasticity`.
    """

    __slots__ = ("_dense", "_index", "_dim", "_formed")

    def __init__(self, matrix: np.ndarray):
        try:
            m = np.asarray(matrix, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch("superoperator needs one numeric matrix") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise DimensionMismatch(
                f"superoperator needs a non-empty square matrix, got shape {m.shape}")
        check_finite(m, "superoperator matrix")
        self._dense, self._index, self._dim, self._formed = m, None, m.shape[0], None

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
    def _indexed(cls, d: int, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray) -> Superoperator:
        """The map of an index form with distinct rows, distinct columns and
        nonzero finite values (checked by :meth:`from_index`, or built so by
        the caller), stored canonically: entries put in row order when they
        are not in it already, and the three arrays marked read-only, so a
        form may be shared between maps. Rows are distinct, so the order is
        unique."""
        if rows.size > 1 and np.count_nonzero(rows[1:] < rows[:-1]):
            order = np.argsort(rows)
            rows, cols, values = rows[order], cols[order], values[order]
        for a in (rows, cols, values):
            if a.flags.writeable:  # a view of a read-only array is one already
                a.setflags(write=False)
        so = cls.__new__(cls)
        so._dense, so._index, so._dim, so._formed = None, (rows, cols, values), d, None
        return so

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix: the array the map was built from, or, for an
        index-built map, a read-only array formed from its form. The map
        keeps only a weak reference to that array: reads that overlap share
        it, so a caller holding every step's matrix holds one array per
        distinct map, and a read after every holder let go forms it anew."""
        if self._dense is not None:
            return self._dense
        m = None if self._formed is None else self._formed()
        if m is None:
            rows, cols, values = self._index
            m = np.zeros((self._dim, self._dim), dtype=np.complex128)
            m[rows, cols] = values
            m.setflags(write=False)
            self._formed = weakref.ref(m)
        return m

    def __getstate__(self):
        """The slots for pickle and copy, less the weak reference to a
        formed array, which is not part of the map and does not pickle."""
        return None, {"_dense": self._dense, "_index": self._index, "_dim": self._dim,
                      "_formed": None}

    @property
    def monomial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The index form (rows, cols, values), entries in row order, when
        the matrix has at most one nonzero per row and per column and all
        its nonzeros are finite; otherwise None. The stored form of an
        index-built map; one scan of the array of a map built from one, on
        every read, so a write into that array is never missed."""
        if self._dense is None:
            return self._index
        return _monomial_form(self._dense)

    def _nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat, values): the ascending row-major positions and the values
        of the nonzero entries, read from the index form of an index-built
        map (``rows * d + cols``, rows being in order) and by one scan of
        the array of any other. The constant pool keys a map on their bytes
        and writes its literal from them."""
        if self._dense is None:
            rows, cols, values = self._index
            return rows * self._dim + cols, values
        flat = np.flatnonzero(self._dense)
        return flat, self._dense.ravel()[flat]

    @property
    def kraus(self) -> tuple[np.ndarray]:
        """Read-only one-operator Kraus view, ``(matrix,)``."""
        return (self.matrix,)

    @property
    def dim(self) -> int:
        return self._dim

    def gram(self) -> np.ndarray:
        """M^dagger M."""
        m = self.matrix
        return m.conj().T @ m


@dataclass(frozen=True)
class Qmc:
    """A linear chain: ``steps`` joins s1..s{n+1}, ``branches[i]`` leads
    from s{n+1} to terminal t{i} (outcome index in binary gives the measured
    bits, wire 1 first).

    Construction checks 0 <= h <= k, the branch count and that every map
    has the register's dimension. ``states``, ``transitions`` and
    ``labeling`` are read-only views of the tuples; all terminal self-loops
    share one index-built identity superoperator.
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
        index, ones = _identity_form(2 ** self.k)
        loop = Superoperator._indexed(index.size, index, index, ones)
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
    index, ones = _identity_form(d)
    # projector i keeps the block of rows i * block .. (i + 1) * block - 1,
    # and every projector's values are one slice of the ones
    ones = ones[:block]
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
    the column norms of the forms. A row of one map whose form covers every
    row holds each column once, so it reads them from its values alone.
    Every other row forms its grams, and only such a row forms the
    identity. A step object shared by several positions is checked once.
    Returns one violation per offending state; an empty list certifies the
    chain. ``tol`` must be finite and >= 0.
    """
    check_tolerance(tol, "tol")

    def deviation(maps) -> float:
        if len(maps) == 1:
            form = maps[0].monomial
            if form is not None and form[0].size == maps[0].dim:
                # every column once, so each column's mass is one value's;
                # a value of exactly 1 has mass exactly 1
                values = form[2]
                if (values == 1).all():
                    return 0.0
                return float(np.max(np.abs((values.conj() * values).real - 1)))
            mass = None if form is None else _diagonal_mass(maps)
        else:
            mass = _diagonal_mass(maps)
        if mass is None:
            eye = np.eye(maps[0].dim, dtype=np.complex128)
            return float(np.max(np.abs(sum(so.gram() for so in maps) - eye)))
        return float(np.max(np.abs(mass - 1)))

    distinct = {id(so): so for so in q.steps}
    step_dev = {key: deviation((so,)) for key, so in distinct.items()}
    rows = [(f"s{i}", step_dev[id(so)]) for i, so in enumerate(q.steps, start=1)]
    rows.append((f"s{q.n + 1}", deviation(q.branches)))
    return [RowViolation(state, dev) for state, dev in rows if not dev <= tol]
