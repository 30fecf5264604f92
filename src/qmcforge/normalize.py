"""Strong-normal-form rewriting of circuit graphs.

``translate`` turns a circuit into the tuple <k, [U1..Un], h> in one pass
over its gates, each step a chain map (:class:`~qmcforge.qmc.Superoperator`).
Maximal runs of gates on pairwise-disjoint wires collapse into single steps
(their simultaneous application). Each step is the run's matrix padded to
the full register: a gate U on wires (w1..wd) becomes P^-1 (U tensor I) P,
where P is the permutation that routes those wires to the leading
positions. The routing is thus fused into the step (or, behind a flag,
emitted as standalone swap steps), and one final permutation moves the
measured wires into the leading positions. A SwapAccount reports how many
binary swaps each routing decomposes into under the chosen strategy; the
strategy sets only that count, not the steps.

Every permutation is index arithmetic. A run whose gate matrices are all
monomial (at most one nonzero per row and per column: X, Y, Z, S, T,
PHASE, RZ, CNOT, CZ, SWAP, CCNOT and their combinators) becomes an
index-built step, with no 2^k x 2^k array formed:

* U tensor I is the kron of the gates' index forms and the identity's,
  its values multiplied in ``np.kron``'s left-fold order;
* the fused gather P^-1 (U tensor I) P relabels rows and columns by the
  inverse of P's basis-index map, the realignment relabels rows;
* a routing swap or permutation is its basis-index map, and its undo (the
  dagger) is (cols, rows, conj(values)).

Each form is handed to :meth:`Superoperator._indexed
<qmcforge.qmc.Superoperator._indexed>`, which puts it in row order.

Only a run holding a gate with two nonzeros in a row or column (H, RX, RY)
is formed dense, as ``tensor`` gathered by permuted basis indices.

The dense arrays this arithmetic stands for hold signed zeros in places (an
undo's conj writes ``-0j``; -1 times a zero of the identity is -0), which
the emitted constant partition depends on, so such a step carries the
function that forms its exact array (see :class:`~qmcforge.qmc.Superoperator`).
Equal padded runs, fused steps, swaps and undos are built once per call and
shared.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Node
from .linalg import _permute_indices, dagger, swap_decomposition, tensor
from .qmc import Superoperator, _map_census

__all__ = ["SnfCircuit", "SwapAccount", "translate"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SnfCircuit:
    """Strong normal form: k wires, a chain of full-width unitary steps, and
    the first h positions measured.

    ``wire_map[w-1]`` records where original wire w ended up after the final
    measured-wires-first realignment (the identity map when none was needed).
    Positions holding the same matrix may hold the same map.
    """

    k: int
    unitaries: tuple[Superoperator, ...]
    h: int
    wire_map: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.unitaries)


@dataclass(frozen=True)
class SwapAccount:
    """Binary-swap synthesis cost, one entry per emitted step.

    When a measured-wire realignment was required it contributes the final
    entry.
    """

    per_gate: tuple[int, ...]
    strategy: str

    @property
    def total(self) -> int:
        return sum(self.per_gate)


def _route_perm(wires: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Permutation sending wires[j] to position j+1, stable on the rest."""
    perm = [0] * k
    for j, w in enumerate(wires, start=1):
        perm[w - 1] = j
    nxt = len(wires) + 1
    for w in range(1, k + 1):
        if perm[w - 1] == 0:
            perm[w - 1] = nxt
            nxt += 1
    return tuple(perm)


def _grouped_payloads(gates: tuple[tuple[Node, tuple[int, ...]], ...]
                      ) -> list[list[tuple[np.ndarray, tuple[int, ...]]]]:
    """Split the gate sequence into maximal runs on pairwise-disjoint wires.

    Gates inside one run act simultaneously (they commute), so each run
    becomes a single chain step. Execution order across runs is preserved.
    """
    groups: list[list[tuple[np.ndarray, tuple[int, ...]]]] = []
    used: set[int] = set()
    current: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for node, wires in gates:
        if current and (used & set(wires)):
            groups.append(current)
            current, used = [], set()
        current.append((node.matrix, wires))
        used |= set(wires)
    if current:
        groups.append(current)
    return groups


def translate(c: Circuit, strategy: str = "composed",
              emit_swaps_as_gates: bool = False) -> tuple[SnfCircuit, SwapAccount]:
    """Rewrite a circuit into <k, [U1..Un], h> plus its swap bill.

    Args:
        c: the circuit, read through its placement (``c.gates``, ``c.measured``).
        strategy: how routing permutations are billed: "composed"
            (selection-sort binary swaps), "direct" (zero swap cost), or
            "naive-adjacent" (adjacent transpositions only). Fused steps
            do not depend on it; with ``emit_swaps_as_gates`` it also picks
            the standalone swap steps.
        emit_swaps_as_gates: emit each routing permutation as standalone
            swap steps around the padded gate instead of fusing it. The
            chain then grows with the swap count, which is exactly the
            state blow-up the fused form avoids.

    Returns:
        (SnfCircuit, SwapAccount). The account has one entry per step, plus
        a final entry when the measured wires had to be realigned.
    """
    k, h = c.k, len(c.measured)

    unitaries: list[Superoperator] = []
    counts: list[int] = []
    # identical steps share one map: a swap chain repeats few matrices
    made: dict[tuple, Superoperator] = {}
    for group in _grouped_payloads(c.gates):
        wires = tuple(w for _, gw in group for w in gw)
        bases = tuple(np.asarray(base, dtype=np.complex128) for base, _ in group)
        key = ("padded", len(wires), *(b.tobytes() for b in bases))
        # U x I: the run's matrix on the leading wires of the register
        padded = _once(made, key, _padded, bases, k)
        perm = _route_perm(wires, k)
        swaps = swap_decomposition(perm, strategy)
        counts.append(len(swaps))
        if emit_swaps_as_gates:
            steps = _routing_steps(perm, swaps, k, made)
            unitaries.extend(steps)
            unitaries.append(padded)
            # every step stays alive in made, so its id is a key
            unitaries.extend(_once(made, ("undo", id(s)), _undo, s) for s in reversed(steps))
        else:
            unitaries.append(_once(made, ("fused", key, perm), _gather, padded, k, perm))

    wire_map = tuple(range(1, k + 1))
    if c.measured != tuple(range(1, h + 1)):
        wire_map = _route_perm(c.measured, k)
        swaps = swap_decomposition(wire_map, strategy)
        counts.append(len(swaps))
        if emit_swaps_as_gates:
            unitaries.extend(_routing_steps(wire_map, swaps, k, made))
        else:
            # fuse R into the last step: R @ U moves row j of U to row idx[j]
            unitaries.append(_realigned(unitaries.pop() if unitaries else None, k, wire_map))

    account = SwapAccount(per_gate=tuple(counts), strategy=strategy)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("translate: k=%d, h=%d, %d step(s), %s; %d binary swap(s) under %s",
                  k, h, len(unitaries), _map_census(unitaries), account.total, strategy)
    return SnfCircuit(k=k, unitaries=tuple(unitaries), h=h, wire_map=wire_map), account


def _once(made: dict, key: tuple, build, *args) -> Superoperator:
    """``made[key]``, built as ``build(*args)`` on first use."""
    if key not in made:
        made[key] = build(*args)
    return made[key]


def _gate_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The index form of a gate matrix, rows ascending; None when a row or
    a column holds two nonzeros."""
    rows, cols = np.nonzero(m)
    if len(set(rows.tolist())) < rows.size or len(set(cols.tolist())) < cols.size:
        return None
    return rows, cols, m[rows, cols]


def _padded(bases: tuple[np.ndarray, ...], k: int) -> Superoperator:
    """``tensor(*bases, I)`` on the k-wire register, index-built when every
    base is monomial."""
    eye = 2 ** k // int(np.prod([b.shape[0] for b in bases]))

    def dense() -> np.ndarray:
        return tensor(*bases, np.eye(eye, dtype=np.complex128))

    forms = [_gate_form(b) for b in bases]
    if any(form is None for form in forms):
        return Superoperator(dense())
    span = np.arange(eye)
    rows, cols, values = forms[0]
    # the kron of two forms pairs every entry of the left with every entry
    # of the right, left-major, and multiplies their values elementwise as
    # np.kron does: a broadcast of the left values over the right ones
    for (r, c, v), n in zip([*forms[1:], (span, span, np.ones(eye, dtype=np.complex128))],
                            [*(b.shape[0] for b in bases[1:]), eye]):
        rows = (rows[:, None] * n + r).ravel()
        cols = (cols[:, None] * n + c).ravel()
        values = (values[:, None] * v).ravel()
    # entries with real part >= +0 and imaginary part 0 multiply only into
    # such entries, and then every zero of the dense array is +0; otherwise
    # some zero may be signed
    plain = not any(np.signbit(b.real).any() or b.imag.any() for b in bases)
    return Superoperator._indexed(2 ** k, rows, cols, values, None if plain else dense)


def _gather(padded: Superoperator, k: int, perm: tuple[int, ...]) -> Superoperator:
    """P^-1 (U x I) P with P sending basis index j to idx[j]: entry (a, b)
    is entry (idx[a], idx[b]) of U x I, so an entry at (r, c) moves to
    (inv[r], inv[c])."""
    idx = _permute_indices(k, perm)
    if padded._dense is not None:
        return Superoperator(padded.matrix[np.ix_(idx, idx)])
    inv = np.argsort(idx)
    rows, cols, values = padded.monomial
    exact = padded._exact and (lambda: padded._form()[np.ix_(idx, idx)])
    return Superoperator._indexed(2 ** k, inv[rows], inv[cols], values, exact)


def _realigned(last: Superoperator | None, k: int,
               wire_map: tuple[int, ...]) -> Superoperator:
    """R @ ``last`` (the identity when None), R the realignment by
    ``wire_map``: row j of ``last`` moves to row idx[j]."""
    if last is None:
        return _permutation(k, wire_map)
    idx = _permute_indices(k, wire_map)
    if last._dense is not None:
        return Superoperator(last.matrix[np.argsort(idx)])
    rows, cols, values = last.monomial
    exact = last._exact and (lambda: last._form()[np.argsort(idx)])
    return Superoperator._indexed(2 ** k, idx[rows], cols, values, exact)


def _permutation(k: int, perm: tuple[int, ...]) -> Superoperator:
    """The 0/1 map sending basis ket |j> to |idx[j]>, idx the basis-index
    map of the wire permutation ``perm``."""
    idx = _permute_indices(k, perm)
    ones = np.ones(2 ** k, dtype=np.complex128)
    return Superoperator._indexed(2 ** k, idx, np.arange(2 ** k), ones)


def _undo(step: Superoperator) -> Superoperator:
    """The dagger of an index-built routing step: (cols, rows, conj(values)).
    Its dense array, the conj().T of the step's, holds -0j in every entry."""
    rows, cols, values = step.monomial
    return Superoperator._indexed(step.dim, cols, rows, values.conj(), lambda: dagger(step._form()))


def _routing_steps(perm: tuple[int, ...], swaps: list[tuple[int, int]],
                   k: int, made: dict | None = None) -> list[Superoperator]:
    """The routing permutation as standalone unitary steps, in application
    order: one binary swap per entry of its decomposition ``swaps``; when
    that is empty, none for the identity and otherwise ("direct") the whole
    permutation as one step. Steps already in ``made`` are reused, new
    ones are added to it."""
    made = {} if made is None else made
    if swaps:
        return [_once(made, ("swap", i, j), _permutation, k, _transposition(k, i, j))
                for i, j in swaps]
    if list(perm) == list(range(1, k + 1)):
        return []
    return [_once(made, ("perm", tuple(perm)), _permutation, k, perm)]


def _transposition(k: int, i: int, j: int) -> tuple[int, ...]:
    """The wire permutation exchanging wires i and j."""
    perm = list(range(1, k + 1))
    perm[i - 1], perm[j - 1] = j, i
    return tuple(perm)
