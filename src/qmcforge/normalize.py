"""Strong-normal-form rewriting of circuit graphs.

``translate`` turns a circuit into the tuple <k, [U1..Un], h> in one pass
over its gates, each step a chain map (:class:`~qmcforge.qmc.Superoperator`).
Maximal runs of gates on pairwise-disjoint wires collapse into single steps
(their simultaneous application). Every step has one shape, R P^-1 (U x I)
P: the run's matrix U tensored with the identity on the other wires, P the
permutation that routes the run's wires to the leading positions, and R
the realignment that moves the measured wires to the leading positions
(the identity on every step but the last). The routing is thus fused into
the step; behind a flag it is emitted as standalone swap steps instead,
each the identity run under R, and undone by their daggers. A SwapAccount
reports how many binary swaps each routing decomposes into under the chosen
strategy; the strategy sets only that count, not the fused steps.

Two functions build every step. ``_run`` forms U x I once per distinct
run; it is never a map itself. ``_step`` places it between the
permutations as one map, the only one built for that step. A run whose
gate matrices are all monomial (at most one nonzero per row and per
column: X, Y, Z, S, T, PHASE, RZ, CNOT, CZ, SWAP, CCNOT and their
combinators) is an index form, with no 2^k x 2^k array formed:

* U x I is the kron of the gates' index forms and the identity's, its
  values multiplied in ``np.kron``'s left-fold order;
* P^-1 (U x I) P relabels rows and columns by the inverse of P's
  basis-index map, and R relabels rows by its own, in one pass;
* the dagger of a routing step is (cols, rows, conj(values)) (``_undo``).

Each form is handed to :meth:`Superoperator._indexed
<qmcforge.qmc.Superoperator._indexed>`, which puts it in row order.

Only a run holding a gate with two nonzeros in a row or column (H, RX, RY)
is formed dense, as ``tensor``, and its step is one ``np.ix_`` gather of
it by permuted basis indices.

A gate matrix's index form comes from ``qmc._monomial_form``, the scan
reparse also reads a token-read literal with. The constant pool keys a
step on its nonzeros, which an index-built step reads from its form (see
:mod:`qmcforge.qmc`). Within one call each distinct run, step and undo is
built once and shared, so every map built is a step of the chain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Node
from .linalg import _permute_indices, swap_decomposition, tensor
from .qmc import Superoperator, _identity_form, _map_census, _monomial_form

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
    realign = c.measured != tuple(range(1, h + 1))
    wire_map = _route_perm(c.measured, k) if realign else tuple(range(1, k + 1))
    groups = _grouped_payloads(c.gates)

    unitaries: list[Superoperator] = []
    counts: list[int] = []
    # equal runs and equal steps are built once: a swap chain repeats few matrices
    made: dict[tuple, object] = {}
    for n, group in enumerate(groups, start=1):
        bases = tuple(np.asarray(base, dtype=np.complex128) for base, _ in group)
        perm = _route_perm(tuple(w for _, gw in group for w in gw), k)
        swaps = swap_decomposition(perm, strategy)
        counts.append(len(swaps))
        key = tuple(b.tobytes() for b in bases)
        if emit_swaps_as_gates:
            steps = _routing_steps(perm, swaps, k, made)
            # every step stays alive in made, so its id is a key
            unitaries += [*steps, _built(made, key, bases, k, None, None),
                          *(_once(made, ("undo", id(s)), _undo, s) for s in reversed(steps))]
        else:
            # the realignment is fused into the last step
            out = wire_map if realign and n == len(groups) else None
            unitaries.append(_built(made, key, bases, k, perm, out))

    if realign:
        swaps = swap_decomposition(wire_map, strategy)
        counts.append(len(swaps))
        if emit_swaps_as_gates:
            unitaries.extend(_routing_steps(wire_map, swaps, k, made))
        elif not groups:
            unitaries.append(_step(_run((), k), k, None, wire_map))

    account = SwapAccount(per_gate=tuple(counts), strategy=strategy)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("translate: k=%d, h=%d, %d step(s), %s; %d binary swap(s) under %s",
                  k, h, len(unitaries), _map_census(unitaries), account.total, strategy)
    return SnfCircuit(k=k, unitaries=tuple(unitaries), h=h, wire_map=wire_map), account


def _once(made: dict, key: tuple, build, *args):
    """``made[key]``, built as ``build(*args)`` on first use."""
    if key not in made:
        made[key] = build(*args)
    return made[key]


def _built(made: dict, key: tuple, bases: tuple[np.ndarray, ...], k: int,
           perm: tuple[int, ...] | None, out: tuple[int, ...] | None) -> Superoperator:
    """The step of the run ``bases`` routed by ``perm`` and realigned by
    ``out`` (:func:`_step`), kept in ``made`` under (key, perm, out) and its
    run under ``key``, the bases' bytes; each is built on first use."""
    step = made.get((key, perm, out))
    if step is None:
        step = made[key, perm, out] = _step(_once(made, key, _run, bases, k), k, perm, out)
    return step


def _run(bases: tuple[np.ndarray, ...], k: int):
    """U x I, ``tensor(*bases, I)`` on the k-wire register (the identity
    when there are no bases): its index form (rows, cols, values) when every
    base is monomial, else the dense array."""
    # a base on m wires is 2^m square, and the identity spans the other wires
    eye = 2 ** k >> sum(b.shape[0].bit_length() - 1 for b in bases)
    span, ones = _identity_form(eye)
    forms = [*map(_monomial_form, bases), (span, span, ones)]
    if any(form is None for form in forms):
        return tensor(*bases, np.eye(eye, dtype=np.complex128))
    rows, cols, values = forms[0]
    # the kron of two forms pairs every entry of the left with every entry
    # of the right, left-major, and multiplies their values elementwise as
    # np.kron does: a broadcast of the left values over the right ones
    for (r, c, v), n in zip(forms[1:], [*(b.shape[0] for b in bases[1:]), eye]):
        rows = (rows[:, None] * n + r).ravel()
        cols = (cols[:, None] * n + c).ravel()
        values = (values[:, None] * v).ravel()
    return rows, cols, values


def _step(run, k: int, perm: tuple[int, ...] | None,
          out: tuple[int, ...] | None) -> Superoperator:
    """R P^-1 (U x I) P as one map, ``run`` being U x I (:func:`_run`), P
    the routing by ``perm`` and R the realignment by ``out``, each None for
    the identity.

    P sends basis index j to idx[j], so entry (a, b) of P^-1 (U x I) P is
    entry (idx[a], idx[b]) of U x I: an entry at (r, c) moves to
    (inv[r], inv[c]), inv = argsort(idx). R then moves row j to row at[j],
    at being the basis-index map of ``out``. An index form is relabelled
    once and a dense array gathered by one ``np.ix_``; with neither
    permutation the run itself is the step."""
    if isinstance(run, np.ndarray):
        if perm is None and out is None:
            return Superoperator(run)
        idx = np.arange(2 ** k) if perm is None else _permute_indices(k, perm)
        rows = idx if out is None else idx[np.argsort(_permute_indices(k, out))]
        return Superoperator(run[np.ix_(rows, idx)])
    rows, cols, values = run
    if perm is not None:
        inv = np.argsort(_permute_indices(k, perm))
        rows, cols = inv[rows], inv[cols]
    if out is not None:
        rows = _permute_indices(k, out)[rows]
    return Superoperator._indexed(2 ** k, rows, cols, values)


def _undo(step: Superoperator) -> Superoperator:
    """The dagger of an index-built routing step: (cols, rows, conj(values))."""
    rows, cols, values = step.monomial
    return Superoperator._indexed(step.dim, cols, rows, values.conj())


def _routing_steps(perm: tuple[int, ...], swaps: list[tuple[int, int]],
                   k: int, made: dict | None = None) -> list[Superoperator]:
    """The routing permutation as standalone unitary steps, in application
    order: one binary swap per entry of its decomposition ``swaps``; when
    that is empty, none for the identity and otherwise ("direct") the whole
    permutation as one step. Each is the identity run realigned by its
    permutation; steps already in ``made`` are reused, new ones are added
    to it."""
    made = {} if made is None else made
    if swaps:
        return [_built(made, (), (), k, None, _transposition(k, i, j)) for i, j in swaps]
    identity = list(perm) == list(range(1, k + 1))
    return [] if identity else [_built(made, (), (), k, None, tuple(perm))]


def _transposition(k: int, i: int, j: int) -> tuple[int, ...]:
    """The wire permutation exchanging wires i and j."""
    perm = list(range(1, k + 1))
    perm[i - 1], perm[j - 1] = j, i
    return tuple(perm)
