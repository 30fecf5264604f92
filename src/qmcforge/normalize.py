"""Strong-normal-form rewriting of circuit graphs.

``translate`` turns a circuit into the tuple <k, [U1..Un], h> in one pass
over its gates. Maximal runs of gates on pairwise-disjoint wires collapse
into single steps (their simultaneous application). Each step is the run's
matrix padded to the full register: a gate U on wires (w1..wd) becomes
P^-1 (U tensor I) P, where P is the permutation that routes those wires to
the leading positions, gathered by permuted basis indices rather than
multiplied out. The routing is thus fused into the step matrix (or, behind a
flag, emitted as standalone swap steps), and one final permutation moves the
measured wires into the leading positions. A SwapAccount reports how many
binary swaps each routing decomposes into under the chosen strategy; the
strategy sets only that count, not the matrices. Equal padded gates and
standalone swap steps are built once per call and share one array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Node, placed
from .linalg import (_permutation_matrix, _permute_indices, binary_swap,
                     dagger, swap_decomposition, tensor)

__all__ = ["SnfCircuit", "SwapAccount", "translate"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SnfCircuit:
    """Strong normal form: k wires, a chain of full-width unitaries, and the
    first h positions measured.

    ``wire_map[w-1]`` records where original wire w ended up after the final
    measured-wires-first realignment (the identity map when none was needed).
    Positions holding the same matrix may hold the same array.
    """

    k: int
    unitaries: tuple[np.ndarray, ...]
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


def _grouped_payloads(gates: list[tuple[Node, tuple[int, ...]]]
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
        c: the circuit; ValidationFailed if it breaks a structural rule.
        strategy: how routing permutations are billed: "composed"
            (selection-sort binary swaps), "direct" (zero swap cost), or
            "naive-adjacent" (adjacent transpositions only). Fused step
            matrices do not depend on it; with ``emit_swaps_as_gates`` it
            also picks the standalone swap steps.
        emit_swaps_as_gates: emit each routing permutation as standalone
            swap steps around the padded gate instead of fusing it. The
            chain then grows with the swap count, which is exactly the
            state blow-up the fused form avoids.

    Returns:
        (SnfCircuit, SwapAccount). The account has one entry per step, plus
        a final entry when the measured wires had to be realigned.
    """
    gates, measured = placed(c)
    k, h = c.k, len(measured)

    unitaries: list[np.ndarray] = []
    counts: list[int] = []
    # identical steps share one array: a swap chain repeats few matrices
    made: dict[tuple, np.ndarray] = {}
    for group in _grouped_payloads(gates):
        wires = tuple(w for _, gw in group for w in gw)
        bases = tuple(base for base, _ in group)
        # U x I: the run's matrix on the leading wires of the register
        key = ("padded", len(wires), *((b.dtype.str, b.shape, b.tobytes()) for b in bases))
        padded = _once(made, key, tensor, *bases,
                       np.eye(2 ** (k - len(wires)), dtype=np.complex128))
        perm = _route_perm(wires, k)
        swaps = swap_decomposition(perm, strategy)
        counts.append(len(swaps))
        if emit_swaps_as_gates:
            steps = _routing_steps(perm, swaps, k, made)
            unitaries.extend(steps)
            unitaries.append(padded)
            # dagger's conj().T writes -0j entries that the pinned model
            # digests record; every step stays alive in made, so its id is a key
            unitaries.extend(_once(made, ("undo", id(s)), dagger, s) for s in reversed(steps))
        else:
            # P^-1 (U x I) P with P sending basis index j to idx[j]: entry
            # (a, b) is entry (idx[a], idx[b]) of U x I, one gather
            idx = _permute_indices(k, perm)
            unitaries.append(padded[np.ix_(idx, idx)])

    wire_map = tuple(range(1, k + 1))
    if measured != tuple(range(1, h + 1)):
        wire_map = _route_perm(measured, k)
        swaps = swap_decomposition(wire_map, strategy)
        counts.append(len(swaps))
        if emit_swaps_as_gates:
            unitaries.extend(_routing_steps(wire_map, swaps, k, made))
        else:
            # fuse R into the last step: R @ U moves row j of U to row idx[j]
            last = unitaries.pop() if unitaries else np.eye(2 ** k, dtype=np.complex128)
            unitaries.append(last[np.argsort(_permute_indices(k, wire_map))])

    account = SwapAccount(per_gate=tuple(counts), strategy=strategy)
    log.debug("snf: %d step(s), h=%d, %d binary swap(s) under %s",
              len(unitaries), h, account.total, strategy)
    return SnfCircuit(k=k, unitaries=tuple(unitaries), h=h, wire_map=wire_map), account


def _once(made: dict, key: tuple, build, *args) -> np.ndarray:
    """``made[key]``, built as ``build(*args)`` on first use."""
    if key not in made:
        made[key] = build(*args)
    return made[key]


def _routing_steps(perm: tuple[int, ...], swaps: list[tuple[int, int]],
                   k: int, made: dict | None = None) -> list[np.ndarray]:
    """The routing permutation as standalone unitary steps, in application
    order: one binary swap per entry of its decomposition ``swaps``; when
    that is empty, none for the identity and otherwise ("direct") the whole
    permutation as one step. Steps already in ``made`` are reused, new
    ones are added to it."""
    made = {} if made is None else made
    if swaps:
        return [_once(made, ("swap", i, j), binary_swap, k, i, j) for i, j in swaps]
    if list(perm) == list(range(1, k + 1)):
        return []
    return [_once(made, ("perm", tuple(perm)), _permutation_matrix, k, perm)]
