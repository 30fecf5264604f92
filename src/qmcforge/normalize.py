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
strategy sets only that count, not the matrices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .circuit import MEASURE, UNITARY, Circuit, topo_order, validate, wire_positions
from .errors import ValidationFailed
from .linalg import (_permute_indices, binary_swap, generalized_swap,
                     swap_decomposition, tensor)

__all__ = ["SnfCircuit", "SwapAccount", "translate"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SnfCircuit:
    """Strong normal form: k wires, a chain of full-width unitaries, and the
    first h positions measured.

    ``wire_map[w-1]`` records where original wire w ended up after the final
    measured-wires-first realignment (the identity map when none was needed).
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
    entry. ``total`` is always the sum of ``per_gate``.
    """

    per_gate: tuple[int, ...]
    total: int
    strategy: str


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


def _pad(base: np.ndarray, k: int) -> np.ndarray:
    """U x I: ``base`` on the leading wires of a k-wire register."""
    return tensor(base, np.eye(2 ** k // base.shape[0], dtype=np.complex128))


def _embed(base: np.ndarray, wires: tuple[int, ...], k: int) -> np.ndarray:
    """Full-register operator acting as ``base`` on ``wires``: P^-1 (U x I) P.

    P sends basis index j to idx[j], so entry (a, b) of the product is entry
    (idx[a], idx[b]) of U x I: one gather, no matrix product.
    """
    idx = _permute_indices(k, _route_perm(wires, k))
    return _pad(base, k)[np.ix_(idx, idx)]


def _grouped_payloads(c: Circuit, positions: dict[int, tuple[int, ...]]
                      ) -> list[list[tuple[np.ndarray, tuple[int, ...]]]]:
    """Split the gate sequence into maximal runs on pairwise-disjoint wires.

    Gates inside one run act simultaneously (they commute), so each run
    becomes a single chain step. Execution order across runs is preserved.
    """
    groups: list[list[tuple[np.ndarray, tuple[int, ...]]]] = []
    used: set[int] = set()
    current: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for nid in topo_order(c):
        node = c.nodes[nid]
        if node.kind != UNITARY:
            continue
        wires = positions[nid]
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
    problems = validate(c)
    if problems:
        raise ValidationFailed(problems)
    k = c.k
    positions = wire_positions(c)
    measured = tuple(sorted(positions[m][0] for m in c.nodes_of_kind(MEASURE)))
    h = len(measured)

    unitaries: list[np.ndarray] = []
    counts: list[int] = []
    for group in _grouped_payloads(c, positions):
        wires = tuple(w for _, gw in group for w in gw)
        gmat = tensor(*(base for base, _ in group))
        perm = _route_perm(wires, k)
        if emit_swaps_as_gates:
            steps = _routing_steps(perm, k, strategy)
            unitaries.extend(steps)
            unitaries.append(_pad(gmat, k))
            unitaries.extend(s.conj().T for s in reversed(steps))
        else:
            unitaries.append(_embed(gmat, wires, k))
        counts.append(len(swap_decomposition(perm, strategy)))

    wire_map = tuple(range(1, k + 1))
    if measured != tuple(range(1, h + 1)):
        wire_map = _route_perm(measured, k)
        if emit_swaps_as_gates:
            unitaries.extend(_routing_steps(wire_map, k, strategy))
        else:
            # fuse R into the last step: R @ U moves row j of U to row idx[j]
            last = unitaries.pop() if unitaries else np.eye(2 ** k, dtype=np.complex128)
            unitaries.append(last[np.argsort(_permute_indices(k, wire_map))])
        counts.append(len(swap_decomposition(wire_map, strategy)))

    account = SwapAccount(per_gate=tuple(counts), total=sum(counts), strategy=strategy)
    log.debug("snf: %d step(s), h=%d, %d binary swap(s) under %s",
              len(unitaries), h, account.total, strategy)
    return SnfCircuit(k=k, unitaries=tuple(unitaries), h=h, wire_map=wire_map), account


def _routing_steps(perm: tuple[int, ...], k: int, strategy: str) -> list[np.ndarray]:
    """The routing permutation as standalone unitary steps, in application
    order. Under "direct" the whole permutation is one step."""
    if list(perm) == list(range(1, k + 1)):
        return []
    if strategy == "direct":
        return [generalized_swap(perm, "direct")[0]]
    return [binary_swap(k, i, j) for (i, j) in swap_decomposition(perm, strategy)]

