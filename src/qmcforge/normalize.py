"""Normal-form and strong-normal-form rewriting of circuit graphs.

``to_normal_form`` widens every gate to act on the full register: a gate U on
wires (w1..wd) becomes P^-1 (U tensor I) P, where P is the permutation that
routes those wires to the leading positions, gathered by permuted basis
indices rather than multiplied out. The resulting circuit is a
straight-wired chain of full-width unitaries; each padded node remembers its
original footprint and matrix.

``to_snf`` flattens such a chain into the tuple <k, [U1..Un], h>: maximal
runs of gates on pairwise-disjoint wires collapse into single steps (their
simultaneous application), wire-routing permutations are fused into the
step matrices (or, behind a flag, emitted as standalone swap gates), and one
final permutation moves the measured wires into the leading positions. A
SwapAccount reports how many binary swaps each routing decomposes into under
the chosen strategy; the strategy sets only that count, not the matrices.
``translate`` builds the same result straight from the source gates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .circuit import (MEASURE, QUBIT, TERMINATE, UNITARY, Circuit, Edge, Node,
                      chain_circuit, topo_order, validate, wire_positions)
from .errors import NotNormalForm, ValidationFailed
from .linalg import (_permute_indices, binary_swap, generalized_swap,
                     swap_decomposition, tensor)

__all__ = ["SnfCircuit", "SwapAccount", "to_normal_form", "to_snf",
           "translate", "snf_to_circuit"]

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


def _gate_payload(c: Circuit, nid: int,
                  positions: dict[int, tuple[int, ...]]) -> tuple[np.ndarray, tuple[int, ...], str]:
    """(original matrix, occupied positions, label) for a unitary node."""
    node = c.nodes[nid]
    if node.footprint is not None and node.base is not None:
        return node.base, node.footprint, node.label
    return node.matrix, positions[nid], node.label


def _require_valid(c: Circuit) -> None:
    problems = validate(c)
    if problems:
        raise ValidationFailed(problems)


def to_normal_form(c: Circuit) -> Circuit:
    """Pad every gate to full register width; straighten the wiring.

    Gate count, order, and semantics are preserved. Idempotent: running it
    on its own output changes nothing.
    """
    _require_valid(c)
    positions = wire_positions(c)
    measured = tuple(sorted(positions[m][0] for m in c.nodes_of_kind(MEASURE)))

    nodes: dict[int, Node] = {}
    edges: list[Edge] = []
    next_id = 1
    frontier: list[tuple[int, int]] = []
    for _ in range(c.k):
        nodes[next_id] = Node(QUBIT)
        frontier.append((next_id, 1))
        next_id += 1
    for nid in topo_order(c):
        if c.nodes[nid].kind != UNITARY:
            continue
        base, wires, label = _gate_payload(c, nid, positions)
        wide = _embed(base, wires, c.k)
        nodes[next_id] = Node(UNITARY, dim=c.k, matrix=wide, label=label,
                              footprint=wires, base=base)
        for w in range(c.k):
            src, s_label = frontier[w]
            edges.append(Edge(src, next_id, s_label, w + 1))
            frontier[w] = (next_id, w + 1)
        next_id += 1
    for w in range(1, c.k + 1):
        kind = MEASURE if w in measured else TERMINATE
        nodes[next_id] = Node(kind)
        src, s_label = frontier[w - 1]
        edges.append(Edge(src, next_id, s_label, 1))
        next_id += 1
    return Circuit(k=c.k, nodes=nodes, edges=tuple(edges))


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
        if c.nodes[nid].kind != UNITARY:
            continue
        base, wires, _ = _gate_payload(c, nid, positions)
        if current and (used & set(wires)):
            groups.append(current)
            current, used = [], set()
        current.append((base, wires))
        used |= set(wires)
    if current:
        groups.append(current)
    return groups


def to_snf(c: Circuit, strategy: str = "composed",
           emit_swaps_as_gates: bool = False) -> tuple[SnfCircuit, SwapAccount]:
    """Flatten a normal-form circuit into <k, [U1..Un], h> plus its swap bill.

    Args:
        c: circuit whose unitaries all have dim = k (NotNormalForm otherwise).
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
    _require_valid(c)
    for nid, node in c.nodes.items():
        if node.kind == UNITARY and node.dim != c.k:
            raise NotNormalForm(f"node {nid} has dim {node.dim}, register has {c.k}")
    return _snf(c, strategy, emit_swaps_as_gates)


def _snf(c: Circuit, strategy: str,
         emit_swaps_as_gates: bool) -> tuple[SnfCircuit, SwapAccount]:
    """Strong normal form of a valid circuit. Gates are read through
    ``_gate_payload``, so a normal form and its source circuit agree."""
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


def translate(c: Circuit, strategy: str = "composed",
              emit_swaps_as_gates: bool = False) -> tuple[SnfCircuit, SwapAccount]:
    """Full rewriting pipeline, ``to_snf(to_normal_form(c), ...)``, read
    straight from the source gates: validates once, pads no gate in advance."""
    _require_valid(c)
    return _snf(c, strategy, emit_swaps_as_gates)


def snf_to_circuit(s: SnfCircuit) -> Circuit:
    """The chain circuit a strong-normal-form tuple denotes."""
    return chain_circuit(s.k, list(s.unitaries),
                         measured=tuple(range(1, s.h + 1)))
