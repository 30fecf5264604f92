"""Seeded workload generators. The program only ever sees the circuit text.

Circuit text comes from ``random.Random(seed)``, whose integer stream is
stable across Python versions, so a seed names the same bytes everywhere
and the emitted-model digests in ``digests.json`` stay meaningful. Random
battery kets come from ``numpy.random.default_rng(seed)``; they steer the
checks, not the emitted models.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Case:
    """One circuit the benchmark sends: its text, the kets it is checked
    on, and for the CNOT cycles the (control, target) gate list that the
    XOR reference replays."""

    text: str
    battery: tuple[np.ndarray, ...]
    cnots: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class Workload:
    strategy: str
    swaps_as_gates: bool
    cases: tuple[Case, ...]


def cnot_cycle(k: int, rng: random.Random,
               measure_all: bool) -> tuple[str, tuple[tuple[int, int], ...]]:
    """The ``gen_test_circuit`` CNOT cycle on k wires, wires relabelled by a
    seeded permutation.

    The wire walk uses the largest stride up to k/2 coprime to k; gate i is
    ``CNOT walk[i+1] walk[i]`` (control first), so consecutive gates share
    a wire and every gate needs a rearrangement. Relabelling keeps that
    shape and changes which wires the router has to move.
    """
    stride = max(s for s in range(1, k // 2 + 1) if math.gcd(s, k) == 1)
    walk = [(i * stride) % k + 1 for i in range(k + 1)]
    label = list(range(1, k + 1))
    rng.shuffle(label)
    cnots = tuple((label[walk[i + 1] - 1], label[walk[i] - 1]) for i in range(k))
    lines = [f"qubits {k}"]
    lines += [f"gate CNOT {a} {b}" for a, b in cnots]
    if measure_all:
        lines += [f"measure {w}" for w in range(1, k + 1)]
    return "\n".join(lines) + "\n", cnots


def basis_battery(k: int) -> tuple[np.ndarray, ...]:
    eye = np.eye(2 ** k, dtype=np.complex128)
    return tuple(eye[:, i].copy() for i in range(2 ** k))


def random_battery(k: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Normalized complex Gaussian kets."""
    out = []
    for _ in range(count):
        v = rng.standard_normal(2 ** k) + 1j * rng.standard_normal(2 ** k)
        out.append(v / np.linalg.norm(v))
    return tuple(out)


def _cycle_workload(seed: int, k: int, measure_all: bool,
                    strategy: str, swaps_as_gates: bool, kets: int | None) -> Workload:
    text, cnots = cnot_cycle(k, random.Random(seed), measure_all)
    battery = (basis_battery(k) if kets is None
               else random_battery(k, kets, np.random.default_rng(seed)))
    return Workload(strategy, swaps_as_gates, (Case(text, battery, cnots),))


def build(name: str, seed: int) -> Workload:
    if name == "measured":
        return _cycle_workload(seed, 6, True, "composed", False, kets=None)
    if name == "long-chain":
        return _cycle_workload(seed, 7, False, "naive-adjacent", True, kets=4)
    raise ValueError(f"unknown workload {name!r}")
