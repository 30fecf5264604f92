"""Shared test utilities: random circuit generation and common fixtures."""

import numpy as np

from qmcforge import parse_circuit
from qmcforge.linalg import _permute_indices
from qmcforge.qmc import Qmc, Superoperator

SINGLE = ("I", "X", "Y", "Z", "H", "S", "T")
DOUBLE = ("CNOT", "CZ", "SWAP")
PARAM = ("RX", "RY", "RZ", "PHASE")


def random_circuit_text(rng, max_wires=4, max_gates=6):
    """Build a random well-formed circuit as source text.

    Wire count, gate list, and the measured subset are all drawn from the
    generator, so a seeded rng makes the circuit reproducible.
    """
    k = int(rng.integers(1, max_wires + 1))
    n_gates = int(rng.integers(1, max_gates + 1))
    lines = [f"qubits {k}"]
    for _ in range(n_gates):
        choice = rng.random()
        if k >= 3 and choice < 0.1:
            wires = rng.choice(k, size=3, replace=False) + 1
            lines.append(f"gate CCNOT {wires[0]} {wires[1]} {wires[2]}")
        elif k >= 2 and choice < 0.45:
            name = DOUBLE[int(rng.integers(len(DOUBLE)))]
            wires = rng.choice(k, size=2, replace=False) + 1
            lines.append(f"gate {name} {wires[0]} {wires[1]}")
        elif choice < 0.75:
            name = SINGLE[int(rng.integers(len(SINGLE)))]
            lines.append(f"gate {name} {int(rng.integers(1, k + 1))}")
        else:
            name = PARAM[int(rng.integers(len(PARAM)))]
            angle = float(rng.uniform(-np.pi, np.pi))
            lines.append(f"gate {name}({angle:.6f}) {int(rng.integers(1, k + 1))}")
    n_measured = int(rng.integers(0, k + 1))
    if n_measured:
        measured = sorted(rng.choice(k, size=n_measured, replace=False) + 1)
        lines.extend(f"measure {w}" for w in measured)
    return "\n".join(lines) + "\n"


def random_circuit(rng, max_wires=4, max_gates=6):
    return parse_circuit(random_circuit_text(rng, max_wires, max_gates))


def basis_state(k, index):
    v = np.zeros(2 ** k, dtype=np.complex128)
    v[index] = 1.0
    return v


def projector(h, k, i):
    """The dense projector onto outcome ``i`` of measuring the first h of k
    wires: |i><i| on the measured block, identity on the rest."""
    block = np.zeros((2 ** h, 2 ** h), dtype=np.complex128)
    block[i, i] = 1.0
    return np.kron(block, np.eye(2 ** (k - h), dtype=np.complex128))


def matrix_chain(k, h, steps, branches):
    """The chain of raw step and branch matrices, each wrapped densely."""
    return Qmc(k, h, tuple(map(Superoperator, steps)), tuple(map(Superoperator, branches)))


def permutation_matrix(k, perm):
    """The dense 0/1 matrix sending basis ket |j> to |idx[j]>, idx the
    basis-index map of the wire permutation ``perm``."""
    mat = np.zeros((2 ** k, 2 ** k), dtype=np.complex128)
    mat[_permute_indices(k, perm), np.arange(2 ** k)] = 1.0
    return mat


def swap_matrix(k, i, j):
    """The dense permutation matrix exchanging wires i and j."""
    perm = list(range(1, k + 1))
    perm[i - 1], perm[j - 1] = j, i
    return permutation_matrix(k, perm)


def nan_step_chain(q, value=np.nan, at=(0, 0)):
    """The one-wire, one-step, h=1 chain ``q`` with its step replaced by
    the identity with ``value`` written at ``at`` (by default [nan, 0; 0, 1]):
    for a non-finite value, a model no verifier may pass.

    Construction rejects non-finite matrices, so the chain is built around a
    finite identity step and the value is written into that step's array
    afterwards.
    """
    branches = [so.matrix for so in q.branches]
    chain = matrix_chain(1, 1, [np.eye(2, dtype=np.complex128)], branches)
    chain.steps[0].matrix[at] = value
    return chain
