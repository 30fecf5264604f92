"""Dense complex linear algebra for register-sized operators.

Conventions
-----------
All matrices are numpy ``complex128`` arrays. A k-wire register lives in a
2^k dimensional space where wire 1 is the most significant tensor factor:
the basis ket |b1 b2 ... bk> sits at row index ``int("b1b2...bk", 2)``.
Kets are 1-D arrays under the same indexing.

Permutations of wires are given as 1-based maps ``perm`` with ``perm[i-1]``
the destination position of wire i.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, NonSquare, NotAPermutation, WireOutOfRange

__all__ = [
    "tensor",
    "dagger",
    "is_unitary",
    "binary_swap",
    "swap_decomposition",
    "basis_ket",
    "require_square",
    "check_finite",
]


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def require_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``a`` as complex128, raising NonSquare unless it is n x n."""
    m = _as_complex(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"{what} has shape {m.shape}, expected square")
    return m


def check_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Reject NaN/inf entries; they silently poison everything downstream."""
    m = _as_complex(a)
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise DimensionMismatch(f"{what} contains non-finite entries")
    return m


def basis_ket(index: int, dim: int) -> np.ndarray:
    """Computational basis ket |index> in a ``dim``-dimensional space."""
    if not 0 <= index < dim:
        raise DimensionMismatch(f"basis index {index} outside 0..{dim - 1}")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or kets), left factor most
    significant.

    Examples
    --------
    tensor(X, I) maps |00> to |10>: the left factor acts on wire 1.
    """
    if not ops:
        raise DimensionMismatch("tensor() needs at least one operand")
    out = _as_complex(ops[0])
    for op in ops[1:]:
        out = np.kron(out, _as_complex(op))
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return _as_complex(a).conj().T


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL.algebraic) -> bool:
    """True when a^dagger a = I within ``tol`` (max-norm)."""
    m = require_square(a, "is_unitary operand")
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) <= tol)


def _check_wire(k: int, w: int) -> None:
    if not 1 <= w <= k:
        raise WireOutOfRange(f"wire {w} outside 1..{k}")


def _permute_indices(k: int, perm: Sequence[int]) -> np.ndarray:
    """For each basis index, the index after moving wire i's bit to perm[i-1]."""
    idx = np.arange(2 ** k, dtype=np.int64)
    out = np.zeros_like(idx)
    for wire in range(1, k + 1):
        src_shift = k - wire
        dst_shift = k - perm[wire - 1]
        out |= ((idx >> src_shift) & 1) << dst_shift
    return out


def _permutation_matrix(k: int, perm: Sequence[int]) -> np.ndarray:
    """0/1 matrix sending basis ket |j> to |_permute_indices(k, perm)[j]>."""
    dim = 2 ** k
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[_permute_indices(k, perm), np.arange(dim)] = 1.0
    return mat


def binary_swap(k: int, i: int, j: int) -> np.ndarray:
    """2^k x 2^k permutation matrix exchanging wires i and j.

    Self-inverse and equal to its own dagger.
    """
    _check_wire(k, i)
    _check_wire(k, j)
    perm = list(range(1, k + 1))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return _permutation_matrix(k, perm)


def swap_decomposition(perm: Sequence[int], strategy: str = "composed") -> list[tuple[int, int]]:
    """Transpositions whose product realizes ``perm``, in application order.

    ``composed`` uses selection sort (at most k-1 swaps of arbitrary wire
    pairs); ``naive-adjacent`` uses bubble sort (adjacent pairs only, up to
    k(k-1)/2 swaps, one per inversion). ``direct`` decomposes nothing and
    returns the empty list.
    """
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise NotAPermutation(f"{tuple(perm)} is not a permutation of 1..{k}")
    if strategy == "direct":
        return []
    if strategy not in ("composed", "naive-adjacent"):
        raise NotAPermutation(f"unknown swap strategy {strategy!r}")

    # arrangement[p-1] = wire whose bit currently sits at position p
    arrangement = list(range(1, k + 1))
    position = {w: w for w in arrangement}
    swaps: list[tuple[int, int]] = []

    def do_swap(p: int, q: int) -> None:
        wp, wq = arrangement[p - 1], arrangement[q - 1]
        arrangement[p - 1], arrangement[q - 1] = wq, wp
        position[wp], position[wq] = q, p
        swaps.append((p, q))

    if strategy == "composed":
        inverse = {perm[w - 1]: w for w in range(1, k + 1)}
        for p in range(1, k + 1):
            q = position[inverse[p]]
            if q != p:
                do_swap(p, q)
    else:
        # one adjacent swap per inversion of the destination sequence
        changed = True
        while changed:
            changed = False
            for p in range(1, k):
                if perm[arrangement[p - 1] - 1] > perm[arrangement[p] - 1]:
                    do_swap(p, p + 1)
                    changed = True
    return swaps

