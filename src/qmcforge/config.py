"""Numeric tolerances used across the pipeline.

Tolerances are configuration, not magic numbers sprinkled through the code:
algebraic identities (unitarity, completeness, daggers) are held to 1e-12,
end-to-end pipeline comparisons to 1e-9, and the per-state trace-preservation
check on chains, the one check that their maps are physical, to 1e-10.

Every tolerance argument must be a finite number >= 0
(:func:`check_tolerance`): a NaN tolerance fails every check and an
infinite one passes every check.

``MAX_QUBITS`` caps the register width. A chain step is a dense 2^k square
matrix, so the parser rejects a wider ``qubits`` line before anything is
allocated; it is a constant of the package, not a setting.
``MAX_KET_AMPLITUDES`` bounds the random kets ``verify --random`` draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import QmcForgeError


@dataclass(frozen=True)
class Tolerances:
    algebraic: float = 1e-12
    pipeline: float = 1e-9
    qmc_rows: float = 1e-10


DEFAULT_TOL = Tolerances()

MAX_QUBITS = 12

# ``verify --random N`` stacks N kets of 2^k amplitudes. N * 2^k is held to
# 4^MAX_QUBITS, the size of one dense chain step at the register cap: an
# array the package must hold anyway, and the size of the basis block of
# the widest register.
MAX_KET_AMPLITUDES = 4 ** MAX_QUBITS


def check_tolerance(tol, name: str) -> None:
    """Raise QmcForgeError unless ``tol`` is a finite real number >= 0."""
    if not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
        raise QmcForgeError(f"{name} wants a finite number >= 0, got {tol}")
