"""Numeric tolerances used across the pipeline.

Tolerances are configuration, not magic numbers sprinkled through the code:
algebraic identities (unitarity, completeness, daggers) are held to 1e-12,
end-to-end pipeline comparisons to 1e-9, and the per-state trace-preservation
check on compiled chains to 1e-10.

``MAX_QUBITS`` caps the register width. A chain step is a dense 2^k square
matrix, so the parser rejects a wider ``qubits`` line before anything is
allocated; it is a constant of the package, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    algebraic: float = 1e-12
    pipeline: float = 1e-9
    qmc_rows: float = 1e-10
    psd_slack: float = 1e-10


DEFAULT_TOL = Tolerances()

MAX_QUBITS = 12
