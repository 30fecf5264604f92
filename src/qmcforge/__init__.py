"""Circuit-to-Markov-chain compiler with a dual-simulation checker.

Pipeline: parse a gate-list circuit, translate it into a straight-line
chain of full-register unitaries (strong normal form), attach measurement
branching to get a superoperator-weighted Markov chain, and print it in a
guarded-command dialect. The evaluator runs both semantics and confirms
they agree.
"""

from .circuit import Circuit, Edge, Node, Violation
from .config import DEFAULT_TOL, Tolerances
from .emit import emit_qpmc, reparse_model
from .errors import QmcForgeError
from .evaluate import (EquivalenceReport, EvalReport, OutcomeRecord,
                       check_equivalence, outcome_probability, random_kets,
                       run_qmc, simulate_circuit)
from .gates import gate_arity, gate_matrix, known_gates
from .linalg import dagger, is_unitary, swap_decomposition, tensor
from .normalize import SnfCircuit, SwapAccount, translate
from .parser import emit_circuit_text, parse_circuit
from .qmc import (Qmc, RowViolation, Superoperator, build_qmc,
                  verify_row_stochasticity)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Edge", "Node", "Violation",
    "DEFAULT_TOL", "Tolerances",
    "emit_qpmc", "reparse_model",
    "QmcForgeError",
    "EquivalenceReport", "EvalReport", "OutcomeRecord", "check_equivalence",
    "outcome_probability", "random_kets", "run_qmc", "simulate_circuit",
    "gate_arity", "gate_matrix", "known_gates",
    "dagger", "is_unitary", "swap_decomposition", "tensor",
    "SnfCircuit", "SwapAccount", "translate",
    "emit_circuit_text", "parse_circuit",
    "Qmc", "RowViolation", "Superoperator", "build_qmc", "verify_row_stochasticity",
    "__version__",
]
