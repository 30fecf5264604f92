"""Exception hierarchy shared by all qmcforge stages.

Every error raised on purpose by this package derives from QmcForgeError so
callers (and the CLI) can separate our diagnostics from genuine bugs.
"""

from __future__ import annotations


class QmcForgeError(Exception):
    """Base class for all errors raised by qmcforge."""


ECHO_CHARS = 40


def echo(token: str, show=repr) -> str:
    """``show(token)`` (its repr by default) for an error message, cut to
    its first ``ECHO_CHARS`` characters and its length when longer."""
    if len(token) <= ECHO_CHARS:
        return show(token)
    return f"{show(token[:ECHO_CHARS])}... ({len(token)} characters)"


# --- linear algebra ---------------------------------------------------------


class NonSquare(QmcForgeError):
    """A matrix that must be square is not."""


class DimensionMismatch(QmcForgeError):
    """Operands have incompatible shapes."""


class WireOutOfRange(QmcForgeError):
    """A wire index falls outside 1..k."""


class NotAPermutation(QmcForgeError):
    """A wire map does not describe a permutation of 1..k."""


# --- circuit model ----------------------------------------------------------


class CircuitSyntaxError(QmcForgeError):
    """Malformed circuit text. Carries the 1-based source line."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnknownGate(QmcForgeError):
    """Gate name not present in the library."""


class ArityMismatch(QmcForgeError):
    """Wrong number of wires or parameters for a gate."""


class BadParameters(QmcForgeError):
    """Gate parameters are malformed or non-finite."""


class ValidationFailed(QmcForgeError):
    """A circuit failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"circuit validation failed: {lines}")


class CycleDetected(QmcForgeError):
    """The circuit graph is not acyclic."""


class InvalidCircuit(QmcForgeError):
    """An operation was asked to process a structurally broken circuit."""


# --- qmc / emitter ----------------------------------------------------------


class OutcomeOutOfRange(QmcForgeError):
    """Measurement outcome index outside 0..2^h - 1."""


class ReparseError(QmcForgeError):
    """Emitted model text could not be parsed back."""


class BitLengthMismatch(QmcForgeError):
    """An outcome bit string has the wrong length."""


# --- evaluator / cli --------------------------------------------------------


class BadInitialState(QmcForgeError):
    """Initial state is not a valid ket/density for the register."""


class SizeOutOfRange(QmcForgeError):
    """A register width or benchmark circuit size outside the supported range."""
