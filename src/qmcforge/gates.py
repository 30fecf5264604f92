"""Gate library and name resolution.

Matrices follow the register convention of :mod:`qmcforge.linalg`: the first
listed wire of a gate is its most significant index bit. Multi-control gates
keep their controls in the lower-numbered input positions, so CCNOT is
block-diag(I4, X).

Spellings accepted by :func:`gate_matrix` are either plain names (``H``,
``CNOT``), parametrized names (``RZ(0.5)`` with angles in radians), or the
combinators ``controlled(...)`` and ``adjoint(...)``, which nest.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ArityMismatch, BadParameters, UnknownGate, echo
from .linalg import check_finite, dagger

__all__ = ["gate_matrix", "gate_arity", "known_gates"]


def _mat(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "I": _mat([1, 0], [0, 1]),
    "X": _mat([0, 1], [1, 0]),
    "Y": _mat([0, -1j], [1j, 0]),
    "Z": _mat([1, 0], [0, -1]),
    "H": _mat([_SQ2, _SQ2], [_SQ2, -_SQ2]),
    "S": _mat([1, 0], [0, 1j]),
    "T": _mat([1, 0], [0, cmath.exp(1j * math.pi / 4)]),
    "CNOT": _mat([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]),
    "CZ": _mat([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]),
    "SWAP": _mat([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]),
}
_FIXED["CCNOT"] = np.eye(8, dtype=np.complex128)
_FIXED["CCNOT"][6:8, 6:8] = _FIXED["X"]


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([c, -1j * s], [-1j * s, c])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([c, -s], [s, c])


def _rz(theta: float) -> np.ndarray:
    return _mat([cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)])


def _phase(theta: float) -> np.ndarray:
    return _mat([1, 0], [0, cmath.exp(1j * theta)])


_PARAM = {"RX": _rx, "RY": _ry, "RZ": _rz, "PHASE": _phase}


def known_gates() -> list[str]:
    """Names resolvable without combinators, parametrized ones included."""
    return sorted(_FIXED) + sorted(_PARAM)


def _controlled(u: np.ndarray) -> np.ndarray:
    d = u.shape[0]
    out = np.eye(2 * d, dtype=np.complex128)
    out[d:, d:] = u
    return out


def _split_combinator(spelling: str) -> tuple[str, str] | None:
    for comb in ("controlled", "adjoint"):
        if spelling.startswith(comb + "(") and spelling.endswith(")"):
            return comb, spelling[len(comb) + 1:-1]
    return None


def _parse_params(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise BadParameters(f"bad gate parameter list {text!r}") from exc
    if any(not math.isfinite(v) for v in values):
        raise BadParameters(f"non-finite gate parameter in {text!r}")
    return values


def gate_matrix(name: str, params: tuple[float, ...] | list[float] = ()) -> np.ndarray:
    """Resolve a gate spelling to its unitary matrix.

    Args:
        name: plain name, ``NAME(angle)`` spelling, or a nested combinator
            such as ``controlled(adjoint(S))``.
        params: parameters for a plain parametrized name; mutually exclusive
            with parameters embedded in the spelling.

    Raises:
        UnknownGate, ArityMismatch, BadParameters.
    """
    spelling = name.strip()
    params = tuple(params)

    comb = _split_combinator(spelling)
    if comb is not None:
        kind, inner = comb
        if params:
            raise BadParameters(f"parameters cannot be applied to {kind}(...)")
        base = gate_matrix(inner)
        return _controlled(base) if kind == "controlled" else dagger(base)

    if "(" in spelling:
        if not spelling.endswith(")"):
            raise UnknownGate(f"malformed gate spelling {echo(spelling)}")
        head, _, tail = spelling.partition("(")
        if params:
            raise BadParameters(f"parameters given twice for {head!r}")
        params = _parse_params(tail[:-1])
        spelling = head.strip()

    if spelling in _FIXED:
        if params:
            raise ArityMismatch(f"{spelling} takes no parameters")
        return _FIXED[spelling].copy()
    if spelling in _PARAM:
        if len(params) != 1:
            raise ArityMismatch(f"{spelling} takes exactly one angle, got {len(params)}")
        return check_finite(_PARAM[spelling](params[0]), spelling)
    raise UnknownGate(f"unknown gate {echo(spelling)}")


def gate_arity(name: str) -> int:
    """Number of wires the spelling consumes."""
    m = gate_matrix(name) if "(" in name or name in _FIXED else gate_matrix(name, (0.0,))
    return int(round(math.log2(m.shape[0])))
