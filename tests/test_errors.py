"""Error messages stay short whatever the input holds: a long token is
echoed as a short prefix and its length."""

import pathlib

import pytest

from qmcforge.emit import reparse_model
from qmcforge.errors import (CircuitSyntaxError, QmcForgeError, ReparseError,
                             UnknownGate, WireOutOfRange, echo)
from qmcforge.parser import parse_circuit

LONG = 5000

DEUTSCH_MODEL = (pathlib.Path(__file__).parent / "golden" / "deutsch.qpmc").read_text()
U2 = "const matrix U2 = [1, 0,"


def _model(old: str, new: str) -> str:
    return DEUTSCH_MODEL.replace(old, new, 1)


# each message once echoed its whole token: 4,326 to 5,039 characters
@pytest.mark.parametrize("parse, text, error, length", [
    (parse_circuit, "qubits 2\nmeasure " + "1" * 4300, WireOutOfRange, "4300 digits"),
    (parse_circuit, "qubits 2\nmeasure -" + "1" * LONG, CircuitSyntaxError, "5001 characters"),
    (parse_circuit, "qubits 1\ngate " + "A" * LONG + " 1", UnknownGate, "5000 characters"),
    (parse_circuit, "qubits 1\ngate " + "A" * LONG + "( 1", UnknownGate, "5001 characters"),
    (parse_circuit, "qubits 1\n" + "x" * LONG, CircuitSyntaxError, "5000 characters"),
    (reparse_model, DEUTSCH_MODEL + "x" * LONG + "\n", ReparseError, "5000 characters"),
    # the command line is quoted from 20 characters before where it differs
    # from the writer's: 16 of its 36 characters before the term, ";" after
    (reparse_model, _model("<<U2>> : (s' = 2)", "<<U2>> : (s' = 2) + " + "y" * LONG),
     ReparseError, "5024 characters"),
    (reparse_model, _model(U2, "const matrix U2 = [" + "z" * LONG + ", 0,"),
     ReparseError, "5000 characters"),
], ids=["wire-of-4300-digits", "negative-wire", "gate-name", "malformed-gate-spelling",
        "statement-head", "model-line", "model-action", "model-entry"])
def test_long_tokens_are_echoed_short(parse, text, error, length):
    with pytest.raises(error) as err:
        parse(text)
    assert isinstance(err.value, QmcForgeError)
    message = str(err.value)
    assert len(message) <= 200, message[:300]
    assert length in message


def test_echo_keeps_short_tokens_whole():
    assert echo("WAT") == "'WAT'"
    assert echo("a" * 40) == repr("a" * 40)
    assert echo("b" * 41) == repr("b" * 40) + "... (41 characters)"
