"""Emission of chains as QPMC guarded-command models, and the reverse parse.

The emitted dialect: a ``qmc`` header, one ``const matrix`` declaration per
distinct matrix, and a single module over an integer state variable ``s``.
Chain state s{i} maps to ``s = i-1``; terminal t{i} maps to ``s = n+1+i``.
Internal steps and the measurement fan-out apply superoperators written
``<<NAME>>``; terminal states self-loop via ``-> true``.

Matrix literals use bracketed rows separated by ``;`` with comma-separated
entries, complex values written ``a+bi`` / ``a-bi``. Floats are printed with
shortest round-trip precision and integer values without a decimal point, so
emission is deterministic: the same chain always yields identical bytes.

Every literal is written from its matrix's nonzero entries alone: their
ascending row-major positions and values, read from a map by
``Superoperator._nonzeros`` (no dense array for an index-built map) and
from an array by one ``flatnonzero``. The all-zero literal of a shape is
cached without its brackets, and in it each entry is a ``0`` followed by
``,`` (``;`` at a row end) and a space, so entry i is the ``0`` at byte 3i.
A literal is that zero literal with each nonzero's word in place of its
``0``, in brackets; every zero, ``-0.0`` and ``-0j`` too, stays ``0``. When
every nonzero is 1 (every permutation step and every measurement
projector), each word is one byte and one numpy scatter writes them into a
copy of the zero literal; such a fixed-width r x c literal is 3rc - 2 bytes
inside its brackets. Any other literal (phases, -1, dense H steps) is joined
from the zero literal's slices between the nonzeros and their words, each
distinct value formatted once. No writer forms a word per zero.

Reparse reads one dialect: the lines :func:`emit_qpmc` writes, each
spelled as it writes them, in its order. Only ``"\\n"`` ends a line; each
line is found by ``str.find("\\n")`` and dropped once the next is read, so
no list of every line is held. A line may end in ``"\\r\\n"``, a trailing
``//`` comment and trailing spaces or tabs, and blank and comment-only lines
may stand anywhere; nothing else is cut or skipped. What is left of a line
is then the ``qmc`` header, a constant line, ``module NAME``, the indented
state variable, an indented command or ``endmodule``, matched whole: names
are ASCII identifiers, state numbers ASCII digits with no leading zero.
The commands stand in state order: the i-th one read is guarded by
``s = i``. Any other line, and a command out of that order, is a
ReparseError naming it.

A literal of exactly the 0/1 layout and a square entry count, which holds
exactly when the text inside its brackets, with every ``1`` replaced by
``0``, is the cached zero literal of its width, has its 1s located by
``str.find`` (one numpy scan reads a literal holding more than a few), and
when no row and no column holds two of them it becomes an index-built map.
Any other literal is split at the ``; `` and ``, `` separators and each
distinct token is read once; it becomes an index-built map when its
matrix is monomial (phases, -1s), as the compiled step it was written from
is, and a dense one otherwise. A token is accepted only when
:func:`format_number` writes its value back as the same token, so ``1.0``,
``01``, ``+1`` or a fullwidth ``1`` is a bad numeric entry. A token that
reads as NaN or an infinity is reported by its row and column. Each pass
reparse makes over a constant line is a memchr-speed search, a copy or a
comparison, none of them Python code per byte.

Constants are named once per distinct map, keyed on its nonzeros: two maps
share a constant exactly when their nonzero positions and values have equal
bytes, so the sign of a zero never splits one. A map's nonzeros are read
once, for its key and its literal.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, QmcForgeError, ReparseError, echo
from .linalg import check_finite
from .qmc import (Qmc, Superoperator, _identity_form, _log_maps, _monomial_form,
                  verify_row_stochasticity)

__all__ = ["format_number", "format_matrix", "emit_qpmc", "reparse_model"]


def format_number(x: complex) -> str:
    """One matrix entry: shortest decimal that round-trips, ``i`` suffix on
    the imaginary part, no decimal point on integer values. A NaN or
    infinite entry has no spelling and raises DimensionMismatch."""

    def real_part(v: float) -> str:
        if v == 0.0:
            return "0"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(float(v))

    check_finite(x, "matrix entry")
    re_, im = float(np.real(x)), float(np.imag(x))
    if im == 0.0:
        return real_part(re_)
    sign = "+" if im >= 0 else "-"
    return f"{real_part(re_)}{sign}{real_part(abs(im))}i"


def format_matrix(m: np.ndarray) -> str:
    """MATLAB-style literal: rows split by ``;``, entries by ``, ``.

    Written by :func:`_literal` from one ``flatnonzero`` of the array, so
    every zero (``-0.0`` and ``-0j`` too) is the zero literal's ``0`` and
    each distinct nonzero value is formatted once. An array of more than
    two dimensions raises DimensionMismatch.
    """
    m = np.atleast_2d(m)
    if m.ndim != 2:
        raise DimensionMismatch(f"a matrix literal needs at most 2 dimensions, got shape {m.shape}")
    flat = np.flatnonzero(m)
    return "[" + _literal(m.shape, flat, m.ravel()[flat]) + "]"


_ONE = ord("1")


@lru_cache(maxsize=8)
def _zero_literal(rows: int, cols: int) -> str:
    """The literal of the rows x cols zero matrix without its brackets:
    entry i is the ``0`` at byte 3i."""
    return "; ".join([", ".join("0" * cols)] * rows)


def _literal(shape: tuple[int, int], flat: np.ndarray, values: np.ndarray) -> str:
    """The literal, without its brackets, of the matrix of ``shape`` whose
    nonzero entries are ``values`` at the ascending row-major positions
    ``flat``: the zero literal with each value's word in place of the ``0``
    at byte 3 * flat[i]. When every value is 1 each word is one byte, so
    one scatter writes them into a copy of the zero literal; otherwise the
    zero literal's slices between the nonzeros are joined with their
    words, each distinct value formatted once (a NaN, equal to nothing,
    on its own)."""
    zero = _zero_literal(*shape)
    at = 3 * flat
    if (values == 1).all():
        buf = bytearray(zero, "ascii")
        np.frombuffer(buf, dtype=np.uint8)[at] = _ONE
        return buf.decode("ascii")
    word = lru_cache(maxsize=None)(format_number)
    pieces, start = [], 0
    for i, v in zip(at.tolist(), values.tolist()):
        pieces += (zero[start:i], word(v))
        start = i + 1
    pieces.append(zero[start:])
    return "".join(pieces)


def _constant_pool(q: Qmc) -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """Name every distinct matrix: U1.. for chain steps in first-use order,
    M0..M{2^h-1} for the measurement branches. Two maps share a name exactly
    when their nonzero entries (:meth:`Superoperator._nonzeros`) have equal
    positions and equal value bytes; each map's nonzeros are read once, and
    its literal is written from them. Returns the declarations (name,
    literal without brackets) and the constant name of each step and of
    each branch."""
    names: dict[tuple, str] = {}
    decls: list[tuple[str, str]] = []
    named: dict[int, str] = {}

    def declare(so: Superoperator, cname: str) -> str:
        if id(so) not in named:
            flat, values = so._nonzeros()
            key = flat.tobytes(), values.tobytes()
            if key not in names:
                names[key] = cname
                decls.append((cname, _literal((so.dim, so.dim), flat, values)))
            named[id(so)] = names[key]
        return named[id(so)]

    steps = [declare(so, f"U{len(decls) + 1}") for so in q.steps]
    branches = [declare(so, f"M{i}") for i, so in enumerate(q.branches)]
    return decls, steps, branches


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def emit_qpmc(q: Qmc, name: str = "model") -> str:
    """Render a chain as QPMC model text. Deterministic byte-for-byte.

    ``name`` becomes the module name and must be an identifier.
    """
    if not _NAME_RE.fullmatch(name):
        raise QmcForgeError(f"module name must be an identifier, got {name!r}")
    n, count = q.n, len(q.branches)
    decls, step_names, branch_names = _constant_pool(q)
    top = n + count

    # one piece per literal, not a line holding a copy of it, and one join:
    # the model text is copied once
    parts = ["qmc\n\n",
             f"// {name}: {q.k}-wire register, {n} chain step(s), "
             f"{count} measurement branch(es) (h={q.h})\n"]
    for cname, literal in decls:
        parts += ("const matrix ", cname, " = [", literal, "];\n")
    parts.append(f"\nmodule {name}\n  s: [0..{top}] init 0;\n\n")
    parts += (f"  [] (s = {i}) -> <<{cname}>> : (s' = {i + 1});\n"
              for i, cname in enumerate(step_names))
    branch_terms = [f"<<{cname}>> : (s' = {n + 1 + i})"
                    for i, cname in enumerate(branch_names)]
    parts.append(f"  [] (s = {n}) -> " + " + ".join(branch_terms) + ";\n")
    parts += (f"  [] (s = {n + 1 + i}) -> true;\n" for i in range(count))
    parts.append("endmodule\n\n// Property sketches (reachability of measurement outcomes):\n")
    for i in range(count):
        props = sorted(q.labeling[f"t{i}"])
        parts.append(f"//   qprob(Q=? [ F (s = {n + 1 + i}) ], rho0)   // {', '.join(props)}\n")
    return "".join(parts)


# --- reparse ---------------------------------------------------------------

# the lines emit_qpmc writes: names are ASCII identifiers, state numbers
# ASCII digits with no leading zero
_NUMBER = r"0|[1-9][0-9]*"
_MODULE_RE = re.compile(rf"module ({_NAME_RE.pattern})")
_CONST_HEAD_RE = re.compile(rf"const matrix ({_NAME_RE.pattern}) = \[")
_VAR_RE = re.compile(rf"  s: \[0\.\.({_NUMBER})\] init 0;")
_ACTION = rf"<<({_NAME_RE.pattern})>> : \(s' = ({_NUMBER})\)"
_ACTION_RE = re.compile(_ACTION)
_COMMAND_RE = re.compile(rf"  \[\] \(s = ({_NUMBER})\) -> (true|{_ACTION}(?: \+ {_ACTION})*);")


def _parse_entry(token: str, where: str) -> complex:
    """The value of one literal token spelled as :func:`format_number`
    spells it. A token that reads as NaN or an infinity, which has no
    spelling, is returned for the caller to report by its position; any
    other token is a bad numeric entry unless format_number writes its
    value back as the same token."""
    try:
        if not token.endswith("i"):
            value = complex(float(token), 0.0)
        else:
            body = token[:-1]
            split = None
            for idx in range(1, len(body)):
                if body[idx] in "+-" and body[idx - 1] not in "eE":
                    split = idx
            value = complex(0.0, float(body)) if split is None else \
                complex(float(body[:split]), float(body[split:]))
    except ValueError:
        value = None
    if value is None or (math.isfinite(value.real) and math.isfinite(value.imag)
                         and format_number(value) != token):
        raise ReparseError(f"{where}: bad numeric entry {echo(token)}")
    return value


def _parse_matrix(literal: str, where: str) -> Superoperator:
    """The map of a square literal: read as bytes when it is a fixed-width
    0/1 literal of a monomial map, else token by token; index-built
    exactly when its matrix is monomial."""
    so = _parse_bits(literal)
    if so is None:
        m = _parse_tokens(literal, where)
        form = _monomial_form(m)
        return Superoperator(m) if form is None else Superoperator._indexed(m.shape[0], *form)
    if so.dim & (so.dim - 1):
        raise ReparseError(f"{where}: dimension {so.dim} is not a power of two")
    return so


# Up to this many 1s are located by str.find, one call per 1; a literal
# holding more is scanned once by numpy. Measured on 64- and 128-wide
# literals, a find costs about 0.5 us per 1 and the scan 18-30 us flat, so
# the scan pays from about two dozen 1s. A permutation, one 1 per row, pays
# the finds up to this count before its scan; a projector of a block of up
# to 8 rows (h >= k - 3) is read by finds alone.
_FIND_ONES = 8


def _parse_bits(literal: str) -> Superoperator | None:
    """The index-built map of a fixed-width 0/1 literal; None unless
    ``literal`` has exactly that layout, a square entry count and no row or
    column holding two 1s.

    The layout holds exactly when every digit is a 0 or a 1 and every other
    byte is the zero literal's: one comparison with the cached zero literal.
    Entry i then sits at byte 3i and no other byte is a 1, so the 1s of a
    literal holding at most ``_FIND_ONES`` of them are found by
    ``str.find``, each search starting 3 bytes past the last 1; in a literal
    holding more, one comparison of its whole byte buffer finds them. The
    values are a slice of the shared ones of the width, and a one-hot
    literal's rows and columns are slices of the shared index.
    """
    count, rest = divmod(len(literal) + 2, 3)
    width = math.isqrt(count)
    if rest or width * width != count or literal.replace("1", "0") != _zero_literal(width, width):
        return None
    index, ones = _identity_form(width)
    flat: list[int] = []
    at = literal.find("1")
    while at >= 0 and len(flat) < _FIND_ONES:
        flat.append(at // 3)
        at = literal.find("1", at + 3)
    if at >= 0:
        found = np.flatnonzero(np.frombuffer(literal.encode("ascii"), dtype=np.uint8) == _ONE)
        rows, cols = np.divmod(found // 3, width)
        # the positions ascend, so the rows are distinct when no two
        # neighbours are equal
        if (rows[1:] == rows[:-1]).any() or np.bincount(cols, minlength=width).max() > 1:
            return None
    elif len(flat) == 1:
        row, col = divmod(flat[0], width)
        rows, cols = index[row:row + 1], index[col:col + 1]
    else:
        rows, cols = [i // width for i in flat], [i % width for i in flat]
        if not len(set(rows)) == len(rows) == len(set(cols)):
            return None
        rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    # row-major positions: the canonical index form, rows ascending
    return Superoperator._indexed(width, rows, cols, ones[:rows.size])


def _parse_tokens(literal: str, where: str) -> np.ndarray:
    """The array of a literal split at the ``; `` and ``, `` separators
    :func:`emit_qpmc` writes, each distinct token read once, in row-major
    order of first use (so the first bad token is the one reported)."""
    rows = literal.split("; ")
    # neither separator's end begins the other, so this cuts where
    # splitting each row at ", " does
    tokens = literal.replace("; ", ", ").split(", ")
    values = dict.fromkeys(tokens)
    for token in values:
        values[token] = _parse_entry(token, where)
    width = rows[0].count(", ") + 1
    if any(row.count(", ") + 1 != width for row in rows):
        raise ReparseError(f"{where}: ragged matrix rows")
    if len(rows) != width:
        raise ReparseError(f"{where}: matrix is {len(rows)}x{width}, expected square")
    if width & (width - 1):
        raise ReparseError(f"{where}: dimension {width} is not a power of two")
    m = np.fromiter(map(values.__getitem__, tokens), dtype=np.complex128,
                    count=len(tokens)).reshape(width, width)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        row, col = bad[0] + 1
        raise ReparseError(f"{where}: non-finite entry at row {row}, column {col}")
    return m


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each ended by ``"\\n"`` alone, one at a time:
    each is found by ``str.find("\\n")``, which runs at memchr speed where
    ``str.split`` reads one character at a time, and no list of every line
    is formed."""
    start, size = 0, len(text)
    while start < size:  # a final "\n" ends the last line and opens no other
        end = text.find("\n", start)
        if end < 0:
            end = size
        yield text[start:end]
        start = end + 1


def _state_number(digits: str, lineno: int) -> int:
    """A state number of the model text; int() refuses one of over 4,300
    digits, which numbers no state of a chain the emitter can write."""
    try:
        return int(digits)
    except ValueError:
        raise ReparseError(f"line {lineno}: state number of {len(digits)} digits") from None


def reparse_model(text: str) -> Qmc:
    """Parse emitter-produced model text back into a chain.

    Reads the lines :func:`emit_qpmc` writes, each spelled as it writes
    them and in its order (the ``qmc`` header once, before anything else;
    constants before the module, each one used; one module holding the
    state variable once, before its commands; the commands in state
    order, guarded by ``s = 0``, ``s = 1``, ...; a linear chain, one
    measurement fan-out, terminal self-loops). Only ``"\\n"`` ends a line;
    a line may end in ``"\\r\\n"``, a ``//`` comment and spaces or tabs, and
    blank and comment-only lines may stand anywhere. Any other line raises
    ReparseError naming it. A missing or unused part, a chain of the wrong
    shape and the first state :func:`verify_row_stochasticity` reports
    raise it too.
    """
    consts: dict[str, Superoperator] = {}
    # commands[i] is the command guarded by s = i: the actions, or None for a self-loop
    commands: list[list[tuple[str, int]] | None] = []
    top = None
    in_module = seen_module = seen_header = False

    for lineno, line in enumerate(_lines(text), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        # most lines hold no "/", and a one-character search is memchr fast
        if "/" in line:
            line = line.split("//", 1)[0]
        line = line.rstrip(" \t")
        if not line:
            continue
        m = _COMMAND_RE.fullmatch(line) if in_module else None
        if m:
            guard = _state_number(m.group(1), lineno)
            if guard != len(commands):
                raise ReparseError(f"line {lineno}: guard s = {guard} out of order, "
                                   f"expected s = {len(commands)}")
            if m.group(2) == "true":
                commands.append(None)
                continue
            actions = []
            for cname, digits in _ACTION_RE.findall(m.group(2)):
                target = _state_number(digits, lineno)
                if cname not in consts:
                    raise ReparseError(f"line {lineno}: unknown constant {echo(cname, str)}")
                actions.append((cname, target))
            commands.append(actions)
            continue
        where = f"line {lineno}"
        if not seen_header:
            if line != "qmc":
                raise ReparseError(f"{where}: missing qmc header")
            seen_header = True
            continue
        if line == "qmc":
            raise ReparseError(f"{where}: repeated qmc header")
        # a constant line is "const matrix NAME = [" + literal + "];": the
        # regex reads the head only, not the literal
        m = _CONST_HEAD_RE.match(line) if line.endswith("];") else None
        if m:
            name = m.group(1)
            if seen_module:
                raise ReparseError(f"{where}: constant {echo(name, str)} after the module line")
            if name in consts:
                raise ReparseError(f"{where}: duplicate constant {echo(name, str)}")
            consts[name] = _parse_matrix(line[m.end():-2], where)
            continue
        m = _MODULE_RE.fullmatch(line)
        if m:
            if seen_module:
                raise ReparseError(f"{where}: second module {echo(m.group(1), str)}")
            in_module = seen_module = True
            continue
        if line == "endmodule":
            if not in_module:
                raise ReparseError(f"{where}: endmodule without an open module")
            in_module = False
            continue
        m = _VAR_RE.fullmatch(line)
        if m:
            if not in_module:
                raise ReparseError(f"{where}: state variable outside the module")
            if top is not None:
                raise ReparseError(f"{where}: second state variable declaration")
            if commands:
                raise ReparseError(f"{where}: state variable after a command")
            top = _state_number(m.group(1), lineno)
            continue
        raise ReparseError(f"{where}: unrecognized line {echo(line)}")

    if not seen_header:
        raise ReparseError("missing qmc header")
    if in_module:
        raise ReparseError("module is never closed")
    if top is None:
        raise ReparseError("missing state variable declaration")
    # the guards were read as 0, 1, 2, ...: they cover 0..top when there are top + 1
    if len(commands) != top + 1:
        raise ReparseError(f"guards do not cover 0..{top} exactly once")
    used = {cname for acts in commands if acts for cname, _ in acts}
    unused = [name for name in consts if name not in used]
    if unused:
        raise ReparseError(f"constant {echo(unused[0], str)} is never used")

    terminals = [g for g, acts in enumerate(commands) if acts is None]
    if not terminals or terminals != list(range(min(terminals), top + 1)):
        raise ReparseError("terminal self-loops must occupy the trailing states")
    n = min(terminals) - 1

    steps: list[str] = []
    for i in range(n):
        acts = commands[i]
        if acts is None or len(acts) != 1 or acts[0][1] != i + 1:
            raise ReparseError(f"state {i} must step to {i + 1} with one superoperator")
        steps.append(acts[0][0])
    fan = commands[n]
    if fan is None:
        raise ReparseError(f"state {n} must carry the measurement fan-out")
    expected_targets = list(range(n + 1, top + 1))
    if [t for _, t in fan] != expected_targets:
        raise ReparseError("measurement fan-out must hit the terminals in order")
    branches = [cname for cname, _ in fan]
    # Qmc checks the branch count against h and every matrix against k
    h = len(branches).bit_length() - 1
    k = consts[branches[0]].dim.bit_length() - 1
    try:
        # one map per constant, shared by every step using it
        q = Qmc(k, h, tuple(consts[c] for c in steps), tuple(consts[c] for c in branches))
    except QmcForgeError as exc:
        raise ReparseError(f"model matrices rejected: {exc}") from exc
    _log_maps("reparse_model", q)
    violations = verify_row_stochasticity(q)
    if violations:
        raise ReparseError(f"model matrices rejected: {violations[0]}")
    return q
