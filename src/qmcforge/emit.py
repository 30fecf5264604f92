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

A matrix whose entries are all 0 or 1 (every permutation step and every
measurement projector; ``-0.0`` and ``-0j`` count as 0) has a fixed-width
literal, since each entry is one digit: inside the brackets, entry i is its
digit at byte 3i, then ``,`` (``;`` at a row end) and a space, so an r x c
literal is 3rc - 2 bytes. A map with an index form (see
:mod:`qmcforge.qmc`) whose values are all 1 is written into a copy of the
cached all-zero literal of its width, a ``1`` at byte 1 + 3(row * d + col)
of the bracketed text, with no dense array. A map with an index form of
other values (phases, -1) is written word by word from the form, each
distinct value formatted once and every other entry ``0``, again with no
dense array; only a map without an index form is formatted from its dense
matrix. Reparse takes the fixed-width path only for a literal of
exactly that layout and a square entry count, which holds exactly when
``literal.replace("1", "0")`` is the cached zero literal of its width; its
1s are then located by ``str.find`` (one numpy scan reads a literal holding
more than a few), and when no row and no column holds two of them it
becomes an index-built map. Everything else (a 0/1 literal with two 1s in a
row or column, which no map of a trace-preserving row can be, other values,
NaN, any literal spaced or separated differently) goes through the
per-value path, whose bytes, arrays and error messages the byte paths
reproduce exactly.

Each pass reparse makes over a constant line is a memchr-speed search, a
copy or a comparison, none of them Python code per byte. It splits lines
with ``str.split("\\n")`` unless the text holds another line boundary of
``str.splitlines`` (``\\r``, ``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``,
``\\u2028``, ``\\u2029``), looks for a ``//`` comment only in a line holding a
``/``, and knows a constant line by its ``];`` ending and a regex over its
``const matrix NAME = [`` head only.

Constants are named once per distinct matrix: two maps share a constant
exactly when their dense arrays have equal bytes, signed zeros included
(a ``-0j`` undo step of a routing swap keeps its own constant). The key of
a map with an index form is the form's bytes, then the signs of its zero
entries, which are formed only when two maps' forms have equal bytes; the
key of any other map is its dense bytes. It is computed once per map
object.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, QmcForgeError, ReparseError, echo
from .linalg import check_finite
from .qmc import Qmc, Superoperator, _log_maps, verify_row_stochasticity

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

    Each distinct value is formatted once and the rows are joined from
    those words by index. ``-0.0`` and ``0.0`` share a word, which is safe
    because :func:`format_number` prints both as ``0``; NaNs are never
    merged (``equal_nan=False``), so each is formatted on its own. An
    array of more than two dimensions raises DimensionMismatch.
    """
    m = np.atleast_2d(m)
    if m.ndim != 2:
        raise DimensionMismatch(f"a matrix literal needs at most 2 dimensions, got shape {m.shape}")
    values, inverse = np.unique(m.reshape(-1), return_inverse=True, equal_nan=False)
    return _joined(_words(values)[inverse].reshape(m.shape))


def _words(values: np.ndarray) -> np.ndarray:
    """:func:`format_number` of each value, as an object array."""
    return np.array([format_number(v) for v in values], dtype=object)


def _joined(words: np.ndarray) -> str:
    """The literal of a 2-D object array of entry words."""
    return "[" + "; ".join(", ".join(row) for row in words.tolist()) + "]"


_ONE = ord("1")


@lru_cache(maxsize=8)
def _zero_digits(width: int) -> str:
    """The fixed-width literal of the width x width zero matrix, without
    its brackets."""
    row = ", ".join("0" * width)
    return "; ".join([row] * width)


@lru_cache(maxsize=8)
def _zero_literal(width: int) -> str:
    """The fixed-width literal of the width x width zero matrix, brackets
    included."""
    return "[" + _zero_digits(width) + "]"


def _map_literal(so: Superoperator, form) -> str:
    """The literal of a map whose ``monomial`` form is ``form``, the bytes
    :func:`format_matrix` gives for its dense matrix. A monomial 0/1 matrix
    is written into a copy of the zero literal, a 1 at byte
    1 + 3(row * d + col) for each entry; any other monomial matrix word by
    word from its form, every entry off the form ``0``; neither forms a
    dense array. A matrix without a form goes through
    :func:`format_matrix`."""
    if form is None:
        return format_matrix(so.matrix)
    rows, cols, values = form
    d = so.dim
    if not (values == 1).all():
        unique, inverse = np.unique(values, return_inverse=True)
        words = np.full(d * d, "0", dtype=object)
        words[rows * d + cols] = _words(unique)[inverse]
        return _joined(words.reshape(d, d))
    buf = bytearray(_zero_literal(d), "ascii")
    np.frombuffer(buf, dtype=np.uint8)[1 + 3 * (rows * d + cols)] = _ONE
    return buf.decode("ascii")


def _constant_pool(q: Qmc) -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """Name every distinct matrix: U1.. for chain steps in first-use order,
    M0..M{2^h-1} for the measurement branches. Two maps share a name exactly
    when their dense arrays have equal ``tobytes()`` (signed zeros
    included); the key is computed once per map object. Returns the
    declarations (name, literal) and the constant name of each step and of
    each branch."""
    names: dict[tuple, str] = {}
    decls: list[tuple[str, str]] = []
    named: dict[int, str] = {}

    def declare(so: Superoperator, cname: str) -> str:
        if id(so) not in named:
            key, form = so._bytes_key()
            if key not in names:
                names[key] = cname
                decls.append((cname, _map_literal(so, form)))
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

    lines = ["qmc", ""]
    lines.append(f"// {name}: {q.k}-wire register, {n} chain step(s), "
                 f"{count} measurement branch(es) (h={q.h})")
    for cname, literal in decls:
        lines.append(f"const matrix {cname} = {literal};")
    lines.append("")
    lines.append(f"module {name}")
    lines.append(f"  s: [0..{top}] init 0;")
    lines.append("")
    for i, cname in enumerate(step_names):
        lines.append(f"  [] (s = {i}) -> <<{cname}>> : (s' = {i + 1});")
    branch_terms = [f"<<{cname}>> : (s' = {n + 1 + i})"
                    for i, cname in enumerate(branch_names)]
    lines.append(f"  [] (s = {n}) -> " + " + ".join(branch_terms) + ";")
    for i in range(count):
        lines.append(f"  [] (s = {n + 1 + i}) -> true;")
    lines.append("endmodule")
    lines.append("")
    lines.append("// Property sketches (reachability of measurement outcomes):")
    for i in range(count):
        props = sorted(q.labeling[f"t{i}"])
        lines.append(f"//   qprob(Q=? [ F (s = {n + 1 + i}) ], rho0)   // {', '.join(props)}")
    return "\n".join(lines) + "\n"


# --- reparse ---------------------------------------------------------------

_MODULE_RE = re.compile(rf"^module ({_NAME_RE.pattern})$")
_CONST_HEAD_RE = re.compile(r"const matrix (\w+) = \[")
_VAR_RE = re.compile(r"^s: \[0\.\.(\d+)\] init 0;$")
_STEP_RE = re.compile(r"^\[\] \(s = (\d+)\) -> (.*);$")
_ACTION_RE = re.compile(r"^<<(\w+)>> : \(s' = (\d+)\)$")


def _parse_entry(token: str, where: str) -> complex:
    token = token.strip()
    try:
        if not token.endswith("i"):
            return complex(float(token), 0.0)
        body = token[:-1]
        split = None
        for idx in range(1, len(body)):
            if body[idx] in "+-" and body[idx - 1] not in "eE":
                split = idx
        if split is None:
            return complex(0.0, float(body))
        return complex(float(body[:split]), float(body[split:]))
    except ValueError:
        raise ReparseError(f"{where}: bad numeric entry {echo(token)}") from None


def _parse_matrix(literal: str, where: str) -> Superoperator:
    """The map of a square literal: read as bytes when it is a fixed-width
    0/1 literal of a monomial map, else token by token."""
    so = _parse_bits(literal)
    if so is None:
        return Superoperator(_parse_tokens(literal, where))
    if so.dim & (so.dim - 1):
        raise ReparseError(f"{where}: dimension {so.dim} is not a power of two")
    return so


# Up to this many 1s are located by str.find, one call per 1; a literal
# holding more is scanned once by numpy, whose fixed cost is that of a few
# dozen str.find calls.
_FIND_ONES = 16


def _parse_bits(literal: str) -> Superoperator | None:
    """The index-built map of a fixed-width 0/1 literal; None unless
    ``literal`` has exactly that layout, a square entry count and no row or
    column holding two 1s.

    The layout holds exactly when every digit is a 0 or a 1 and every other
    byte is the zero literal's: one comparison with the cached zero digits.
    Entry i then sits at byte 3i, so the 1s of a literal holding at most
    ``_FIND_ONES`` of them are found by ``str.find``, each search starting
    3 bytes past the last 1; a literal holding more is read as one byte
    buffer.
    """
    count, rest = divmod(len(literal) + 2, 3)
    width = math.isqrt(count)
    if rest or width * width != count or literal.replace("1", "0") != _zero_digits(width):
        return None
    flat: list[int] | np.ndarray = []
    at = literal.find("1")
    while at >= 0 and len(flat) <= _FIND_ONES:
        flat.append(at // 3)
        at = literal.find("1", at + 3)
    if at < 0:
        rows, cols = [i // width for i in flat], [i % width for i in flat]
        monomial = len(set(rows)) == len(rows) == len(set(cols))
    else:
        digits = np.frombuffer(literal.encode("ascii"), dtype=np.uint8)[0::3]
        flat = np.flatnonzero(digits == _ONE)
        rows, cols = np.divmod(flat, width)
        monomial = (np.bincount(rows, minlength=width).max() <= 1
                    and np.bincount(cols, minlength=width).max() <= 1)
    if not monomial:
        return None
    # row-major positions: the canonical index form, rows ascending
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    return Superoperator._indexed(width, rows, cols, np.ones(len(flat), dtype=np.complex128))


def _parse_tokens(literal: str, where: str) -> np.ndarray:
    """Parse each distinct raw token once, in row-major order of first use
    (so the first bad token is the one reported), then build the array from
    the cached values."""
    rows = literal.split(";")
    tokens = literal.replace(";", ",").split(",")
    values = dict.fromkeys(tokens)
    for token in values:
        values[token] = _parse_entry(token, where)
    width = rows[0].count(",") + 1
    if any(row.count(",") + 1 != width for row in rows):
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


# the line boundaries of str.splitlines other than "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _split_lines(text: str) -> list[str]:
    """``text.splitlines()``: by ``str.split("\\n")``, which is about twice
    as fast, when ``text`` holds no other line boundary."""
    if any(ch in text for ch in _OTHER_BREAKS):
        return text.splitlines()
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # a final "\n" ends the last line and opens no other
    return lines


def _state_number(digits: str, where: str) -> int:
    """A state number of the model text; int() refuses one of over 4,300
    digits, which numbers no state of a chain the emitter can write."""
    try:
        return int(digits)
    except ValueError:
        raise ReparseError(f"{where}: state number of {len(digits)} digits") from None


def reparse_model(text: str) -> Qmc:
    """Parse emitter-produced model text back into a chain.

    Accepts exactly the structure :func:`emit_qpmc` writes (the ``qmc``
    header once, before anything else; constants before the module, each one
    used; one module holding the state variable once; a linear chain, one
    measurement fan-out, terminal self-loops) and raises ReparseError, with
    the offending line or the first state :func:`verify_row_stochasticity`
    reports, on anything else. Comments, blank lines and indentation are ignored.
    """
    consts: dict[str, Superoperator] = {}
    commands: dict[int, list[tuple[str, int]] | None] = {}
    top = None
    in_module = seen_module = seen_header = False
    for lineno, raw in enumerate(_split_lines(text), start=1):
        # most lines hold no "/", and a one-character search is memchr fast
        line = (raw if raw.find("/") < 0 else raw.split("//", 1)[0]).strip()
        if not line:
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
            name, literal = m.group(1), line[m.end():-2]
            if seen_module:
                raise ReparseError(f"{where}: constant {echo(name, str)} after the module line")
            if name in consts:
                raise ReparseError(f"{where}: duplicate constant {echo(name, str)}")
            consts[name] = _parse_matrix(literal, where)
            continue
        m = _MODULE_RE.match(line)
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
        m = _VAR_RE.match(line)
        if m:
            if not in_module:
                raise ReparseError(f"{where}: state variable outside the module")
            if top is not None:
                raise ReparseError(f"{where}: second state variable declaration")
            top = _state_number(m.group(1), where)
            continue
        m = _STEP_RE.match(line)
        if m and in_module:
            guard, rhs = _state_number(m.group(1), where), m.group(2).strip()
            if guard in commands:
                raise ReparseError(f"{where}: duplicate guard s = {guard}")
            if rhs == "true":
                commands[guard] = None
                continue
            actions = []
            for term in rhs.split(" + "):
                am = _ACTION_RE.match(term.strip())
                if not am:
                    raise ReparseError(f"{where}: unrecognized action {echo(term)}")
                cname, target = am.group(1), _state_number(am.group(2), where)
                if cname not in consts:
                    raise ReparseError(f"{where}: unknown constant {echo(cname, str)}")
                actions.append((cname, target))
            commands[guard] = actions
            continue
        raise ReparseError(f"{where}: unrecognized line {echo(line)}")

    if in_module:
        raise ReparseError("module is never closed")
    if top is None:
        raise ReparseError("missing state variable declaration")
    # the length first: a huge bound must not become a huge list
    if len(commands) != top + 1 or sorted(commands) != list(range(top + 1)):
        raise ReparseError(f"guards do not cover 0..{top} exactly once")
    used = {cname for acts in commands.values() if acts for cname, _ in acts}
    unused = [name for name in consts if name not in used]
    if unused:
        raise ReparseError(f"constant {echo(unused[0], str)} is never used")

    terminals = [g for g, acts in commands.items() if acts is None]
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
