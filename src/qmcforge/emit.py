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
"""

from __future__ import annotations

import re

import numpy as np

from .errors import QmcForgeError, ReparseError
from .linalg import check_finite
from .qmc import Qmc, qmc_from_matrices

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

    Each distinct value is formatted once and the rows are joined from those
    words by index. ``-0.0`` and ``0.0`` share a word, which is safe because
    :func:`format_number` prints both as ``0``; NaNs are never merged
    (``equal_nan=False``), so each is formatted on its own.
    """
    m = np.atleast_2d(m)
    values, inverse = np.unique(m.reshape(-1), return_inverse=True, equal_nan=False)
    words = np.array([format_number(v) for v in values], dtype=object)
    rows = words[inverse].reshape(m.shape).tolist()
    return "[" + "; ".join(", ".join(row) for row in rows) + "]"


def _constant_pool(q: Qmc) -> tuple[dict[bytes, str], list[tuple[str, np.ndarray]]]:
    """Name every distinct matrix: U1.. for chain steps in first-use order,
    M0..M{2^h-1} for the measurement branches."""
    names: dict[bytes, str] = {}
    decls: list[tuple[str, np.ndarray]] = []

    def declare(mat: np.ndarray, cname: str) -> None:
        key = mat.tobytes()
        if key not in names:
            names[key] = cname
            decls.append((cname, mat))

    for so in q.steps:
        declare(so.matrix, f"U{len(decls) + 1}")
    for i, so in enumerate(q.branches):
        declare(so.matrix, f"M{i}")
    return names, decls


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def emit_qpmc(q: Qmc, name: str = "model") -> str:
    """Render a chain as QPMC model text. Deterministic byte-for-byte.

    ``name`` becomes the module name and must be an identifier.
    """
    if not _NAME_RE.fullmatch(name):
        raise QmcForgeError(f"module name must be an identifier, got {name!r}")
    n, count = q.n, len(q.branches)
    names, decls = _constant_pool(q)
    top = n + count

    lines = ["qmc", ""]
    lines.append(f"// {name}: {q.k}-wire register, {n} chain step(s), "
                 f"{count} measurement branch(es) (h={q.h})")
    for cname, mat in decls:
        lines.append(f"const matrix {cname} = {format_matrix(mat)};")
    lines.append("")
    lines.append(f"module {name}")
    lines.append(f"  s: [0..{top}] init 0;")
    lines.append("")
    for i, so in enumerate(q.steps):
        cname = names[so.matrix.tobytes()]
        lines.append(f"  [] (s = {i}) -> <<{cname}>> : (s' = {i + 1});")
    branch_terms = [f"<<{names[so.matrix.tobytes()]}>> : (s' = {n + 1 + i})"
                    for i, so in enumerate(q.branches)]
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
_CONST_RE = re.compile(r"^const matrix (\w+) = \[(.*)\];$")
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
        raise ReparseError(f"{where}: bad numeric entry {token!r}") from None


def _parse_matrix(literal: str, where: str) -> np.ndarray:
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


def reparse_model(text: str) -> Qmc:
    """Parse emitter-produced model text back into a chain.

    Accepts exactly the structure :func:`emit_qpmc` writes (the ``qmc``
    header once, before anything else; constants before the module, each one
    used; one module holding the state variable once; a linear chain, one
    measurement fan-out, terminal self-loops) and raises ReparseError, with
    the offending line, on anything else.
    Comments, blank lines and indentation are ignored.
    """
    consts: dict[str, np.ndarray] = {}
    commands: dict[int, list[tuple[str, int]] | None] = {}
    top = None
    in_module = seen_module = seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
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
        m = _CONST_RE.match(line)
        if m:
            name, literal = m.groups()
            if seen_module:
                raise ReparseError(f"{where}: constant {name} after the module line")
            if name in consts:
                raise ReparseError(f"{where}: duplicate constant {name}")
            consts[name] = _parse_matrix(literal, where)
            continue
        m = _MODULE_RE.match(line)
        if m:
            if seen_module:
                raise ReparseError(f"{where}: second module {m.group(1)}")
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
            top = int(m.group(1))
            continue
        m = _STEP_RE.match(line)
        if m and in_module:
            guard, rhs = int(m.group(1)), m.group(2).strip()
            if guard in commands:
                raise ReparseError(f"{where}: duplicate guard s = {guard}")
            if rhs == "true":
                commands[guard] = None
                continue
            actions = []
            for term in rhs.split(" + "):
                am = _ACTION_RE.match(term.strip())
                if not am:
                    raise ReparseError(f"{where}: unrecognized action {term!r}")
                cname, target = am.group(1), int(am.group(2))
                if cname not in consts:
                    raise ReparseError(f"{where}: unknown constant {cname}")
                actions.append((cname, target))
            commands[guard] = actions
            continue
        raise ReparseError(f"{where}: unrecognized line {line!r}")

    if in_module:
        raise ReparseError("module is never closed")
    if top is None:
        raise ReparseError("missing state variable declaration")
    if sorted(commands) != list(range(top + 1)):
        raise ReparseError(f"guards do not cover 0..{top} exactly once")
    used = {cname for acts in commands.values() if acts for cname, _ in acts}
    unused = [name for name in consts if name not in used]
    if unused:
        raise ReparseError(f"constant {unused[0]} is never used")

    terminals = [g for g, acts in commands.items() if acts is None]
    if not terminals or terminals != list(range(min(terminals), top + 1)):
        raise ReparseError("terminal self-loops must occupy the trailing states")
    n = min(terminals) - 1

    steps: list[np.ndarray] = []
    for i in range(n):
        acts = commands[i]
        if acts is None or len(acts) != 1 or acts[0][1] != i + 1:
            raise ReparseError(f"state {i} must step to {i + 1} with one superoperator")
        steps.append(consts[acts[0][0]])
    fan = commands[n]
    if fan is None:
        raise ReparseError(f"state {n} must carry the measurement fan-out")
    expected_targets = list(range(n + 1, top + 1))
    if [t for _, t in fan] != expected_targets:
        raise ReparseError("measurement fan-out must hit the terminals in order")
    branches = [consts[cname] for cname, _ in fan]
    count = len(branches)
    if count & (count - 1):
        raise ReparseError(f"{count} measurement branches is not a power of two")
    h = count.bit_length() - 1

    dim = branches[0].shape[0] if branches else 0
    for mat in steps + branches:
        if mat.shape != (dim, dim):
            raise ReparseError("constants disagree on the register dimension")
    k = dim.bit_length() - 1
    if 2 ** k != dim:
        raise ReparseError(f"register dimension {dim} is not a power of two")
    if h > k:
        raise ReparseError(f"{count} branches need more measured wires than the register has")
    try:
        return qmc_from_matrices(k, h, steps, branches)
    except QmcForgeError as exc:
        raise ReparseError(f"model matrices rejected: {exc}") from exc
