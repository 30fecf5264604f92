"""Line-oriented circuit text format.

::

    # comment
    qubits <k>
    gate <SPELLING> <wire> [<wire> ...]
    cgate <SPELLING> <target> [<target> ...] ctrl <control> [<control> ...]
    measure <wire>

Wires are 1-based. ``qubits`` must come first. ``cgate`` is sugar for the
``controlled(...)`` combinator; the control wires occupy the gate's
lower-numbered inputs. A wire may be measured at most once, and only as its
final operation; wires that are never measured are terminated implicitly at
the end of the file.
"""

from __future__ import annotations

from io import StringIO

from .circuit import (MEASURE, QUBIT, TERMINATE, UNITARY, Circuit, Edge, Node,
                      placed, validate)
from .config import MAX_QUBITS
from .errors import (ECHO_CHARS, ArityMismatch, CircuitSyntaxError, InvalidCircuit,
                     SizeOutOfRange, ValidationFailed, WireOutOfRange, echo)
from .gates import gate_matrix

__all__ = ["parse_circuit", "emit_circuit_text"]


def _parse_wire(token: str, k: int, lineno: int) -> int:
    try:
        w = int(token)
    except ValueError:
        if not token.isdecimal():
            raise CircuitSyntaxError(lineno, f"expected a wire number, got {echo(token)}")
        w = 0  # a decimal that int() refuses has over 4,300 digits
    if not 1 <= w <= k:
        shown = w if len(token) <= ECHO_CHARS else f"of {len(token)} digits"
        raise WireOutOfRange(f"line {lineno}: wire {shown} outside 1..{k}")
    return w


class _Builder:
    def __init__(self, k: int):
        self.k = k
        self.nodes: dict[int, Node] = {}
        self.edges: list[Edge] = []
        self.next_id = 1
        for _ in range(k):
            self.nodes[self.next_id] = Node(QUBIT)
            self.next_id += 1
        # frontier[w] = (node, s_label) of the pending output on wire w,
        # or None once the wire has been measured; qubit node ids are 1..k
        self.frontier: dict[int, tuple[int, int] | None] = {
            w: (w, 1) for w in range(1, k + 1)}

    def add_gate(self, spelling: str, wires: list[int], lineno: int) -> None:
        # before the matrix: each control doubles its width
        if len(set(wires)) != len(wires):
            raise CircuitSyntaxError(lineno, f"duplicate wire in {echo(str(wires), str)}")
        matrix = gate_matrix(spelling)
        dim = matrix.shape[0].bit_length() - 1
        if len(wires) != dim:
            raise ArityMismatch(
                f"line {lineno}: {spelling} needs {dim} wires, got {len(wires)}")
        nid = self.next_id
        self.next_id += 1
        self.nodes[nid] = Node(UNITARY, dim=dim, matrix=matrix, label=spelling)
        for j, w in enumerate(wires, start=1):
            slot = self.frontier[w]
            if slot is None:
                raise CircuitSyntaxError(
                    lineno, f"wire {w} was already measured; measurement must be "
                            f"the final operation on a wire")
            src, s_label = slot
            self.edges.append(Edge(src, nid, s_label, j))
            self.frontier[w] = (nid, j)

    def add_measure(self, w: int, lineno: int) -> None:
        slot = self.frontier[w]
        if slot is None:
            raise CircuitSyntaxError(lineno, f"wire {w} measured twice")
        nid = self.next_id
        self.next_id += 1
        self.nodes[nid] = Node(MEASURE)
        src, s_label = slot
        self.edges.append(Edge(src, nid, s_label, 1))
        self.frontier[w] = None

    def finish(self) -> Circuit:
        for w in range(1, self.k + 1):
            slot = self.frontier[w]
            if slot is None:
                continue
            nid = self.next_id
            self.next_id += 1
            self.nodes[nid] = Node(TERMINATE)
            src, s_label = slot
            self.edges.append(Edge(src, nid, s_label, 1))
        return Circuit(k=self.k, nodes=self.nodes, edges=tuple(self.edges))


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text into a validated Circuit.

    Raises CircuitSyntaxError (with the offending line), SizeOutOfRange (a
    register wider than ``MAX_QUBITS``), UnknownGate, ArityMismatch,
    WireOutOfRange, or ValidationFailed.
    """
    builder: _Builder | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "qubits":
            if builder is not None:
                raise CircuitSyntaxError(lineno, "duplicate qubits declaration")
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise CircuitSyntaxError(lineno, "expected: qubits <positive k>")
            try:
                k = int(tokens[1])
            except ValueError:  # int() refuses over 4,300 digits
                raise SizeOutOfRange(f"line {lineno}: qubits value of {len(tokens[1])} "
                                     f"digits exceeds the register cap of {MAX_QUBITS}") from None
            if k < 1:
                raise CircuitSyntaxError(lineno, "expected: qubits <positive k>")
            if k > MAX_QUBITS:
                raise SizeOutOfRange(
                    f"line {lineno}: qubits {tokens[1]} exceeds the register cap of {MAX_QUBITS}")
            builder = _Builder(k)
            continue
        if builder is None:
            raise CircuitSyntaxError(lineno, "qubits declaration must come first")
        if head == "gate":
            if len(tokens) < 3:
                raise CircuitSyntaxError(lineno, "expected: gate <name> <wire>...")
            wires = [_parse_wire(t, builder.k, lineno) for t in tokens[2:]]
            builder.add_gate(tokens[1], wires, lineno)
        elif head == "cgate":
            if "ctrl" not in tokens:
                raise CircuitSyntaxError(lineno, "cgate needs a ctrl section")
            split = tokens.index("ctrl")
            targets = [_parse_wire(t, builder.k, lineno) for t in tokens[2:split]]
            controls = [_parse_wire(t, builder.k, lineno) for t in tokens[split + 1:]]
            if not targets or not controls:
                raise CircuitSyntaxError(
                    lineno, "expected: cgate <name> <targets...> ctrl <controls...>")
            spelling = tokens[1]
            for _ in controls:
                spelling = f"controlled({spelling})"
            builder.add_gate(spelling, controls + targets, lineno)
        elif head == "measure":
            if len(tokens) != 2:
                raise CircuitSyntaxError(lineno, "expected: measure <wire>")
            builder.add_measure(_parse_wire(tokens[1], builder.k, lineno), lineno)
        else:
            raise CircuitSyntaxError(lineno, f"unknown statement {echo(head)}")
    if builder is None:
        raise CircuitSyntaxError(1, "empty input: missing qubits declaration")
    circuit = builder.finish()
    problems = validate(circuit)
    if problems:
        raise ValidationFailed(problems)
    return circuit


def emit_circuit_text(c: Circuit) -> str:
    """Write a circuit back to the text format.

    Only works for circuits whose unitary nodes carry their source spelling
    (as produced by parse_circuit); reparsing the output yields the same
    circuit up to node renumbering. Measure lines come last, in ascending
    wire order. Raises ValidationFailed when the circuit breaks a structural
    rule.
    """
    gates, measured = placed(c)
    out = StringIO()
    out.write(f"qubits {c.k}\n")
    for node, wires in gates:
        if not node.label:
            raise InvalidCircuit(f"gate on wires {wires} carries no gate spelling")
        out.write(f"gate {node.label} {' '.join(map(str, wires))}\n")
    for w in measured:
        out.write(f"measure {w}\n")
    return out.getvalue()
