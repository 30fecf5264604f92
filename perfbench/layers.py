"""One operation: a circuit's text through ``compile`` and ``verify --against``.

compile: parse_circuit -> translate -> build_qmc -> verify_row_stochasticity
         -> emit_qpmc
verify:  reparse_model -> verify_row_stochasticity -> check_equivalence

Every call into a qmcforge layer goes through a caller. ``DIRECT`` just
calls; a ``Tracer`` records a span around the call. Both run the same calls
in the same order, so the traced run differs from the untraced one only by
the cost of the spans.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from qmcforge import (build_qmc, check_equivalence, emit_qpmc, parse_circuit,
                      reparse_model, translate, verify_row_stochasticity)

LAYERS = ("parser", "normalize", "qmc", "emit", "evaluate")


class Direct:
    """Untraced caller."""

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, op_id=None):
        return nullcontext()


DIRECT = Direct()


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """Keeps every span in memory; ``spans`` is written out after the run.

    Spans nest as op -> compile/verify -> layer call. A span's layer is
    ``op`` for the benchmark's own spans and the qmcforge module otherwise.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name, op_id=None, layer="op"):
        parent = self._stack[-1] if self._stack else None
        op = op_id if op_id is not None else parent.op
        sp = Span(len(self.spans), parent.sid if parent else None, op, name,
                  layer, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, layer, fn, *args, **kwargs):
        with self.span(f"{layer}.{fn.__name__}", layer=layer):
            return fn(*args, **kwargs)


def model_sha(model: str) -> str:
    """sha256 of the model text; the text is ASCII, so len() counts bytes."""
    return hashlib.sha256(model.encode("ascii")).hexdigest()


@dataclass
class OpRecord:
    """What one operation produced, minus the large objects."""

    index: int
    compile_s: float = 0.0
    verify_s: float = 0.0
    wall_s: float = 0.0
    sha256: str = ""
    counters: dict[str, int] = field(default_factory=dict)
    failure: str | None = None


@dataclass
class Artifacts:
    """The objects an operation built, for checks made outside timing."""

    circuit: object
    snf: object
    reparsed: object
    model: str


def run_op(case, index: int, workload, caller=DIRECT, op_id: int = 0,
           keep: bool = False) -> tuple[OpRecord, Artifacts | None]:
    """Compile and verify one circuit; never raises for a failed operation.

    A failure (an exception, a non-stochastic row, a FAIL verdict) is
    recorded in ``OpRecord.failure``.
    """
    rec = OpRecord(index)
    t0 = time.perf_counter()
    try:
        with caller.span("op", op_id):
            with caller.span("compile"):
                c = caller.call("parser", parse_circuit, case.text)
                s, account = caller.call("normalize", translate, c,
                                         strategy=workload.strategy,
                                         emit_swaps_as_gates=workload.swaps_as_gates)
                q = caller.call("qmc", build_qmc, s)
                bad_rows = caller.call("qmc", verify_row_stochasticity, q)
                model = caller.call("emit", emit_qpmc, q)
            t1 = time.perf_counter()
            with caller.span("verify"):
                q2 = caller.call("emit", reparse_model, model)
                bad_rows2 = caller.call("qmc", verify_row_stochasticity, q2)
                report = caller.call("evaluate", check_equivalence, c, s, q2,
                                     list(case.battery))
            t2 = time.perf_counter()
            rec.compile_s, rec.verify_s = t1 - t0, t2 - t1
            rec.sha256 = model_sha(model)
            rec.counters = {
                "parser.lines": case.text.count("\n"),
                "normalize.steps": s.n,
                "normalize.swaps": account.total,
                "qmc.states": len(q.states),
                "emit.bytes": len(model),
                "emit.consts": model.count("\nconst matrix "),
                "evaluate.inputs": len(case.battery),
                "evaluate.outcomes": len(case.battery) * 2 ** s.h,
            }
            if bad_rows or bad_rows2:
                rec.failure = f"chain is not row-stochastic: {(bad_rows or bad_rows2)[0]}"
            elif not report.passed:
                rec.failure = "honest model verified FAIL: " + "; ".join(report.failures[:3])
    except Exception as exc:  # the op boundary: record and keep running
        rec.failure = f"{type(exc).__name__}: {exc}"
        return rec, None
    finally:
        rec.wall_s = time.perf_counter() - t0
    return rec, (Artifacts(c, s, q2, model) if keep else None)
