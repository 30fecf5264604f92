"""Command-line front end: validate, compile, simulate, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 bad input (bad argument,
unreadable file, syntax error, invalid circuit, malformed model).
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .circuit import Circuit
from .config import DEFAULT_TOL, MAX_KET_AMPLITUDES, MAX_QUBITS, check_tolerance
from .emit import emit_qpmc, reparse_model
from .errors import QmcForgeError, SizeOutOfRange, echo
from .evaluate import check_equivalence, random_kets, run_qmc
from .normalize import translate
from .parser import parse_circuit
from .qmc import build_qmc, verify_row_stochasticity

__all__ = ["main", "gen_test_circuit"]

log = logging.getLogger("qmcforge")

STRATEGIES = ("composed", "direct", "naive-adjacent")
TEST_SIZES = range(3, MAX_QUBITS + 1)


def gen_test_circuit(size: int) -> Circuit:
    """Deterministic stress circuit on ``size`` wires for benchmarking.

    A cycle of CNOTs: wire order follows a stride that is coprime to the
    register size, and each gate lists its wires high-to-low, so consecutive
    gates always share a wire and every gate needs a nontrivial rearrangement.
    No measurements.
    """
    if size not in TEST_SIZES:
        raise SizeOutOfRange(f"test circuit size must be in 3..{MAX_QUBITS}, got {size}")
    stride = max(s for s in range(1, size // 2 + 1) if math.gcd(s, size) == 1)
    walk = [(i * stride) % size + 1 for i in range(size + 1)]
    lines = [f"qubits {size}"]
    for i in range(size):
        lines.append(f"gate CNOT {walk[i + 1]} {walk[i]}")
    return parse_circuit("\n".join(lines))


def _read_text(path: str) -> str:
    """The contents of a circuit, state or model file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise QmcForgeError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_circuit(path: str) -> Circuit:
    return parse_circuit(_read_text(path))


def _write_or_print(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_ket(args, k: int) -> np.ndarray:
    dim = 2 ** k
    if args.state_file is not None:
        if args.input is not None:
            raise QmcForgeError("--input and --state-file cannot be given together")
        try:
            # amplitudes are floats: a huge integer reads as inf and fails the
            # norm check, where int() would refuse one of over 4,300 digits
            pairs = json.loads(_read_text(args.state_file), parse_int=float)
        except RecursionError as exc:
            raise QmcForgeError("state file is nested too deeply") from exc
        try:
            v = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise QmcForgeError(
                f"state file must hold a list of [re, im] number pairs ({exc})") from exc
        if v.shape != (dim,):
            raise QmcForgeError(
                f"state file holds {v.shape[0]} amplitudes, need {dim}")
        # run_qmc's unit-trace check of |v><v|, whose diagonal is v * conj(v),
        # made first with the same --tol so that the error names the norm;
        # an infinite amplitude gives a NaN trace, refused without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            trace = (v * v.conj()).sum().real
        if not abs(trace - 1.0) <= args.tol:
            raise QmcForgeError(f"state file norm is {float(np.sqrt(trace))!r}, expected "
                                f"a squared norm within --tol {args.tol!r} of 1")
        return v
    bits = "0" * k if args.input is None else args.input
    if len(bits) != k or any(b not in "01" for b in bits):
        raise QmcForgeError(f"--input wants {k} bits, got {bits!r}")
    v = np.zeros(dim, dtype=np.complex128)
    v[int(bits, 2)] = 1.0
    return v


def _compile(args):
    c = _read_circuit(args.circuit)
    s, account = translate(c, strategy=args.strategy,
                           emit_swaps_as_gates=args.emit_swaps_as_gates)
    q = build_qmc(s)
    violations = verify_row_stochasticity(q)
    if violations:
        worst = max(v.deviation for v in violations)
        raise QmcForgeError(
            f"compiled chain is not row-stochastic ({len(violations)} states, "
            f"worst deviation {worst:.3e})")
    return c, s, account, q


def cmd_validate(args) -> int:
    c = _read_circuit(args.circuit)
    info = {"valid": True, "qubits": c.k,
            "nodes": len(c.nodes), "edges": len(c.edges)}
    if args.fmt == "json":
        _write_or_print(json.dumps(info, indent=2) + "\n", args.output)
    else:
        _write_or_print(
            f"ok: {c.k} qubits, {len(c.nodes)} nodes, {len(c.edges)} edges\n",
            args.output)
    return 0


def cmd_compile(args) -> int:
    _, s, account, q = _compile(args)
    text = emit_qpmc(q, name=args.name)
    if args.fmt == "json":
        payload = {
            "qubits": s.k, "steps": s.n, "measured": s.h,
            "swap_account": {"per_gate": list(account.per_gate),
                             "total": account.total,
                             "strategy": account.strategy},
            "model": text,
        }
        _write_or_print(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _write_or_print(text, args.output)
    log.info("compiled %s: %d wires, %d steps, %d outcomes, %d swaps (%s)",
             args.circuit, s.k, s.n, 2 ** s.h, account.total, account.strategy)
    return 0


def cmd_simulate(args) -> int:
    c, s, _, q = _compile(args)
    tau = _load_ket(args, s.k)
    report = run_qmc(q, np.outer(tau, tau.conj()), tol=args.tol)
    if args.fmt == "json":
        payload = {
            "qubits": s.k, "measured": s.h,
            "outcomes": [{"bits": o.bits, "probability": o.probability}
                         for o in report.outcomes],
        }
        _write_or_print(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    lines = [f"outcome probabilities ({s.h} measured of {s.k} wires):"]
    for o in report.outcomes:
        shown = round(o.probability, 10) + 0.0  # drop the sign of a rounded-away -0
        lines.append(f"  {o.bits or '(none)'}  {shown:.10f}")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    if args.random < 0:
        raise QmcForgeError(f"--random wants a count >= 0, got {args.random}")
    if args.against:
        # the oracle needs only the circuit: there is no compile to check
        c, s = _read_circuit(args.circuit), None
        q = reparse_model(_read_text(args.against))
    else:
        c, s, _, q = _compile(args)
    most = MAX_KET_AMPLITUDES >> c.k
    if args.random > most:
        raise SizeOutOfRange(f"--random wants at most {most} kets of {c.k} wires "
                             f"(4^{MAX_QUBITS} amplitudes), got {echo(str(args.random), str)}")
    # the basis battery alone is check_equivalence's default, formed once there
    inputs = None
    if args.random:
        rng = np.random.default_rng(args.seed)
        inputs = list(np.eye(2 ** c.k, dtype=np.complex128)) + random_kets(c.k, args.random, rng)
    rep = check_equivalence(c, s, q, inputs, tol=args.tol)
    count = 2 ** c.k + args.random
    if args.fmt == "json":
        # strict JSON has no NaN or infinity: a non-finite deviation is
        # written as a string ("nan", "inf")
        clauses = {"state": "state", "chain": "chain", "probability": "prob",
                   "support": "support"}
        deviations = {label: getattr(rep, name) for label, name in clauses.items()}
        payload = {"passed": rep.passed, "inputs": count,
                   "deviations": {name: v if math.isfinite(v) else str(v)
                                  for name, v in deviations.items()},
                   "worst": {label: dict(zip(("input", "outcome"), rep.worst_at[name]))
                             for label, name in clauses.items()},
                   "failures": list(rep.failures)}
        _write_or_print(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
    else:
        lines = [f"checked {count} input states",
                 f"  state deviation       {rep.state:.3e}",
                 f"  chain deviation       {rep.chain:.3e}",
                 f"  probability deviation {rep.prob:.3e}",
                 f"  support leakage       {rep.support:.3e}",
                 "PASS" if rep.passed else "FAIL"]
        lines.extend(f"  {f}" for f in rep.failures)
        _write_or_print("\n".join(lines) + "\n", args.output)
    return 0 if rep.passed else 1


def _parse_sizes(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            sizes = range(int(lo), int(hi) + 1)
        else:
            sizes = [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise QmcForgeError(f"--sizes wants 'A..B' or a comma list, got {text!r}") from exc
    if not sizes:
        raise QmcForgeError(f"--sizes {text!r} names no size")
    # checked before any size runs; all() stops at the first size out of
    # range, so a huge range is never expanded
    if not all(size in TEST_SIZES for size in sizes):
        raise SizeOutOfRange(f"--sizes {text!r} leaves 3..{MAX_QUBITS}")
    return list(sizes)


def cmd_bench(args) -> int:
    if args.runs < 1:
        raise QmcForgeError(f"--runs wants a count >= 1, got {args.runs}")
    sizes = _parse_sizes(args.sizes)

    def pipeline(c):
        s, account = translate(c, strategy=args.strategy,
                               emit_swaps_as_gates=args.emit_swaps_as_gates)
        emit_qpmc(build_qmc(s))
        return account

    circuits = [gen_test_circuit(size) for size in sizes]
    # one untimed run of every size before any is timed
    for c in circuits:
        pipeline(c)
    rows = []
    # timed as timeit does: a collector pass inside a run would be timed
    # with it, so it collects first and stays off during the runs (the
    # pipeline leaves no reference cycles to collect)
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for size, c in zip(sizes, circuits):
            account = pipeline(c)  # warmup right before the timed runs
            times = []
            for _ in range(args.runs):
                t0 = time.perf_counter()
                pipeline(c)
                times.append(time.perf_counter() - t0)
            rows.append({"size": size, "mean_s": float(np.mean(times)),
                         "stddev_s": float(np.std(times)),
                         "runs": args.runs, "swaps": account.total,
                         "strategy": account.strategy})
            log.info("bench size %d: %.4fs mean", size, rows[-1]["mean_s"])
    finally:
        if collecting:
            gc.enable()

    header = f"{'size':>4}  {'mean (s)':>10}  {'stddev (s)':>10}  {'swaps':>6}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['size']:>4}  {r['mean_s']:>10.4f}  "
                     f"{r['stddev_s']:>10.4f}  {r['swaps']:>6}")
    print("\n".join(lines))

    report = {"format": "qmcforge-bench/1", "strategy": args.strategy,
              "emit_swaps_as_gates": args.emit_swaps_as_gates, "results": rows}
    out = args.output or "qmcforge-bench.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report written to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as a QmcForgeError, so ``main`` reports them
    on its one ``error:`` line with exit code 2, like every other bad input.
    Subcommand parsers are made with this class too."""

    def error(self, message):
        raise QmcForgeError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="qmcforge",
        description="Compile quantum circuits into superoperator-weighted "
                    "Markov chains and check the two semantics against "
                    "each other.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    def routing(sp):
        sp.add_argument("--strategy", choices=STRATEGIES, default="composed",
                        help="swap synthesis strategy (default: composed)")
        sp.add_argument("--emit-swaps-as-gates", action="store_true",
                        help="keep rearrangements as standalone chain steps")

    def tolerance(sp):
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL.pipeline,
                        help="numerical tolerance for end-to-end checks")

    def reporting(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        dest="fmt", help="stdout format")
        sp.add_argument("--output", help="write result to this file instead "
                                         "of stdout ('-' forces stdout)")

    sp = sub.add_parser("validate", help="parse a circuit file and check the "
                                         "structural rules")
    sp.add_argument("circuit")
    reporting(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("compile", help="translate a circuit into a chain "
                                        "model and print it")
    sp.add_argument("circuit")
    sp.add_argument("--name", default="model", help="module name in the output")
    routing(sp)
    reporting(sp)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("simulate", help="run the compiled chain on an input "
                                         "state and print outcome probabilities")
    sp.add_argument("circuit")
    sp.add_argument("--input", help="basis-state bits, wire 1 first (default all zeros)")
    sp.add_argument("--state-file", help="JSON list of [re, im] amplitude pairs")
    routing(sp)
    tolerance(sp)
    reporting(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="check circuit semantics against the "
                                       "compiled chain on a battery of inputs")
    sp.add_argument("circuit")
    sp.add_argument("--against", help="reparse this model file instead of the "
                                      "freshly compiled chain; the circuit is "
                                      "not compiled, so the routing flags have "
                                      "no effect")
    sp.add_argument("--random", type=int, default=0, metavar="N",
                    help="add N random unit kets to the basis-state battery")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the random kets")
    routing(sp)
    tolerance(sp)
    reporting(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bench", help="time the pipeline on generated circuits")
    sp.add_argument("--sizes", default="3..8",
                    help="'A..B' range or comma list (default 3..8)")
    sp.add_argument("--runs", type=int, default=5,
                    help="timed runs per size after one warmup (default 5)")
    sp.add_argument("--output", help="write the JSON report to this file "
                                     "(default qmcforge-bench.json)")
    routing(sp)
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    level = os.environ.get("QMCFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        if "tol" in args:
            check_tolerance(args.tol, "--tol")
        if "seed" in args and args.seed < 0:
            raise QmcForgeError(f"--seed wants an integer >= 0, got {args.seed}")
        return args.func(args)
    except (QmcForgeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
