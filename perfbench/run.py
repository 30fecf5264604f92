#!/usr/bin/env python3
"""Compile-and-verify benchmark for qmcforge.

One operation takes one circuit's text through the ``compile`` path and
then the ``verify --against`` path (see ``layers.py``). Each workload is a
closed loop with a single caller: the next circuit is sent only after the
previous operation finished. The program is imported from ``src/`` of the
checkout this file sits in.

    python3 perfbench/run.py --workload measured --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
calls with a span around each and prints per-layer self time, shares and
counters. ``--workload all`` runs every workload untraced and traced, each
in its own fresh process, and prints the tracing overhead and whether the
predicted dominant layers hold. The last stdout line is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Full reports
and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("measured", "long-chain")
# the layer each workload should spend most of its time in
PREDICTED_DOMINANT = {"measured": "evaluate"}
IMPORT_REPEATS = 5
XOR_SAMPLES = 4
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0)

E2E_UNITS = {"setup_s": "s", "compile_s": "s", "verify_s": "s",
             "circuits_per_s": "1/s", "model_bytes": "bytes",
             "peak_rss_mb": "MB"}
# metric -> the span whose self time per operation it reports (both row
# checks of an operation share one span name, so their times add up)
LAYER_TIMES = {
    "parser.parse_s": "parser.parse_circuit",
    "normalize.translate_s": "normalize.translate",
    "qmc.build_s": "qmc.build_qmc",
    "qmc.rowcheck_s": "qmc.verify_row_stochasticity",
    "emit.emit_s": "emit.emit_qpmc",
    "emit.reparse_s": "emit.reparse_model",
    "evaluate.check_s": "evaluate.check_equivalence",
}
PASS_COUNTERS = ("parser.lines", "normalize.steps", "normalize.swaps",
                 "qmc.states", "emit.consts", "evaluate.inputs",
                 "evaluate.outcomes")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="length of the timed loop (at least one full pass runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--import-probe", action="store_true",
                   help=argparse.SUPPRESS)  # time the import in a fresh process
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# --- environment -------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, asked from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        blas_name = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "machine": platform.machine()}


# --- statistics --------------------------------------------------------------

def tail(samples):
    """Highest ladder percentile with at least ten samples beyond it, as
    (percentile, value, sample count), or None when the run is too short."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n
    return None


def self_times(spans):
    """Span duration minus the time its children cover."""
    out = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.end - sp.start
    return out


def layer_metrics(spans, records, first_of) -> tuple[dict, dict]:
    """Per-layer metrics of the traced run and the layer shares."""
    from layers import LAYERS
    selfs = self_times(spans)
    per_op: dict[int, dict[str, float]] = {}
    layer_total = dict.fromkeys(LAYERS + ("op",), 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    op_wall = []
    for sp, st in zip(spans, selfs):
        bucket = per_op.setdefault(sp.op, {})
        bucket[sp.name] = bucket.get(sp.name, 0.0) + st
        layer_total[sp.layer] += st
        if sp.layer == "op":
            bucket["op.self"] = bucket.get("op.self", 0.0) + st
        elif sp.error:
            errors[sp.layer] += 1
        if sp.name == "op":
            op_wall.append(sp.end - sp.start)
    ops = list(per_op.values())
    m = {name: statistics.median(o.get(span, 0.0) for o in ops)
         for name, span in LAYER_TIMES.items()}
    total = lambda name: sum(o.get(name, 0.0) for o in ops)
    emitted = sum(r.counters.get("emit.bytes", 0) for r in records)
    outcomes = sum(r.counters.get("evaluate.outcomes", 0) for r in records)
    m["emit.emit_mb_per_s"] = emitted / 1e6 / total("emit.emit_qpmc")
    m["emit.reparse_mb_per_s"] = emitted / 1e6 / total("emit.reparse_model")
    m["evaluate.s_per_outcome"] = total("evaluate.check_equivalence") / max(outcomes, 1)
    for name in PASS_COUNTERS:
        m[name] = sum(r.counters.get(name, 0) for r in first_of.values())
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    m["op.self_s"] = statistics.median(o.get("op.self", 0.0) for o in ops)
    m["op.wall_s"] = statistics.median(op_wall)
    busy = sum(op_wall)
    shares = {layer: 100.0 * layer_total[layer] / busy for layer in layer_total}
    for layer, share in shares.items():
        m[f"{layer}.share"] = share
    return m, shares


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(".share"):
        return "%"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith(("_s", ".s_per_outcome")):
        return "s"
    return "count"


# --- one workload --------------------------------------------------------------

def import_probe() -> float:
    """Time to import qmcforge in a fresh process."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--import-probe"], capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["import_s"]


def import_program() -> float:
    """Import qmcforge from the checkout's src/ and return the time it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qmcforge
    import_s = time.perf_counter() - t0
    if not Path(qmcforge.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qmcforge was imported from {qmcforge.__file__}")
    return import_s


def run_workload(args) -> int:
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import qmcforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.import_probe:
        print(json.dumps({"import_s": import_s}))
        return 0

    import numpy as np
    import checks
    import workloads
    from layers import DIRECT, Tracer, run_op

    wl = workloads.build(args.workload, args.seed)
    t = time.perf_counter()
    warm, warm_art = run_op(wl.cases[0], 0, wl, keep=True)
    warm_s = time.perf_counter() - t

    failures: list[str] = []
    attempted = 1
    if warm.failure:
        failures.append(f"warm-up: {warm.failure}")
    first_of = {} if warm.failure else {0: warm}

    # once-per-run checks, outside the timed loop
    checks_run = []
    if warm_art is not None:
        checks_run.append(("mutation", lambda: checks.mutation_check(wl, warm_art)))
        if wl.cases[0].cnots is not None:
            rng = np.random.default_rng(args.seed)
            checks_run.append(("xor", lambda: checks.xor_check(
                wl.cases[0], warm_art, XOR_SAMPLES, rng)))
    for name, check in checks_run:
        attempted += 1
        try:
            problem = check()
        except Exception as exc:  # a crashing check is a failed check
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{name} check: {problem}")
    del warm_art

    # the timed loop: one caller, closed loop, at least one full pass
    caller = Tracer() if args.trace else DIRECT
    records = []
    n = len(wl.cases)
    start = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - start < args.seconds:
        rec, _ = run_op(wl.cases[i % n], i % n, wl, caller, op_id=i + 1)
        if rec.failure is None:
            seen = first_of.setdefault(rec.index, rec)
            if seen.sha256 != rec.sha256:
                rec.failure = f"model of case {rec.index} changed between passes"
        if rec.failure:
            failures.append(f"op {i + 1} (case {rec.index}): {rec.failure}")
        records.append(rec)
        i += 1
    loop_s = time.perf_counter() - start
    attempted += len(records)

    # emitted bytes against the recorded digest of this workload and seed;
    # an unrecorded seed is covered by re-checking seed 0's digest
    attempted += 1
    if len(first_of) == n and not any(r.failure for r in first_of.values()):
        digest = checks.pass_digest(first_of[j].sha256 for j in range(n))
        pin_seed = args.seed
        if checks.pinned_digest(args.workload, args.seed) is None:
            pin_seed = 0
            anchor = workloads.build(args.workload, 0)
            digest = checks.pass_digest(checks.model_sha(checks.compile_model(c, anchor))
                                        for c in anchor.cases)
        pinned = checks.pinned_digest(args.workload, pin_seed)
        if digest != pinned:
            failures.append(f"digest check: seed {pin_seed} emits {digest}, "
                            f"recorded {pinned}")
    else:
        failures.append("digest check: no complete clean pass to digest")

    good = [r for r in records if not r.failure] or records
    report = {"environment": environment(args), "failures": failures,
              "attempted": attempted, "failed": len(failures),
              "fail_ratio": len(failures) / attempted,
              "ops": len(records), "loop_s": loop_s,
              "op_wall_s": statistics.median(r.wall_s for r in good)}
    if args.trace:
        metrics, shares = layer_metrics(caller.spans, records, first_of)
        dominant = max(shares.keys() - {"op"}, key=shares.get)
        report["dominant"] = dominant
        report["predicted_dominant"] = PREDICTED_DOMINANT.get(args.workload)
        # the direct cost of the spans, which run-to-run drift cannot hide
        probe, t = Tracer(), time.perf_counter()
        with probe.span("op", 0):
            for _ in range(1000):
                probe.call("op", int)
        per_span = (time.perf_counter() - t) / 1001
        report["span_cost_per_op_s"] = per_span * len(caller.spans) / len(records)
    else:
        imports = [import_s] + [import_probe() for _ in range(IMPORT_REPEATS - 1)]
        metrics = {
            "setup_s": statistics.median(imports) + warm_s,
            # means, not medians: this machine's speed flips between two
            # levels some 30% apart, and a median of a few multi-second
            # operations jumps between them where the mean moves smoothly
            "compile_s": statistics.fmean(r.compile_s for r in good),
            "verify_s": statistics.fmean(r.verify_s for r in good),
            "circuits_per_s": len(records) / loop_s,
            "model_bytes": sum(r.counters.get("emit.bytes", 0) for r in first_of.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["import_s"] = imports
        report["warm_up_s"] = warm_s
        for name in ("compile_s", "verify_s"):
            samples = [getattr(r, name) for r in good]
            report[f"{name}.tail"] = tail(samples)
            report[f"{name}.samples"] = samples
    report["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        spans = [sp.__dict__ for sp in caller.spans]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")

    print_report(report)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": report["metrics"]}))
    return 0 if not failures else 1


def print_report(report):
    env = report["environment"]
    print(f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"{report['ops']} ops in {report['loop_s']:.2f} s")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()
                                     if k not in ("workload", "seed", "trace")))
    for name, m in report["metrics"].items():
        v = m["value"]
        shown = f"{v:>14d}" if isinstance(v, int) else f"{v:>14.6g}"
        print(f"  {name:<26} {shown} {m['unit']}")
    for name in ("compile_s.tail", "verify_s.tail"):
        if name in report:
            t = report[name]
            shown = (f"p{t[0]:g} = {t[1]:.6g} s over {t[2]} samples" if t
                     else "omitted: fewer than 11 samples")
            print(f"  {name:<26} {shown}")
    print(f"  {'fail_ratio':<26} {report['fail_ratio']:>14.6g} "
          f"({report['failed']} failed / {report['attempted']} attempted)")
    if "dominant" in report:
        pred = report["predicted_dominant"]
        verdict = ("no prediction" if pred is None
                   else "as predicted" if pred == report["dominant"]
                   else f"predicted {pred}")
        print(f"  dominant layer: {report['dominant']} ({verdict})")
    for f in report["failures"][:10]:
        print(f"FAILED {f}", file=sys.stderr)


# --- all workloads ---------------------------------------------------------------

def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    ok = True
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode not in (0, 1) or not lines:
                print(f"error: {name} trace {trace} exited {done.returncode}",
                      file=sys.stderr)
                return 2
            last = json.loads(lines[-1])
            ok &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            for k, v in last["metrics"].items():
                metrics[f"{name}/{k}"] = v
            stem = f"{name}-s{args.seed}-t{trace}"
            results[name, trace] = json.loads((OUT / f"report-{stem}.json").read_text())

    print("summary")
    qmc_share = {}
    for name in WORKLOADS:
        plain, traced = results[name, 0], results[name, 1]
        overhead = traced["op_wall_s"] - plain["op_wall_s"]
        share = {k.split(".")[0]: v["value"] for k, v in traced["metrics"].items()
                 if k.endswith(".share")}
        qmc_share[name] = share["qmc"]
        print(f"  {name:<12} traced minus untraced op time {overhead * 1e3:+.3f} ms "
              f"({100 * overhead / plain['op_wall_s']:+.2f}%); span cost "
              f"{traced['span_cost_per_op_s'] * 1e6:.1f} us/op; shares "
              + " ".join(f"{k} {v:.1f}%" for k, v in share.items()))
        pred = PREDICTED_DOMINANT.get(name)
        if pred is not None:
            print(f"  {'':<12} dominant {traced['dominant']}, predicted {pred}: "
                  f"{'confirmed' if traced['dominant'] == pred else 'NOT confirmed'}")
    top = max(qmc_share, key=qmc_share.get)
    print(f"  highest qmc share on {top} ({qmc_share[top]:.1f}%), predicted "
          f"long-chain: {'confirmed' if top == 'long-chain' else 'NOT confirmed'}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # all load comes from this one process; BLAS gets one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all" and not args.import_probe:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
