#!/usr/bin/env python3
"""Record the emitted-model digest of every workload for a range of seeds.

    python3 perfbench/pin_digests.py 0 99

writes ``perfbench/digests.json``. The digests are the byte contract the
benchmark checks on every run, so rerun this only for a change that is
meant to alter the emitted models, and say so in that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main(argv) -> int:
    lo, hi = (int(a) for a in argv)
    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for seed in range(lo, hi + 1):
            wl = workloads.build(name, seed)
            shas = (checks.model_sha(checks.compile_model(c, wl)) for c in wl.cases)
            table[name][str(seed)] = checks.pass_digest(shas)
        print(f"{name}: seeds {lo}..{hi} recorded", file=sys.stderr)
    payload = {"about": "sha256 over the per-model sha256 hex digests of one "
                        "pass, per workload and seed; see checks.pass_digest",
               "digests": table}
    checks.DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
