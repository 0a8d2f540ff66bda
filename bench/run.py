"""Benchmark of eaqecc: build, analyze and simulate on a pinned corpus.

    python3 bench/run.py --workload mc_lowp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The run sizes and sets up the workload (with --trace 0 at least three
times, to report the median setup time), checks every job against an
independent oracle, then repeats passes over the workload's jobs for
--seconds seconds.  It prints every metric by name and unit, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  bench/METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eaqecc benchmark (see bench/METRICS.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eaqecc" / "__init__.py").is_file():
        print(f"error: no eaqecc package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import eaqecc

    if Path(eaqecc.__file__).resolve().parent != (src / "eaqecc").resolve():
        print(f"error: imported eaqecc from {eaqecc.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {wl.why}")
    print(f"env nproc={os.cpu_count()} machine={platform.machine()} "
          f"python={platform.python_version()} numpy={np.__version__} commit={commit()}")
    import harness

    ledger = harness.jobs.Ledger()
    values, lines = harness.measure(wl, args, ledger)
    for line in lines:
        print(line)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}")
        else:
            print(f"metric {m['name']} missing", file=sys.stderr)
    print(f"failed_frac {ledger.failed / max(ledger.attempted, 1):.6g} "
          f"({ledger.failed} of {ledger.attempted} jobs)")
    correct = ledger.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
