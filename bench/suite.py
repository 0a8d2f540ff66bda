"""Run every workload of the benchmark at several seeds and summarise.

    python3 bench/suite.py --seeds 1,2,3 --seconds 20 [--trace] [--out FILE]

Runs bench/run.py once per workload and seed, one run at a time, each in
its own process (peak RSS is per process).  For every metric it prints the
median of the runs and the spread: the distance between the first and
third quartile of the runs as a share of their median.  --out writes the
runs (with the lines each printed) and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--out", help="write runs and summary to this JSON file")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"seconds": args.seconds, "seeds": seeds, "trace": int(args.trace), "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed={seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            env = next((line[4:] for line in lines if line.startswith("env ")), "")
            report["env"] = env
            ok = ok and result["correct"]
            runs.append({"seed": seed, "elapsed_s": elapsed, **result, "lines": lines[:-1]})
            print(f"{name} seed={seed} correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']} elapsed={elapsed:.1f}s", flush=True)
        metrics = sorted({m for r in runs for m in r["metrics"]})
        summary = {}
        for m in metrics:
            values = [r["metrics"][m]["value"] for r in runs if m in r["metrics"]]
            summary[m] = {"unit": runs[0]["metrics"][m]["unit"], **summarise(values)}
            s = summary[m]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name} {m}: median {s['median']:.6g} {s['unit']} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {spread}")
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
