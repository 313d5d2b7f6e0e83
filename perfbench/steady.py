#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report spreads.

For every workload and every end-to-end metric this prints the median of
the runs and the spread (third quartile minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median), next
to the metric's bound from ``BENCHMARK.json``.  Runs are sequential.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads warm --seeds 1 2 3 4 5
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --out perfbench/results/steady.json

With ``--trace 1`` it collects the per-layer metrics instead and marks
which of them read exactly the same on every run; repeat one seed
(``--seeds 101 101 101``) to check that counts and virtual makespans
repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["elapsed_s"] = elapsed
    return doc


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run and the summary here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": args.seconds, "seeds": args.seeds,
                    "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            doc = run_once(workload, seed, args.seconds, args.trace)
            runs.append(doc)
            print(f"{workload} seed {seed}: correct={doc['correct']} "
                  f"attempted={doc['attempted']} failed={doc['failed']} "
                  f"({doc['elapsed_s']:.1f}s)", flush=True)
        steady &= all(r["correct"] for r in runs)
        summary = {}
        if args.trace:
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                same = len(set(values)) == 1
                summary[name] = {"median": statistics.median(values),
                                 "identical": same, "values": values}
                print(f"  {name:28s} median {statistics.median(values):14.6g}"
                      f"  {'identical' if same else ''}")
        else:
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs]
                med, spr = spread(values)
                ok = spr <= bound / 3
                steady &= ok
                summary[name] = {"median": med, "spread": spr, "bound": bound,
                                 "within_third_of_bound": ok, "values": values}
                print(f"  {name:16s} median {med:14.6g}  spread {spr:7.4f}  "
                      f"bound {bound:5.3f}  {'ok' if ok else 'WIDE'}")
        report["workloads"][workload] = {
            "summary": summary,
            "correct": all(r["correct"] for r in runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
