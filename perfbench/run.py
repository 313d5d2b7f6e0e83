#!/usr/bin/env python3
"""Repository benchmark: run one workload and print one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is the host/provenance block.  Progress, warnings and
failures go to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold", "warm", "parallel", "serve")
#: Set-ups timed per run; ``setup_s`` is their median.  The counting
#: workloads spread theirs over the run (see :func:`run_count`); serve's
#: set-up (service + server start) takes under a millisecond, so it takes
#: more samples, all before the traffic.
SETUP_REPS = {"cold": 15, "warm": 3, "parallel": 3, "serve": 100}

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "edges_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "preprocess.cpu_s": "s",
    "preprocess.calls": "count",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.open_s": "s",
    "store.bytes_loaded": "B",
    "store.hit_ratio": "ratio",
    "kernels.cpu_s": "s",
    "kernels.calls": "count",
    "kernels.tasks": "count",
    "kernels.tasks_per_cpu_s": "1/s",
    "kernels.hash_probe": "count",
    "kernels.hash_insert": "count",
    "hashing.probed_layout_s": "s",
    "hashing.probed_layout_calls": "count",
    "blocks.exchange_s": "s",
    "blocks.exchange_calls": "count",
    "blocks.exchange_bytes": "B",
    "engine.unattributed_s": "s",
    "engine.virtual_makespan_s": "s",
    "tc2d.op_p50_s": "s",
    "coveredge.op_p50_s": "s",
    "pool.serialize_s": "s",
    "pool.dispatch_s": "s",
    "pool.execute_s": "s",
    "pool.collect_s": "s",
    "pool.non_execute_frac": "ratio",
    "pool.payload_bytes": "B",
    "pool.resident_hit_ratio": "ratio",
    "serve.op_p90_s": "s",
    "serve.warm_p50_s": "s",
    "serve.cold_p50_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.hit_ratio": "ratio",
    "serve.queue_depth_max": "count",
    "serve.rejected": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "host.steal_s": "s",
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests while this VM's CPUs
    had work (``steal`` in ``/proc/stat``, summed over CPUs); 0 where the
    counter is unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_commit(root: Path) -> str:
    """HEAD commit from ``.git`` without running git; ``unknown`` in a
    checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_block(args: argparse.Namespace, parallelism: int) -> dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers_or_clients": parallelism,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": read_commit(ROOT),
    }


# -- metric assembly ---------------------------------------------------------


def end_to_end(windows: list[tuple[list[Any], float]],
               op_walls: list[float], concurrency: int, setups: list[float],
               peak_mb: float) -> dict:
    """End-to-end metrics from the run's windows: ``(records, elapsed)``
    per round of ops, or per client cycle of requests on serve.

    ``op_p50_s`` is the median of ``op_walls``.  Throughputs are medians
    over windows, so a few seconds of a slowed host move them less than a
    total-over-total ratio would.  ``peak_mb`` is the peak RSS read as
    the op loop ended.
    """
    edge_rates = []
    op_rates = []
    for recs, elapsed in windows:
        done = [r for r in recs if r.ok]
        busy = sum(r.wall_s for r in done)
        if busy > 0:
            edge_rates.append(sum(r.edges for r in done) / busy)
        op_rates.append(len(done) / elapsed)
    return {
        "setup_s": median(setups),
        "op_p50_s": median(op_walls),
        "edges_per_s": median(edge_rates),
        "requests_per_s": concurrency * median(op_rates),
        "peak_rss_mb": peak_mb,
    }


def span_layers(tracer: Any, rounds: int) -> dict[str, float]:
    """Per-round layer totals read from the traced spans."""

    def total(prefix: str) -> float:
        return sum(s.own_s for s in tracer.select(prefix)) / rounds

    def calls(prefix: str) -> float:
        return len(tracer.select(prefix)) / rounds

    def attr_sum(prefix: str, key: str) -> float:
        return sum(s.attrs[key] for s in tracer.select(prefix)) / rounds

    opens = tracer.select("store.open_run")
    return {
        "preprocess.cpu_s": total("preprocess."),
        "preprocess.calls": calls("preprocess."),
        "store.save_s": total("store.save_rank") + total("store.finalize"),
        "store.load_s": total("store.load_rank"),
        "store.open_s": total("store.open_run"),
        "store.bytes_loaded": attr_sum("store.load_rank", "nbytes"),
        "store.hit_ratio": (
            sum(s.attrs["hit"] for s in opens) / len(opens) if opens else 0.0
        ),
        "kernels.cpu_s": total("kernels."),
        "hashing.probed_layout_s": total("hashing.probed_layout"),
        "hashing.probed_layout_calls": calls("hashing.probed_layout"),
        "blocks.exchange_s": total("blocks.exchange"),
        "blocks.exchange_calls": calls("blocks.exchange"),
        "blocks.exchange_bytes": attr_sum("blocks.exchange", "nbytes"),
    }


def zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def count_layers(untraced: list[Any], traced: list[Any], tracer: Any,
                 rounds: int, steal: float) -> dict[str, float]:
    """Per-layer metrics of a counting workload (per round of ops)."""
    out = zero_layers()
    out.update(span_layers(tracer, rounds))
    traced_wall = sum(r.wall_s for r in traced)
    attributed = tracer.attributed_s()
    pool_busy = sum(r.pool["worker_busy_s"] for r in traced if r.pool)
    out["kernels.cpu_s"] += pool_busy / rounds
    results = [r.result for r in traced if r.result is not None]
    out["kernels.calls"] = sum(
        sum(res.extras["kernel_backend_uses"].values()) for res in results
    ) / rounds
    for metric, counter in (("kernels.tasks", "task"),
                            ("kernels.hash_probe", "hash_probe"),
                            ("kernels.hash_insert", "hash_insert")):
        out[metric] = sum(
            res.counters_tct.get(counter, 0.0) for res in results
        ) / rounds
    if out["kernels.cpu_s"] > 0:
        out["kernels.tasks_per_cpu_s"] = out["kernels.tasks"] / out["kernels.cpu_s"]
    # Each op's makespan repeats exactly (CountWorkload.check), so the first
    # round's sum is exact and the same on every executor; an average over
    # rounds would differ in the last bits with the number of rounds.
    out["engine.virtual_makespan_s"] = sum(
        r.result.extras["makespan"] for r in traced[:len(traced) // rounds]
        if r.result is not None
    )
    out["engine.unattributed_s"] = (traced_wall - attributed) / rounds
    out["trace.coverage"] = attributed / traced_wall if traced_wall else 0.0
    out["host.steal_s"] = steal / rounds
    untraced_wall = sum(r.wall_s for r in untraced)
    if untraced_wall:
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    for kind in ("tc2d", "coveredge"):
        out[f"{kind}.op_p50_s"] = median(
            [r.wall_s for r in untraced if r.kind == kind and r.ok]
        )
    deltas = [r.pool for r in untraced if r.pool]
    if deltas:
        agg = {k: sum(d[k] for d in deltas) for k in deltas[0]}
        for key in ("serialize_s", "dispatch_s", "execute_s", "collect_s",
                    "payload_bytes"):
            out[f"pool.{key}"] = agg[key] / rounds
        if agg["wall_s"] > 0:
            out["pool.non_execute_frac"] = 1.0 - agg["execute_s"] / agg["wall_s"]
        if agg["jobs"]:
            # Every kernel job carries three operands (task, U, L).
            out["pool.resident_hit_ratio"] = agg["resident_hits"] / (3 * agg["jobs"])
    return out


def serve_layers(untraced: list[Any], stats: dict, traced: list[Any],
                 tracer: Any, wall_t: float, overhead: float,
                 steal: float) -> dict[str, float]:
    """Per-layer metrics of the serve workload (per traffic phase)."""
    out = zero_layers()
    out.update(span_layers(tracer, 1))
    kernels = [s for s in tracer.select("kernels.") if s.name != "kernels.resolve"]
    out["kernels.calls"] = float(len(kernels))
    out["kernels.tasks"] = float(sum(s.attrs["tasks"] for s in kernels))
    if out["kernels.cpu_s"] > 0:
        out["kernels.tasks_per_cpu_s"] = out["kernels.tasks"] / out["kernels.cpu_s"]
    for rec in traced:
        if rec.doc is not None and rec.kind == "count":
            tct = rec.doc["counters"]["tct"]
            out["kernels.hash_probe"] += tct.get("hash_probe", 0.0)
            out["kernels.hash_insert"] += tct.get("hash_insert", 0.0)
    attributed = tracer.attributed_s()
    out["engine.unattributed_s"] = wall_t - attributed
    out["trace.coverage"] = attributed / wall_t if wall_t else 0.0
    out["trace.overhead_frac"] = overhead
    out["host.steal_s"] = steal
    # Fresh requests never repeat a seed, so each cold count runs once and
    # the summed virtual time (ppt + tct) repeats exactly for a seed.
    waits = []
    for rec in untraced:
        if rec.doc is None:
            continue
        waits.append(rec.doc["latency_s"] - rec.doc["wall_s"])
        if rec.kind == "count":
            out["engine.virtual_makespan_s"] += rec.doc["virtual"]["overall_s"]
    out["serve.queue_wait_p50_s"] = median(waits)
    out["serve.op_p90_s"] = p90([r.wall_s for r in untraced if r.ok])
    out["serve.warm_p50_s"] = stats.get("warm_p50_s") or 0.0
    out["serve.cold_p50_s"] = stats.get("cold_p50_s") or 0.0
    out["serve.hit_ratio"] = stats.get("hit_ratio") or 0.0
    out["serve.queue_depth_max"] = float(stats.get("queue_depth_max", 0))
    out["serve.rejected"] = float(sum(stats.get("rejected", {}).values()))
    return out


# -- workload drivers ----------------------------------------------------------


def run_count(args: argparse.Namespace, work: Path, workers: int) -> tuple:
    """Time a counting workload.  Untraced, the run is cut into one
    segment per set-up: each segment sets the workload up afresh (timed)
    and then runs rounds until the op time reaches its share of
    ``--seconds``, so the set-up samples are spread over the whole run
    like the ops are."""
    from perfbench.tracing import LayerTracer
    from perfbench.workloads import CountWorkload

    reps = 1 if args.trace else SETUP_REPS[args.workload]
    setups: list[float] = []
    windows: list[tuple[list[Any], float]] = []
    untraced: list[Any] = []
    op_time = 0.0
    wl = None
    try:
        for i in range(reps):
            oracle = None
            if wl is not None:
                # The graphs repeat for the seed, so the checks carry over.
                oracle = (wl.expected, wl.reference)
                wl.close()
            wl = CountWorkload(args.workload, args.seed, work / f"setup-{i}",
                               workers)
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            if oracle is None:
                wl.oracle()
            else:
                wl.expected, wl.reference = oracle
            if args.trace:
                break
            # A segment shorter than a round runs none; the last one runs
            # at least one.
            while op_time < args.seconds * (i + 1) / reps:
                t0 = time.perf_counter()
                recs = wl.run_round()
                elapsed = time.perf_counter() - t0
                windows.append((recs, elapsed))
                untraced += recs
                op_time += elapsed
        if not args.trace:
            log("set-ups (s): " + " ".join(f"{x:.3f}" for x in setups))
            # The median of the rounds' median ops: a round holds op types
            # of different cost, and a median over all ops would fall
            # between two types and swing with their extremes.
            op_walls = [median([r.wall_s for r in recs if r.ok])
                        for recs, _ in windows if any(r.ok for r in recs)]
            metrics = end_to_end(windows, op_walls, 1, setups, peak_rss_mb())
            return untraced, metrics, None
        deadline = time.perf_counter() + args.seconds
        tracer = LayerTracer()
        traced: list[Any] = []
        rounds = 0
        steal = 0.0
        while True:
            untraced += wl.run_round()
            with tracer.patched():
                for i, (kind, dataset) in enumerate(wl.ops):
                    tracer.set_op(f"round{rounds}-op{i}-{kind}-{dataset}")
                    s0 = host_steal_s()
                    traced.append(wl.run_op(kind, dataset))
                    steal += host_steal_s() - s0
            rounds += 1
            if time.perf_counter() >= deadline:
                break
        metrics = count_layers(untraced, traced, tracer, rounds, steal)
        return untraced + traced, metrics, tracer
    finally:
        if wl is not None:
            wl.close()


def run_serve(args: argparse.Namespace, work: Path, clients: int) -> tuple:
    from perfbench.loadgen import FRESH_SEQUENCE
    from perfbench.tracing import LayerTracer
    from perfbench.workloads import ServeWorkload

    wl = ServeWorkload(args.seed, work, clients)
    try:
        setups: list[float] = []
        for _ in range(1 if args.trace else SETUP_REPS["serve"]):
            wl.stop()
            t0 = time.perf_counter()
            wl.start()
            setups.append(time.perf_counter() - t0)
        if not args.trace:
            records, cycles, _ = wl.drive(seconds=args.seconds)
            peak_mb = peak_rss_mb()  # before the oracle regenerates graphs
            wl.verify(records)
            metrics = end_to_end(cycles, [r.wall_s for r in records if r.ok],
                                 clients, setups, peak_mb)
            return records, metrics, None
        # Two phases of the same traffic, untraced then traced, each long
        # enough for every client to send every kind of fresh request.
        cycles = len(FRESH_SEQUENCE)
        untraced, _, wall_u = wl.drive(cycles=cycles)
        stats = wl.client().stats()
        wl.stop()
        wl.start()
        tracer = LayerTracer()
        s0 = host_steal_s()
        with tracer.patched():
            traced, _, wall_t = wl.drive(cycles=cycles)
        steal = host_steal_s() - s0
        wl.verify(untraced + traced)
        metrics = serve_layers(untraced, stats, traced, tracer, wall_t,
                               wall_t / wall_u - 1.0, steal)
        return untraced + traced, metrics, tracer
    finally:
        wl.close()


def run(args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload; return the result document (and write the full
    report under ``.perfbench_work/reports``)."""
    parallelism = min(2, len(os.sched_getaffinity(0)))
    host = host_block(args, parallelism)
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "serve":
            records, metrics, tracer = run_serve(args, work, parallelism)
        else:
            records, metrics, tracer = run_count(args, work, parallelism)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if not r.ok]
    for rec in failed[:10]:
        log(f"FAILED {rec.kind} {rec.dataset}: {rec.reason}")
    units = PER_LAYER if args.trace else END_TO_END
    doc = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    reports = work_root / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = dict(
        doc, host=host,
        failures=[f"{r.kind} {r.dataset}: {r.reason}" for r in failed],
        ops=[[r.kind, r.dataset, r.wall_s, r.ok] for r in records],
    )
    (reports / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        (reports / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    return doc


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="dataset scale (REPRO_DATASET_SCALE); tests use a "
                         "small one")
    return ap.parse_args(argv)


def bootstrap(scale: float) -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        log(f"no program source under {src}; nothing to benchmark")
        sys.exit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ["REPRO_DATASET_SCALE"] = repr(scale)
    os.environ.pop("REPRO_STORE_DIR", None)
    # Keep every temporary file inside the checkout.
    tmp = ROOT / ".perfbench_work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended:
    pool workers left by a failed shutdown, and the multiprocessing
    resource tracker, which the shared-memory arena starts and which
    otherwise outlives the run while it reads the end of its pipe."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap(args.scale)
    try:
        doc = run(args)
    finally:
        stop_children()
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
