"""The benchmark's workloads: set-up, the op loop and the output checks.

Every workload runs at p=16 on graphs generated from the benchmark seed.
``cold``, ``warm`` and ``parallel`` time sequential calls of the counting
drivers; ``serve`` drives the HTTP front end with closed-loop clients.
Each op's count is compared with the serial oracle, and the counting
workloads also require the virtual makespan and the ``counters_tct``
counts of an op to repeat exactly (see :meth:`CountWorkload.check`).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.baselines.serial import count_triangles_node_iterator
from repro.core.config import TC2DConfig
from repro.core.coveredge import count_triangles_coveredge
from repro.core.tc2d import count_triangles_2d
from repro.graph.datasets import DatasetRegistry
from repro.graph.store import GraphStore
from repro.serve import ServeClient, ServeConfig
from repro.serve.server import run_server
from repro.simmpi.parallel import SuperstepPool

from perfbench.loadgen import P

DRIVERS: dict[str, Callable[..., Any]] = {
    "tc2d": count_triangles_2d,
    "coveredge": count_triangles_coveredge,
}

#: One round of each counting workload: (driver, dataset) in order.
ROUNDS: dict[str, list[tuple[str, str]]] = {
    "cold": [("tc2d", "g500-s14"), ("tc2d", "twitter-like")],
    "warm": [
        ("tc2d", "g500-s14"),
        ("tc2d", "twitter-like"),
        ("coveredge", "twitter-like"),
    ],
}
ROUNDS["parallel"] = ROUNDS["warm"]

#: PoolStats fields whose per-op deltas the benchmark sums.
POOL_FIELDS = (
    "jobs", "wall_s", "serialize_s", "dispatch_s", "execute_s",
    "collect_s", "payload_bytes", "resident_hits",
)


def oracle_count(graph: Any) -> int:
    """Exact triangle count from the serial reference counter."""
    return int(count_triangles_node_iterator(graph))


class OpRecord:
    """Outcome of one timed op (or one served request)."""

    __slots__ = ("kind", "dataset", "wall_s", "edges", "ok", "reason",
                 "result", "pool", "request", "doc")

    def __init__(self, kind: str, dataset: str, wall_s: float, edges: int):
        self.kind = kind
        self.dataset = dataset
        self.wall_s = wall_s
        self.edges = edges
        self.ok = True
        self.reason = ""
        #: TriangleCountResult (counting workloads) or the served count.
        self.result: Any = None
        self.pool: dict[str, float] | None = None  # PoolStats delta
        self.request: dict[str, Any] | None = None  # serve request
        #: A cold serve reply's result plus the job's ``latency_s``.
        self.doc: dict[str, Any] | None = None

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reason = self.reason or reason


def _pool_delta(before: dict, after: dict) -> dict[str, float]:
    out = {k: after[k] - before[k] for k in POOL_FIELDS}
    out["worker_busy_s"] = sum(after["worker_busy_s"].values()) - sum(
        before["worker_busy_s"].values()
    )
    return out


class CountWorkload:
    """``cold``, ``warm`` or ``parallel``: timed calls of the drivers.

    :meth:`setup` is the program's own set-up (graph generation, store
    warm-up, pool start) and is what ``setup_s`` times; :meth:`oracle`
    is the benchmark's (serial counts, and for ``parallel`` one
    sequential reference op per op type) and is not timed.
    """

    def __init__(self, name: str, seed: int, work: Path, workers: int):
        self.name = name
        self.seed = seed
        self.work = work
        self.workers = workers
        self.ops = ROUNDS[name]
        self.graphs: dict[str, Any] = {}
        self.store: GraphStore | None = None
        self.pool: SuperstepPool | None = None
        self.cfg = TC2DConfig()
        self.expected: dict[str, int] = {}
        self.reference: dict[tuple[str, str], tuple[float, dict]] = {}
        self._n = 0

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        registry = DatasetRegistry()
        for _, dataset in self.ops:
            if dataset not in self.graphs:
                self.graphs[dataset] = registry.load(dataset, seed=self.seed)
        if self.name == "cold":
            return
        if self.name == "parallel":
            self.pool = SuperstepPool(workers=self.workers)
            self.cfg = TC2DConfig(executor="parallel", workers=self.workers)
        self.store = GraphStore(self.work / "store")
        for kind, dataset in self.ops:
            self._call(kind, dataset)  # a cold miss writes the store entry

    def oracle(self) -> None:
        for dataset, graph in self.graphs.items():
            self.expected[dataset] = oracle_count(graph)
        if self.name == "parallel":
            # Executor invariance: the pool must reproduce the sequential
            # executor's virtual clock and counters exactly.
            for kind, dataset in self.ops:
                res = DRIVERS[kind](self.graphs[dataset], P, cache=self.store,
                                    dataset=dataset)
                self.reference[(kind, dataset)] = (
                    res.extras["makespan"], dict(res.counters_tct)
                )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        shutil.rmtree(self.work, ignore_errors=True)

    # -- ops ----------------------------------------------------------------

    def _call(self, kind: str, dataset: str) -> tuple[Any, float]:
        kwargs: dict[str, Any] = {"cfg": self.cfg, "dataset": dataset}
        if self.pool is not None:
            kwargs["superstep"] = self.pool
        op_dir = None
        t0 = time.perf_counter()
        if self.store is None:
            self._n += 1
            op_dir = self.work / f"op-{self._n}"
            kwargs["cache"] = GraphStore(op_dir)
        else:
            kwargs["cache"] = self.store
        res = DRIVERS[kind](self.graphs[dataset], P, **kwargs)
        wall = time.perf_counter() - t0
        if op_dir is not None:
            shutil.rmtree(op_dir, ignore_errors=True)
        return res, wall

    def run_op(self, kind: str, dataset: str) -> OpRecord:
        """Time one op and check its output."""
        before = self.pool.stats_snapshot() if self.pool is not None else None
        try:
            res, wall = self._call(kind, dataset)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            rec = OpRecord(kind, dataset, 0.0, 0)
            rec.fail(f"{type(exc).__name__}: {exc}")
            return rec
        rec = OpRecord(kind, dataset, wall, self.graphs[dataset].num_edges)
        rec.result = res
        if before is not None:
            rec.pool = _pool_delta(before, self.pool.stats_snapshot())
        self.check(rec)
        return rec

    def check(self, rec: OpRecord) -> None:
        """Count equals the oracle; the store was used as the workload
        says; makespan and ``counters_tct`` repeat exactly."""
        res = rec.result
        if res.count != self.expected[rec.dataset]:
            rec.fail(f"count {res.count} != oracle {self.expected[rec.dataset]}")
        hit = res.extras.get("cache", {}).get("hit")
        if hit != (self.name != "cold"):
            rec.fail(f"store hit={hit} on the {self.name} workload")
        seen = (res.extras["makespan"], dict(res.counters_tct))
        ref = self.reference.setdefault((rec.kind, rec.dataset), seen)
        if seen[0] != ref[0]:
            rec.fail(f"virtual makespan {seen[0]!r} != {ref[0]!r}")
        if seen[1] != ref[1]:
            rec.fail("counters_tct differ from the reference op")

    def run_round(self) -> list[OpRecord]:
        return [self.run_op(kind, dataset) for kind, dataset in self.ops]


class ServeWorkload:
    """``serve``: closed-loop HTTP clients against a fresh service.

    The clients run in the load generator's process
    (:mod:`perfbench.loadgen`).  Each runs whole cycles of
    ``FRESH_EVERY`` requests: one fresh request (a graph seed of its own,
    so clients never duplicate a cold run), then Zipf-ranked repeats of
    requests any client has had answered.  Counts are checked against the
    serial oracle after the traffic, for every graph that was requested.
    """

    def __init__(self, seed: int, work: Path, clients: int):
        self.seed = seed
        self.work = work
        self.clients = clients
        self.expected: dict[tuple[str, int], int] = {}
        self.edges: dict[tuple[str, int], int] = {}
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._starts = 0

    # -- set-up -------------------------------------------------------------

    def start(self) -> None:
        """Start a fresh service + HTTP server on an ephemeral port, with
        a fresh preprocessing store (the program's set-up for ``serve``).
        One dispatcher: a cold request arriving while another runs waits
        in the service's queue."""
        self._starts += 1
        store = self.work / f"store-{self._starts}"
        ready = threading.Event()
        box: dict[str, int] = {}

        def announce(server: Any) -> None:
            box["port"] = server.port
            ready.set()

        config = ServeConfig(max_inflight=1, store=store)
        self._thread = threading.Thread(
            target=run_server, args=(config,),
            kwargs={"port": 0, "announce": announce}, daemon=True,
        )
        self._thread.start()
        if not ready.wait(60):
            raise RuntimeError("serve endpoint did not start")
        self.port = box["port"]

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=120)

    def stop(self) -> None:
        if self._thread is None:
            return
        self.client().shutdown()
        self._thread.join(timeout=120)
        if self._thread.is_alive():
            raise RuntimeError("serve endpoint did not stop")
        self._thread = None

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- traffic ------------------------------------------------------------

    def drive(self, seconds: float | None = None,
              cycles: int | None = None
              ) -> tuple[list[OpRecord], list, float]:
        """Run the load generator (``perfbench/loadgen.py``, a process of
        its own) against the service: every client in whole cycles for
        ``seconds`` (closed loop) or for ``cycles`` cycles each.  Returns
        the records, every client cycle as ``(records, elapsed)`` and the
        wall time until every client finished."""
        cmd = [sys.executable, str(Path(__file__).with_name("loadgen.py")),
               "--port", str(self.port), "--seed", str(self.seed),
               "--clients", str(self.clients)]
        cmd += (["--seconds", repr(seconds)] if cycles is None
                else ["--cycles", str(cycles)])
        # run() kills the generator on a timeout and waits for it.
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"load generator exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        records = []
        for doc in out["records"]:
            req = doc["request"]
            rec = OpRecord(req["kind"], req["dataset"], doc["wall_s"], 0)
            rec.request = req
            rec.result = doc["result"]
            rec.doc = doc["doc"]
            if not doc["ok"]:
                rec.fail(doc["reason"])
            records.append(rec)
        windows = [(records[a:b], elapsed) for a, b, elapsed in out["windows"]]
        return records, windows, out["wall"]

    def verify(self, records: list[OpRecord]) -> None:
        """Compare every answered count with the serial oracle (graphs
        are regenerated here, after the timed traffic)."""
        registry = DatasetRegistry()
        for rec in records:
            if not rec.ok:
                continue
            key = (rec.request["dataset"], rec.request["seed"])
            if key not in self.expected:
                graph = registry.load(*key)
                self.expected[key] = oracle_count(graph)
                self.edges[key] = int(graph.num_edges)
                registry.clear_cache()
            rec.edges = self.edges[key]
            if rec.result != self.expected[key]:
                rec.fail(f"count {rec.result} != oracle {self.expected[key]}")
