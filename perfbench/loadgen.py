#!/usr/bin/env python3
"""Closed-loop load generator for the ``serve`` workload.

It runs in a process of its own, as the service's clients would: client
threads in the service's process would wait for the interpreter lock
behind the service's rank threads on every send and every reply, which
adds their waits to every request's latency and makes cache-hit
latencies swing with the host's load.

Usage (the benchmark starts it; from the repository root)::

    python3 perfbench/loadgen.py --port 8123 --seed 1 --clients 2 --seconds 18

It prints one JSON document: every request (``records``), every client
cycle as ``[first record, end record, elapsed]`` indices into it
(``windows``) and the wall time until every client finished (``wall``).
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any

#: Simulated ranks of every request.
P = 16

#: Serve traffic.  Every FRESH_EVERY-th request of a client names a graph
#: seed nobody requested before (a cold miss); the others draw a Zipf rank
#: over the requests already answered (result-cache hits).  Fixing the
#: miss ratio, rather than letting misses cluster at the start, keeps the
#: traffic mix stationary.  The hit ratio is 0.9, and misses take most of
#: the service's busy time.  At servebench's 0.7 a 20 s run held only ~80
#: requests, and the median request, the 71st percentile of the hits,
#: spread 0.3 over five seeds (perfbench/README.md, "Serve traffic").
FRESH_EVERY = 10
#: The (kind, dataset) of a client's successive fresh requests; a census
#: follows the count of the same graph.  The census runs on twitter-like
#: only: a g500-s13 census needs ~250 MB more than anything else here, so
#: the number of them a run happened to reach set its peak memory.
FRESH_SEQUENCE = (
    ("count", "g500-s13"),
    ("count", "twitter-like"),
    ("census", "twitter-like"),
)
#: Zipf exponent of the hit ranks (rank 1 = first request answered).
ZIPF_S = 1.2


def fresh_request(seed: int, clients: int, cid: int, j: int) -> dict[str, Any]:
    """Client ``cid``'s ``j``-th fresh request."""
    kind, dataset = FRESH_SEQUENCE[j % len(FRESH_SEQUENCE)]
    sequence_no = j // len(FRESH_SEQUENCE)
    return {
        "kind": kind,
        "dataset": dataset,
        "ranks": P,
        "seed": seed * 1000 + sequence_no * clients + cid,
    }


class Traffic:
    """The clients of one traffic phase, against a service at ``port``."""

    def __init__(self, port: int, seed: int, clients: int):
        self.port = port
        self.seed = seed
        self.clients = clients
        self._answered: list[dict[str, Any]] = []
        self._cum: list[float] = []
        self._lock = threading.Lock()

    def _repeat(self, rng: random.Random) -> dict[str, Any] | None:
        """A Zipf-ranked answered request (None while nothing is answered)."""
        with self._lock:
            n = len(self._answered)
            if n == 0:
                return None
            while len(self._cum) < n:
                prev = self._cum[-1] if self._cum else 0.0
                self._cum.append(prev + 1.0 / (len(self._cum) + 1) ** ZIPF_S)
            rank = bisect.bisect_left(self._cum, rng.random() * self._cum[n - 1],
                                      0, n - 1)
            return self._answered[rank]

    def _request(self, client: Any, tpl: dict, cid: int) -> dict[str, Any]:
        from repro.serve.client import ServeError, ServeRejected

        rec: dict[str, Any] = {"request": tpl, "wall_s": 0.0, "ok": False,
                               "reason": "", "result": None, "doc": None}
        t0 = time.perf_counter()
        try:
            doc = client.submit(dict(tpl), tenant=f"client-{cid}", wait=True)
        except ServeRejected as exc:
            rec["reason"] = f"rejected: {exc.reason}"
            return rec
        except (ServeError, OSError) as exc:
            rec["reason"] = f"{type(exc).__name__}: {exc}"
            return rec
        rec["wall_s"] = time.perf_counter() - t0
        if doc.get("state") != "done":
            rec["reason"] = f"job {doc.get('state')}: {doc.get('error')}"
            return rec
        res = doc["result"]
        rec["ok"] = True
        rec["result"] = res["count"]
        if res["served"] == "cold":
            # Only cold replies are kept whole: keeping every hit's reply
            # would grow the output with the run's throughput.
            rec["doc"] = dict(res, latency_s=doc["latency_s"])
        return rec

    def drive(self, seconds: float | None, cycles: int | None) -> dict[str, Any]:
        """Run every client in whole cycles for ``seconds`` (closed loop)
        or for ``cycles`` cycles each."""
        from repro.serve.client import ServeClient

        records: list[list[dict[str, Any]]] = [[] for _ in range(self.clients)]
        cycle_spans: list[list[tuple[int, int, float]]] = [
            [] for _ in range(self.clients)
        ]
        errors: list[BaseException] = []
        t_start = time.perf_counter()
        deadline = None if seconds is None else t_start + seconds

        def loop(cid: int) -> None:
            try:
                client = ServeClient("127.0.0.1", self.port, timeout=120)
                rng = random.Random(self.seed * 1009 + cid)
                done = 0
                while True:
                    t0 = time.perf_counter()
                    start = len(records[cid])
                    fresh = fresh_request(self.seed, self.clients, cid, done)
                    for i in range(FRESH_EVERY):
                        tpl = fresh if i == 0 else self._repeat(rng) or fresh
                        rec = self._request(client, tpl, cid)
                        records[cid].append(rec)
                        if i == 0 and rec["ok"]:
                            with self._lock:
                                self._answered.append(tpl)
                    cycle_spans[cid].append(
                        (start, len(records[cid]), time.perf_counter() - t0)
                    )
                    done += 1
                    if cycles is not None and done >= cycles:
                        break
                    if deadline is not None and time.perf_counter() >= deadline:
                        break
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=loop, args=(c,))
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t_start
        if errors:
            raise errors[0]
        flat: list[dict[str, Any]] = []
        windows = []
        for cid in range(self.clients):
            base = len(flat)
            flat += records[cid]
            windows += [[base + a, base + b, e] for a, b, e in cycle_spans[cid]]
        return {"records": flat, "windows": windows, "wall": wall}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--clients", type=int, required=True)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--cycles", type=int)
    args = ap.parse_args(argv)
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    traffic = Traffic(args.port, args.seed, args.clients)
    out = traffic.drive(args.seconds, args.cycles)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
