"""Outside-in layer tracing for the benchmark's traced runs.

The benchmark never edits the program to trace it.  :class:`LayerTracer`
replaces public functions of the ``repro`` layers *in the namespace each
caller looks them up in* (``repro.core.tc2d.exchange_block``, a class
attribute such as ``BlockHashMap.probed_layout``, ...) with wrappers that
record one :class:`Span` per call, and restores every original on exit.

Each span keeps its name, layer, op id, parent span, thread and both a
wall-clock and a thread-CPU extent.  Self time is taken from the thread
CPU clock (``time.thread_time_ns``): the simulated-MPI engine parks rank
threads inside blocking exchanges while other ranks run, so wall-clock
spans over rank threads would count other ranks' work.  The one
exception is ``pool.dispatch``, which runs on the engine's scheduler
thread while every rank thread is parked and the worker processes
compute; its self time is wall time.

Attributed time is the self time of spans in the named layers.  Two
kinds of span are structural and left out: ``engine.run`` (scheduler
handoff, rank-thread start, result assembly) and the drivers' rank
programs (``tc2d.rank`` ...), which sit on top of the layers; what they
do between layer calls is what ``engine.unattributed_s`` reports.

Usage::

    tracer = LayerTracer()
    with tracer.patched():
        tracer.set_op("op-1")
        run_the_op()
    coverage = tracer.attributed_s() / op_wall_s
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Attribute set on every wrapper so a test can prove none is left behind.
MARKER = "__perfbench_span__"

#: Layers whose self time counts as attributed.  The drivers (tc2d,
#: coveredge, listing) are not among them.
ATTRIBUTED_LAYERS = frozenset(
    {
        "graph", "preprocess", "store", "kernels", "hashing", "blocks",
        "engine", "pool", "serve",
    }
)
#: Spans of an attributed layer whose self time is still structural.
STRUCTURAL = frozenset({"engine.run"})

#: Rank programs are named after the driver module that launched them.
_DRIVERS = {
    "repro.core.tc2d": "tc2d",
    "repro.core.coveredge": "coveredge",
    "repro.core.listing": "listing",
}


class Span:
    """One recorded call into a layer (a view over a raw record)."""

    __slots__ = (
        "sid", "name", "layer", "op", "parent", "thread", "clock",
        "wall0", "wall1", "cpu0", "cpu1", "attrs",
    )

    def __init__(self, rec: list) -> None:
        (self.sid, self.name, self.layer, self.op, self.parent, self.thread,
         self.clock, self.wall0, self.wall1, self.cpu0, self.cpu1,
         self.attrs) = rec

    @property
    def wall_s(self) -> float:
        return (self.wall1 - self.wall0) / 1e9

    @property
    def cpu_s(self) -> float:
        return (self.cpu1 - self.cpu0) / 1e9

    @property
    def own_s(self) -> float:
        """Inclusive time on the span's own clock."""
        return self.wall_s if self.clock == "wall" else self.cpu_s


def _nbytes_sent(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"nbytes": int(args[1].nbytes_estimate())}


def _nbytes_loaded(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"nbytes": int(out[3])}


def _cache_hit(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"hit": bool(out.hit)}


def _kernel_tasks(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    # Counting kernels return KernelStats; enumerators (census) return
    # triples, and the census charges one task per task-block entry.
    tasks = getattr(out, "tasks", None)
    return {"tasks": int(tasks if tasks is not None else args[0].nnz)}


class LayerTracer:
    """Span recorder plus the patch table of the layers it wraps."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple[Any, str, Any]] = []

    @property
    def spans(self) -> list[Span]:
        """Every finished span, in completion order."""
        return [Span(rec) for rec in self.records]

    # -- op identity --------------------------------------------------------

    def set_op(self, op: Any) -> None:
        """Tag spans opened on this thread (and rank threads it starts)."""
        self._tls.op = op

    # -- span recording -----------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str, clock: str = "cpu",
              attrs: Callable | None = None) -> Callable:
        # Hot path (tens of thousands of calls per op): raw list records,
        # locals for every global, Span objects built only for analysis.
        tls = self._tls
        append = self.records.append
        ids = self._ids
        wall_ns = time.perf_counter_ns
        cpu_ns = time.thread_time_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = tls.__dict__  # dict reads: no AttributeError path
            stack = state.get("stack")
            if stack is None:
                stack = state["stack"] = []
            sid = next(ids)
            parent = stack[-1] if stack else state.get("root")
            rec = [sid, name, layer, state.get("op"), parent, ident(), clock,
                   0, 0, 0, 0, None]
            stack.append(sid)
            w0 = wall_ns()
            c0 = cpu_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                c1 = cpu_ns()
                rec[7:11] = w0, wall_ns(), c0, c1
                stack.pop()
                append(rec)
            if attrs is not None:
                rec[11] = attrs(args, kwargs, out)
            return out

        setattr(wrapper, MARKER, name)
        return wrapper

    def _wrap_resolver(self, fn: Callable, pair: bool) -> Callable:
        """Wrap a kernel resolver so the kernel it hands back is traced.

        ``resolve_backend`` returns ``(name, fn)``; ``get_enumerator``
        returns the function alone.
        """

        resolve = self._wrap(fn, "kernels.resolve", "kernels")

        @functools.wraps(fn)
        def resolver(*args: Any, **kwargs: Any) -> Any:
            out = resolve(*args, **kwargs)
            if pair:
                bname, kernel = out
                return bname, self._wrap(kernel, f"kernels.{bname}",
                                         "kernels", attrs=_kernel_tasks)
            return self._wrap(out, "kernels.enumerate", "kernels",
                              attrs=_kernel_tasks)

        setattr(resolver, MARKER, "kernels.resolve")
        return resolver

    def _wrap_engine_run(self, run: Callable) -> Callable:
        """``Engine.run`` as a structural span that hands its op id and
        span id to the rank threads the engine starts."""
        tracer = self
        tls = self._tls

        @functools.wraps(run)
        def engine_run(engine: Any, program: Callable, *args: Any,
                       **kwargs: Any) -> Any:
            op = tls.__dict__.get("op")
            parent = tls.stack[-1]  # the engine.run span itself
            driver = _DRIVERS.get(getattr(program, "__module__", ""), "driver")
            traced = tracer._wrap(program, f"{driver}.rank", driver)

            @functools.wraps(program)
            def rank_program(*a: Any, **k: Any) -> Any:
                tls.op = op
                tls.root = parent
                return traced(*a, **k)

            return run(engine, rank_program, *args, **kwargs)

        return self._wrap(engine_run, "engine.run", "engine")

    def _targets(self) -> list[tuple[Any, str, Callable]]:
        """(owner, attribute, wrapper factory) for every traced seam."""
        mod = importlib.import_module
        tc2d = mod("repro.core.tc2d")
        cover = mod("repro.core.coveredge")
        listing = mod("repro.core.listing")
        datasets = mod("repro.graph.datasets")
        store = mod("repro.graph.store")
        hashmap = mod("repro.hashing.hashmap")
        engine = mod("repro.simmpi.engine")
        comm = mod("repro.simmpi.comm")
        parallel = mod("repro.simmpi.parallel")
        service = mod("repro.serve.service")

        def span(name: str, layer: str, clock: str = "cpu",
                 attrs: Callable | None = None) -> Callable:
            return lambda fn: self._wrap(fn, name, layer, clock, attrs)

        exchange = span("blocks.exchange", "blocks", attrs=_nbytes_sent)
        return [
            (datasets, "load_dataset", span("graph.load", "graph")),
            (tc2d, "partition_1d", span("preprocess.partition", "preprocess")),
            (tc2d, "preprocess", span("preprocess.run", "preprocess")),
            (tc2d, "preprocess_with_labels",
             span("preprocess.run", "preprocess")),
            (cover, "partition_1d",
             span("preprocess.partition", "preprocess")),
            (cover, "coveredge_preprocess",
             span("preprocess.run", "preprocess")),
            (listing, "partition_1d",
             span("preprocess.partition", "preprocess")),
            (listing, "preprocess_with_labels",
             span("preprocess.run", "preprocess")),
            (store.GraphStore, "open_run",
             span("store.open_run", "store", attrs=_cache_hit)),
            (store.RunCache, "load_rank",
             span("store.load_rank", "store", attrs=_nbytes_loaded)),
            (store.RunCache, "save_rank", span("store.save_rank", "store")),
            (store.RunCache, "finalize", span("store.finalize", "store")),
            (tc2d, "resolve_backend",
             lambda fn: self._wrap_resolver(fn, pair=True)),
            (cover, "resolve_backend",
             lambda fn: self._wrap_resolver(fn, pair=True)),
            (listing, "get_enumerator",
             lambda fn: self._wrap_resolver(fn, pair=False)),
            (hashmap.BlockHashMap, "probed_layout",
             span("hashing.probed_layout", "hashing")),
            (tc2d, "exchange_block", exchange),
            (cover, "exchange_block", exchange),
            (listing, "exchange_block", exchange),
            (engine.Engine, "run", self._wrap_engine_run),
            (engine.RankContext, "charge", span("engine.charge", "engine")),
            (engine.RankContext, "alloc_mem", span("engine.mem", "engine")),
            (engine.RankContext, "free_mem", span("engine.mem", "engine")),
            (engine.RankContext, "offload", span("engine.offload", "engine")),
            (comm.Comm, "barrier", span("engine.barrier", "engine")),
            (comm.Comm, "allreduce", span("engine.allreduce", "engine")),
            (parallel.SuperstepPool, "dispatch",
             span("pool.dispatch", "pool", clock="wall")),
            (service.TriangleService, "submit", span("serve.submit", "serve")),
        ]

    # -- patching -----------------------------------------------------------

    @contextmanager
    def patched(self) -> Iterator["LayerTracer"]:
        """Install every wrapper; restore every original on exit."""
        if self._saved:
            raise RuntimeError("layer tracer is already installed")
        try:
            for owner, attr, factory in self._targets():
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self._tls.op = None

    # -- analysis -----------------------------------------------------------

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Span id -> self time: the span's own clock minus the thread-CPU
        time of its children on the same thread."""
        child_cpu: dict[int, float] = {}
        by_id = {s.sid: s for s in spans}
        for s in spans:
            parent = by_id.get(s.parent) if s.parent is not None else None
            if parent is not None and parent.thread == s.thread:
                child_cpu[parent.sid] = child_cpu.get(parent.sid, 0.0) + s.cpu_s
        return {s.sid: s.own_s - child_cpu.get(s.sid, 0.0) for s in spans}

    def attributed_s(self) -> float:
        """Self time summed over every span of a named layer."""
        spans = self.spans
        selfs = self.self_times(spans)
        return sum(selfs[s.sid] for s in spans
                   if s.layer in ATTRIBUTED_LAYERS and s.name not in STRUCTURAL)

    def select(self, prefix: str) -> list[Span]:
        """Spans whose name starts with ``prefix``."""
        return [Span(rec) for rec in self.records if rec[1].startswith(prefix)]

    def dump(self) -> dict[str, Any]:
        """Every span as a JSON-ready row, in completion order.  Times are
        ``perf_counter_ns`` (wall) and ``thread_time_ns`` (CPU) readings."""
        return {"fields": list(Span.__slots__), "spans": self.records}
