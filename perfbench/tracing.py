"""Timing wrappers for the benchmark's traced runs.

:func:`install` replaces public functions and methods of each ``repro``
layer with wrappers that time every call, from this benchmark's code,
without touching ``src/``.  Each process keeps its figures in memory,
per thread, and :meth:`Recorder.dump` writes them to one JSON file when
the process is done:

* per wrapped boundary: calls, total time, self time (total minus the
  time its wrapped children cover) and calls that raised;
* per layer: busy time, counting only calls not nested in the same
  layer, so a layer's busy time never counts its own recursion twice;
* counters taken where the work happens (pairs per kernel call, K-heap
  acceptances, cache hits, shard chunk counts ...);
* spans for the request-level boundaries (name, start, end, parent span,
  request id), capped per process.

Calls are recorded only while the run's phase gate is open.  The gate
is one byte in a file of the trace directory, mapped by every process
of the run; the benchmark process sets it with :func:`phase` around
each set-up (``"setup"``) and around the measured section
(``"measured"``), and keeps the two phases' figures apart.  Everything
else (answer references, shutdown, a server's idle time) goes
unrecorded, so the figures describe the measured operations only.

The served-mix server installs the wrappers before ``serve-net`` starts
and has its shard processes install them too (:func:`shard_main`), so
the shard-side core, R-tree and storage layers are measured where they
run.  :func:`layer_metrics` merges every process's file into the
per-layer metrics.  End-to-end figures never come from a traced run:
hot boundaries such as ``KHeap.offer`` are wrapped per call.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import itertools
import json
import mmap
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


#: Request-level spans kept per process; hot boundaries only aggregate.
MAX_SPANS = 20_000
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
GATE_FILE = "gate"
#: Gate byte of each recorded phase; 0 means closed (nothing recorded).
PHASES = {"setup": 1, "measured": 2}

_active: Optional["Recorder"] = None


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "child_layers",
                 "span_id", "request_id")

    def __init__(self, name: str, layer: str, start: float):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.child_layers: Optional[Dict[str, float]] = None
        self.span_id = 0
        self.request_id = 0


class _ThreadState:
    """One thread's figures for one phase."""

    def __init__(self, phase: int) -> None:
        self.phase = phase
        self.stack: List[_Frame] = []
        #: name -> [calls, total_s, self_s, errors]
        self.stats: Dict[str, List[float]] = {}
        self.layer_busy: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.spans: List[Tuple] = []

    def count(self, name: str, n: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + n

    def maximum(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value


class Recorder:
    """One process's wrappers and the figures they collect."""

    def __init__(self, role: str, out_dir: str):
        self.role = role
        self.out_dir = out_dir
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._span_ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        path = os.path.join(out_dir, GATE_FILE)
        if not os.path.exists(path):
            with open(path, "wb") as handle:
                handle.write(b"\0")
        with open(path, "r+b") as handle:
            #: The shared phase byte; every process of a run maps it.
            self.gate = mmap.mmap(handle.fileno(), 1)

    # -- recording -----------------------------------------------------------

    def set_phase(self, name: Optional[str]) -> None:
        """Open the gate for phase ``name``, or close it (None)."""
        self.gate[0] = PHASES[name] if name else 0

    def _state(self, phase: int) -> _ThreadState:
        states = getattr(self._local, "states", None)
        if states is None:
            states = self._local.states = {}
        state = states.get(phase)
        if state is None:
            state = states[phase] = _ThreadState(phase)
            with self._lock:
                self._states.append(state)
        return state

    def timed(self, name: str, layer: str, fn: Callable, *, keep: bool = False,
              on_exit: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one call of boundary ``name``.

        While the gate is closed the wrapper only calls ``fn``.
        ``on_exit(state, frame, args, result, seconds)`` runs after a
        successful call, still inside the caller's thread; ``state`` is
        that thread's figures for the call's phase.
        """
        recorder = self
        gate = self.gate

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = gate[0]
            if not phase:
                return fn(*args, **kwargs)
            state = recorder._state(phase)
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, layer, time.perf_counter())
            if keep:
                frame.span_id = next(recorder._span_ids)
                frame.request_id = next(
                    (f.request_id for f in reversed(stack) if f.request_id),
                    frame.span_id)
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                seconds = end - frame.start
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - frame.child
                entry[3] += failed
                if parent is not None:
                    parent.child += seconds
                    if parent.child_layers is None:
                        parent.child_layers = {}
                    parent.child_layers[layer] = (
                        parent.child_layers.get(layer, 0.0) + seconds)
                if parent is None or parent.layer != layer:
                    state.layer_busy[layer] = (
                        state.layer_busy.get(layer, 0.0) + seconds)
                if keep and len(state.spans) < MAX_SPANS:
                    kept = next((f.span_id for f in reversed(stack)
                                 if f.span_id), 0)
                    state.spans.append((name, frame.start, end, kept,
                                        frame.request_id,
                                        threading.get_ident()))
            if on_exit is not None:
                on_exit(state, frame, args, result, seconds)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, layer: str,
              **options) -> None:
        """Replace ``owner.attr`` with its timed wrapper."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, layer, original, **options))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, Any], List[Tuple]]:
        """Merge the per-thread tables of this process, per phase."""
        names = {number: name for name, number in PHASES.items()}
        phases: Dict[str, Dict[str, Any]] = {}
        spans: List[Tuple] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            name = names[state.phase]
            merged = phases.setdefault(name, {
                "stats": {}, "layer_busy": {}, "counters": {}, "maxima": {}})
            for boundary, entry in list(state.stats.items()):
                total = merged["stats"].setdefault(boundary, [0, 0.0, 0.0, 0])
                for i, value in enumerate(entry):
                    total[i] += value
            for table, out in ((state.layer_busy, merged["layer_busy"]),
                               (state.counters, merged["counters"])):
                for key, value in list(table.items()):
                    out[key] = out.get(key, 0.0) + value
            for key, value in list(state.maxima.items()):
                out = merged["maxima"]
                out[key] = max(value, out.get(key, value))
            spans.extend((name,) + span for span in state.spans)
        return {"role": self.role, "pid": os.getpid(), "phases": phases,
                "spans": len(spans)}, spans

    def dump(self) -> str:
        """Write this process's figures (and spans) into ``out_dir``."""
        summary, spans = self.snapshot()
        base = os.path.join(self.out_dir, f"{self.role}-{os.getpid()}")
        with open(base + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for phase, name, start, end, parent, request, thread in spans:
                handle.write(json.dumps({
                    "phase": phase, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "thread": thread,
                }) + "\n")
        with open(base + ".json", "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        return base + ".json"


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

def _kernel_pairs(state, frame, args, result, seconds) -> None:
    state.count("geometry.pairs", getattr(result, "size", 0))


def _offer_accepted(state, frame, args, result, seconds) -> None:
    if result:
        state.count("core.kheap.accepted")


def _cache_get(state, frame, args, result, seconds) -> None:
    state.count("service.cache.gets")
    if result[0]:
        state.count("service.cache.hits")


def _service_run(state, frame, args, result, seconds) -> None:
    # args = (service, pending); admitted_at is time.monotonic().
    pending = args[1]
    total = time.monotonic() - pending.admitted_at
    inner = sum((frame.child_layers or {}).get(layer, 0.0)
                for layer in ("core", "shard", "query"))
    state.count("service.runs")
    state.count("service.queue_wait_s", max(0.0, total - seconds))
    state.count("service.overhead_s", total - inner)


def _client_query(state, frame, args, result, seconds) -> None:
    state.count("net.queries")
    state.count("net.rtt_s", seconds)
    state.count("net.edge_overhead_s", seconds - result.latency_ms / 1000.0)


def _encoded_response(state, frame, args, result, seconds) -> None:
    state.count("net.responses")
    state.count("net.response_bytes", len(json.dumps(result).encode("utf-8")))


def _shard_execute(state, frame, args, result, seconds) -> None:
    net = result.stats.extra.get("net", {})
    state.count("shard.cpqs")
    state.count("shard.chunks", net.get("shards", 0))
    for event in ("retries", "hedges", "hedge_wins", "dedup_dropped"):
        state.count(f"shard.{event}", net.get(event, 0))


def _published(state, frame, args, result, seconds) -> None:
    state.maximum("storage.snapshot.pending_pages", args[0].pending_pages())


def _exit_context(context, *exc):
    return context.__exit__(*exc)


class _TimedBatch:
    """``RTree.batch()`` whose commit (the ``with`` exit) is timed."""

    def __init__(self, context, exit_timed):
        self._context = context
        self._exit = exit_timed

    def __enter__(self):
        return self._context.__enter__()

    def __exit__(self, *exc):
        return self._exit(*exc)


def install(role: str, out_dir: str, trace_shards: bool = False) -> Recorder:
    """Wrap every measured boundary in this process; returns the recorder."""
    global _active
    import repro
    import repro.catalog.core as catalog_core
    import repro.core.api as core_api
    import repro.core.engine as engine
    import repro.net.client as net_client
    import repro.net.shard as net_shard
    import repro.net.wire as wire
    import repro.query.rcp as rcp
    import repro.rtree.bulk as bulk
    import repro.service.engine as service_engine
    from repro.catalog import Catalog
    from repro.core.kheap import KHeap
    from repro.rtree.tree import RTree
    from repro.service.cache import ResultCache
    from repro.service.planner import Planner
    from repro.storage.paged_file import PagedFile
    from repro.storage.serializer import NodeSerializer
    from repro.storage.snapshot import SnapshotManager
    from repro.storage.store import FilePageStore, MemoryPageStore
    from repro.storage.wal import WriteAheadLog

    if _active is not None:
        raise RuntimeError("tracing is already installed in this process")
    rec = Recorder(role, out_dir)
    # repro.geometry, timed where the traversal engine calls the kernels.
    for kernel in ("pairwise_point_distances", "pairwise_mindist",
                   "pairwise_minmaxdist", "pairwise_maxdist"):
        rec.patch(engine, kernel, "geometry.kernel", "geometry",
                  on_exit=_kernel_pairs)
    # repro.core: the entry point, the traversals it dispatches to (also
    # what shard workers run per chunk), and the K-heap.
    for owner in (repro, core_api, service_engine):
        rec.patch(owner, "k_closest_pairs", "core.k_closest_pairs", "core",
                  keep=True)
    for traversal in ("heap_algorithm", "exhaustive", "simple",
                      "sorted_distances"):
        rec.patch(core_api, traversal, "core.traverse", "core")
    rec.patch(rcp, "heap_algorithm", "core.traverse", "core")
    rec.patch(KHeap, "offer", "core.kheap.offer", "kheap",
              on_exit=_offer_accepted)
    # repro.rtree
    rec.patch(RTree, "read_node", "rtree.read_node", "rtree")
    rec.patch(RTree, "insert", "rtree.insert", "rtree")
    for owner in (repro, bulk, catalog_core):
        rec.patch(owner, "bulk_load", "rtree.bulk_load", "rtree")
    commit = rec.timed("rtree.commit", "rtree", _exit_context, keep=True)
    original_batch = RTree.batch

    def timed_batch(tree):
        context = original_batch(tree)
        return _TimedBatch(context, functools.partial(commit, context))

    rec._patches.append((RTree, "batch", original_batch))
    RTree.batch = timed_batch
    # repro.storage
    rec.patch(PagedFile, "read_page", "storage.page_read", "storage")
    rec.patch(PagedFile, "write_page", "storage.page_write", "storage")
    for store in (FilePageStore, MemoryPageStore):
        rec.patch(store, "read", "storage.store_read", "storage")
    rec.patch(NodeSerializer, "deserialize_arrays", "storage.decode",
              "storage")
    rec.patch(WriteAheadLog, "sync", "storage.wal.sync", "storage")
    rec.patch(RTree, "checkpoint_wal", "storage.checkpoint", "storage",
              keep=True)
    rec.patch(SnapshotManager, "publish", "storage.snapshot.publish",
              "storage", on_exit=_published)
    # repro.query
    rec.patch(service_engine, "nearest_neighbors", "query.knn", "query")
    rec.patch(service_engine, "range_query", "query.range", "query")
    # repro.service
    rec.patch(service_engine.QueryService, "submit", "service.submit",
              "service")
    rec.patch(service_engine.QueryService, "_run", "service.run", "service",
              keep=True, on_exit=_service_run)
    rec.patch(Planner, "plan", "service.plan", "service")
    rec.patch(ResultCache, "get", "service.cache.get", "service",
              on_exit=_cache_get)
    # repro.net: the client, the wire codec (both ends), the shards.
    rec.patch(net_client.NetClient, "query", "net.query", "net", keep=True,
              on_exit=_client_query)
    for codec in ("dumps_request", "loads_request", "encode_request",
                  "decode_request", "decode_response"):
        rec.patch(wire, codec, "net.codec", "codec")
    rec.patch(wire, "encode_response", "net.codec", "codec",
              on_exit=_encoded_response)
    rec.patch(net_shard.ShardManager, "execute", "shard.execute", "shard",
              keep=True, on_exit=_shard_execute)
    rec.patch(net_shard.ShardManager, "_dispatch_attempt", "shard.attempt",
              "shard")
    rec.patch(net_shard, "_worker_query", "shard.worker_query", "shard",
              keep=True)
    if trace_shards:
        os.environ[TRACE_DIR_ENV] = out_dir
        rec._patches.append((net_shard, "shard_worker_main",
                             net_shard.shard_worker_main))
        net_shard.shard_worker_main = shard_main
    # repro.catalog
    rec.patch(Catalog, "register_dataset", "catalog.register", "catalog")
    _active = rec
    return rec


def uninstall() -> None:
    global _active
    if _active is not None:
        _active.set_phase(None)
        _active.unpatch()
        _active = None


@contextlib.contextmanager
def phase(name: str):
    """Record the enclosed section's calls, in every process of the run,
    under phase ``name``; does nothing in an untraced run."""
    recorder = _active
    if recorder is None:
        yield
        return
    recorder.set_phase(name)
    try:
        yield
    finally:
        recorder.set_phase(None)


def shard_main(shard_id, spec_p, spec_q, inbox, outbox) -> None:
    """Shard process entry: trace, serve, then write the figures."""
    import repro.net.shard as net_shard

    recorder = install("shard", os.environ[TRACE_DIR_ENV])
    try:
        net_shard.shard_worker_main(shard_id, spec_p, spec_q, inbox, outbox)
    finally:
        recorder.dump()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Layers absent from a workload, and why; their metrics are reported as
#: unmeasured there instead of as zeros.
ABSENT = {
    "cpq-bigk": {
        "query": "no KNN or range requests in cpq-bigk",
        "service": "cpq-bigk calls k_closest_pairs directly, no service",
        "net": "no HTTP edge in cpq-bigk",
        "shard": "no shards in cpq-bigk",
        "catalog": "cpq-bigk builds in-memory trees, no catalog",
        "writes": "cpq-bigk does not write",
        "processes": "cpq-bigk runs in one process",
    },
    "served-mix": {
        "writes": "served-mix does not write",
    },
    "service-mix": {
        "net": "no HTTP edge in service-mix",
        "shard": "no shards in service-mix",
        "catalog": "service-mix builds in-memory trees, no catalog",
        "writes": "service-mix does not write",
        "processes": "service-mix runs in one process",
    },
    "ingest-read": {
        "net": "no HTTP edge in ingest-read",
        "shard": "no shards in ingest-read",
        "processes": "ingest-read runs in one process",
    },
}

#: metric -> (unit, group, divisor).  The group names the layer whose
#: absence makes the metric unmeasured on a workload.  The divisor says
#: what a count or a busy time is divided by: ``"op"``, the measured
#: operations (K-CPQs on cpq-bigk, requests on served-mix, reads on
#: ingest-read); ``"batch"``, the batches committed in the measured
#: section; ``"setup"``, the set-ups of the run, for the set-up layers.
#: Metrics with no divisor are already ratios, averages or maxima.
LAYER_METRICS = {
    "geometry.calls": ("count/op", "geometry", "op"),
    "geometry.busy_s": ("s/op", "geometry", "op"),
    "geometry.pairs_per_call": ("count", "geometry", None),
    "core.busy_s": ("s/op", "core", "op"),
    "core.self_s": ("s/op", "core", "op"),
    "core.kheap.offers": ("count/op", "core", "op"),
    "core.kheap.busy_s": ("s/op", "core", "op"),
    "core.kheap.accept_ratio": ("ratio", "core", None),
    "core.node_pairs_per_cpq": ("count", "core", None),
    "core.distances_per_cpq": ("count", "core", None),
    "rtree.read_node.calls": ("count/op", "rtree", "op"),
    "rtree.read_node.busy_s": ("s/op", "rtree", "op"),
    "rtree.insert.busy_s": ("s/batch", "writes", "batch"),
    "rtree.commit.busy_s": ("s/batch", "writes", "batch"),
    "rtree.build_s": ("s", "rtree", "setup"),
    "storage.page_reads": ("count/op", "storage", "op"),
    "storage.buffer_hit_ratio": ("ratio", "storage", None),
    "storage.store_reads": ("count/op", "storage", "op"),
    "storage.store_read_busy_s": ("s/op", "storage", "op"),
    "storage.decodes": ("count/op", "storage", "op"),
    "storage.page_writes": ("count/batch", "writes", "batch"),
    "storage.wal.bytes": ("bytes/batch", "writes", "batch"),
    "storage.wal.syncs": ("count/batch", "writes", "batch"),
    "storage.wal.sync_busy_s": ("s/batch", "writes", "batch"),
    "storage.checkpoints": ("count/batch", "writes", "batch"),
    "storage.checkpoint_busy_s": ("s/batch", "writes", "batch"),
    "storage.snapshot.publish_busy_s": ("s/batch", "writes", "batch"),
    "storage.snapshot.pending_pages_max": ("count", "writes", None),
    "storage.read_errors": ("count/op", "storage", "op"),
    "query.knn.busy_s": ("s/op", "query", "op"),
    "query.range.busy_s": ("s/op", "query", "op"),
    "query.rcp.reuse_ratio": ("ratio", "query", None),
    "service.requests": ("count/op", "service", "op"),
    "service.queue_wait_ms": ("ms", "service", None),
    "service.overhead_ms": ("ms", "service", None),
    "service.plan.calls": ("count/op", "service", "op"),
    "service.plan.busy_s": ("s/op", "service", "op"),
    "service.cache.hit_ratio": ("ratio", "service", None),
    "service.shed": ("count/op", "service", "op"),
    "service.rejected": ("count/op", "service", "op"),
    "net.rtt_ms": ("ms", "net", None),
    "net.edge_overhead_ms": ("ms", "net", None),
    "net.codec.busy_s": ("s/op", "net", "op"),
    "net.bytes_per_response": ("bytes", "net", None),
    "shard.execute_busy_s": ("s/op", "shard", "op"),
    "shard.chunks_per_cpq": ("count", "shard", None),
    "shard.attempts_per_chunk": ("ratio", "shard", None),
    "shard.retries": ("count/op", "shard", "op"),
    "shard.hedges": ("count/op", "shard", "op"),
    "shard.hedge_wins": ("count/op", "shard", "op"),
    "shard.dedup_dropped": ("count/op", "shard", "op"),
    "catalog.register_s": ("s", "catalog", "setup"),
    "proc.cpu_s.generator": ("s/op", "generator", "op"),
    "proc.cpu_s.server": ("s/op", "processes", "op"),
    "proc.cpu_s.shards": ("s/op", "processes", "op"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _merge_phase(parts: List[Dict[str, Any]], phase: str) -> Dict[str, Any]:
    """One phase's figures, summed over every process's file."""
    out: Dict[str, Any] = {"stats": {}, "layer_busy": {}, "counters": {},
                           "maxima": {}}
    for part in parts:
        figures = part["phases"].get(phase)
        if figures is None:
            continue
        for name, entry in figures["stats"].items():
            merged = out["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(entry):
                merged[i] += value
        for table in ("layer_busy", "counters"):
            for name, value in figures[table].items():
                out[table][name] = out[table].get(name, 0.0) + value
        for name, value in figures["maxima"].items():
            out["maxima"][name] = max(value, out["maxima"].get(name, value))
    return out


def layer_metrics(trace_dir: str, workload: str,
                  result: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Merge every process's figures into the per-layer metrics.

    Set-up layers (``rtree.build_s``, ``catalog.register_s``) come from
    the set-up phase, everything else from the measured phase, each
    divided as :data:`LAYER_METRICS` says.  Metrics of layers the
    workload does not exercise are left out and listed in
    ``result["unmeasured"]`` with the reason.
    """
    parts = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            parts.append(json.load(handle))
    measured = _merge_phase(parts, "measured")
    setup = _merge_phase(parts, "setup")
    stats, busy = measured["stats"], measured["layer_busy"]
    counters, maxima = measured["counters"], measured["maxima"]

    def calls(name, table=stats):
        return table.get(name, [0, 0.0, 0.0, 0])[0]

    def total(name, table=stats):
        return table.get(name, [0, 0.0, 0.0, 0])[1]

    record = result["record"]
    cpq = result.get("cpq_stats", [])
    rcp = result.get("rcp_sources", [])
    wal = record.get("wal_stats", {})
    statuses = record.get("statuses", {})
    cpu = record.get("cpu_s", {})
    values = {
        "geometry.calls": calls("geometry.kernel"),
        "geometry.busy_s": busy.get("geometry", 0.0),
        "geometry.pairs_per_call": _ratio(counters.get("geometry.pairs", 0),
                                          calls("geometry.kernel")),
        "core.busy_s": busy.get("core", 0.0),
        "core.self_s": sum(entry[2] for name, entry in stats.items()
                           if name.startswith("core.")
                           and name != "core.kheap.offer"),
        "core.kheap.offers": calls("core.kheap.offer"),
        "core.kheap.busy_s": busy.get("kheap", 0.0),
        "core.kheap.accept_ratio": _ratio(
            counters.get("core.kheap.accepted", 0), calls("core.kheap.offer")),
        "core.node_pairs_per_cpq": _ratio(sum(n for n, _ in cpq), len(cpq)),
        "core.distances_per_cpq": _ratio(sum(d for _, d in cpq), len(cpq)),
        "rtree.read_node.calls": calls("rtree.read_node"),
        "rtree.read_node.busy_s": total("rtree.read_node"),
        "rtree.insert.busy_s": total("rtree.insert"),
        "rtree.commit.busy_s": total("rtree.commit"),
        "rtree.build_s": total("rtree.bulk_load", setup["stats"]),
        "storage.page_reads": calls("storage.page_read"),
        "storage.buffer_hit_ratio": 1.0 - _ratio(
            calls("storage.store_read"), calls("storage.page_read")),
        "storage.store_reads": calls("storage.store_read"),
        "storage.store_read_busy_s": total("storage.store_read"),
        "storage.decodes": calls("storage.decode"),
        "storage.page_writes": calls("storage.page_write"),
        "storage.wal.bytes": wal.get("bytes_appended", 0),
        "storage.wal.syncs": wal.get("syncs", 0),
        "storage.wal.sync_busy_s": total("storage.wal.sync"),
        "storage.checkpoints": wal.get("checkpoints", 0),
        "storage.checkpoint_busy_s": total("storage.checkpoint"),
        "storage.snapshot.publish_busy_s": total("storage.snapshot.publish"),
        "storage.snapshot.pending_pages_max": maxima.get(
            "storage.snapshot.pending_pages", 0),
        "storage.read_errors": sum(
            stats.get(name, [0, 0, 0, 0])[3]
            for name in ("storage.store_read", "storage.decode")),
        "query.knn.busy_s": total("query.knn"),
        "query.range.busy_s": total("query.range"),
        "query.rcp.reuse_ratio": _ratio(
            sum(1 for source in rcp if source != "computed"), len(rcp)),
        "service.requests": calls("service.submit"),
        "service.queue_wait_ms": 1000.0 * _ratio(
            counters.get("service.queue_wait_s", 0.0),
            counters.get("service.runs", 0)),
        "service.overhead_ms": 1000.0 * _ratio(
            counters.get("service.overhead_s", 0.0),
            counters.get("service.runs", 0)),
        "service.plan.calls": calls("service.plan"),
        "service.plan.busy_s": total("service.plan"),
        "service.cache.hit_ratio": _ratio(
            counters.get("service.cache.hits", 0),
            counters.get("service.cache.gets", 0)),
        "service.shed": statuses.get("overloaded", 0),
        "service.rejected": statuses.get("rejected", 0),
        "net.rtt_ms": 1000.0 * _ratio(counters.get("net.rtt_s", 0.0),
                                      counters.get("net.queries", 0)),
        "net.edge_overhead_ms": 1000.0 * _ratio(
            counters.get("net.edge_overhead_s", 0.0),
            counters.get("net.queries", 0)),
        "net.codec.busy_s": busy.get("codec", 0.0),
        "net.bytes_per_response": _ratio(
            counters.get("net.response_bytes", 0),
            counters.get("net.responses", 0)),
        "shard.execute_busy_s": total("shard.execute"),
        "shard.chunks_per_cpq": _ratio(counters.get("shard.chunks", 0),
                                       counters.get("shard.cpqs", 0)),
        "shard.attempts_per_chunk": _ratio(calls("shard.attempt"),
                                           counters.get("shard.chunks", 0)),
        "shard.retries": counters.get("shard.retries", 0),
        "shard.hedges": counters.get("shard.hedges", 0),
        "shard.hedge_wins": counters.get("shard.hedge_wins", 0),
        "shard.dedup_dropped": counters.get("shard.dedup_dropped", 0),
        "catalog.register_s": total("catalog.register", setup["stats"]),
        "proc.cpu_s.generator": cpu.get("generator", 0.0),
        "proc.cpu_s.server": cpu.get("server", 0.0),
        "proc.cpu_s.shards": cpu.get("shards", 0.0),
    }
    divisors = {"op": record["ops"], "batch": record.get("batches", 0),
                "setup": len(record["setup_runs_s"])}
    absent = ABSENT.get(workload, {})
    out: Dict[str, Tuple[float, str]] = {}
    unmeasured: Dict[str, str] = {}
    roles = {part["role"] for part in parts}
    for name, (unit, group, divisor) in LAYER_METRICS.items():
        if group in absent:
            unmeasured[name] = absent[group]
        elif (workload == "served-mix" and "shard" not in roles
              and name.startswith("shard.")):
            unmeasured[name] = "no shard process wrote its figures"
        elif divisor is None:
            out[name] = (float(values[name]), unit)
        else:
            out[name] = (_ratio(float(values[name]), divisors[divisor]), unit)
    result["unmeasured"] = unmeasured
    result["record"]["trace_processes"] = sorted(roles)
    return out
