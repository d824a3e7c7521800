"""ingest-read: committed writes beside snapshot reads, in process.

P is a live, file-backed tree with a write-ahead log (the shipped
``ingest`` defaults: batches of 64, ``sync=flush``) and the background
:class:`~repro.storage.wal.WALCheckpointer` at its default threshold.
One writer thread commits batches of seeded uniform points back to
back; one reader thread runs a closed loop of KNN, range and viewport
K-CPQ requests through a :class:`~repro.service.QueryService`, which
pins a snapshot per request.  After the measured section the run
"crashes" (the page file, log and sidecar are copied as the OS sees
them, nothing is flushed or closed first), recovers the copy with
``recover_tree`` and checks that every acknowledged batch survived.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import common, tracing

BATCH = 64
SYNC_MODE = "flush"
#: Reader mix by count; viewports are drawn Zipf-like from the same
#: fixed window set as served-mix.
READ_MIX = (("knn", 0.40), ("range", 0.40), ("viewport", 0.20))
#: Reader requests completed, beside the writer, before measuring.
WARMUP_READS = 20
SETUP_REPEATS = 3
PAIR = "live"
#: Bytes of one inserted point: two float64 coordinates and an oid.
POINT_BYTES = 24
#: Pause after a failed read or commit, as a client would back off.  An
#: open circuit breaker fails reads in microseconds, and without a pause
#: the closed loop piles up millions of failures in one run.
FAILURE_BACKOFF_S = 0.01


@dataclass
class Read:
    kind: str
    request: Any
    key: Tuple
    gen_before: int
    start: float = 0.0
    done: float = 0.0
    gen_after: int = 0
    response: Any = None
    error: Optional[str] = None


class Live:
    """The live tree P, static Q, the service and the two threads."""

    def __init__(self, seed: int, workdir: str):
        from repro.catalog import Catalog
        from repro.rtree.tree import RTree
        from repro.service import QueryService
        from repro.storage.paged_file import PagedFile
        from repro.storage.store import FilePageStore
        from repro.storage.wal import WALCheckpointer, WriteAheadLog

        self.seed = seed
        self.workdir = workdir
        self.points_p, self.points_q = common.make_inputs(seed)
        os.makedirs(os.path.join(workdir, "catalog"))
        catalog = Catalog(os.path.join(workdir, "catalog"))
        entry = catalog.register_dataset("p", self.points_p, kind="str")
        catalog.register_dataset("q", self.points_q, kind="str")
        self.pages = entry.index().path
        self.meta = self.pages + ".meta.json"
        self.wal_path = self.pages + ".wal"
        # Reopen P the way ``repro-cpq ingest`` does: writable buffered
        # store, no page buffer, WAL in flush mode.
        self.store = FilePageStore(self.pages, 1024)
        self.tree = RTree.from_storage(PagedFile(self.store),
                                       entry.index().metadata)
        self.wal = WriteAheadLog(self.wal_path, sync_mode=SYNC_MODE)
        self.tree.enable_live_mutation(self.wal)
        self.checkpointer = WALCheckpointer(
            self.wal, lambda: self.tree.checkpoint_wal(self.meta)
        ).start()
        self.tree_q = catalog.open_dataset("q")
        self.service = QueryService()
        self.service.register_pair(PAIR, self.tree, self.tree_q)
        self.stop = threading.Event()
        #: (generation, ack time, latency s, oids, points) per acked batch.
        self.acked: List[Tuple[int, float, float, range, np.ndarray]] = []
        self.failed_batches: List[Tuple[float, str]] = []
        self.reads: List[Read] = []
        self._threads = [
            threading.Thread(target=self._write_loop, name="ingest-writer"),
            threading.Thread(target=self._read_loop, name="ingest-reader"),
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def join(self) -> None:
        self.stop.set()
        for thread in self._threads:
            thread.join()
        self.checkpointer.close()

    def close(self) -> None:
        self.service.close()
        self.wal.close()
        self.store.close()
        self.tree_q.file.store.close()

    # -- threads ------------------------------------------------------------

    def _write_loop(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        next_oid = len(self.points_p)
        while not self.stop.is_set():
            points = rng.random((BATCH, 2))
            oids = range(next_oid, next_oid + BATCH)
            next_oid += BATCH
            started = time.perf_counter()
            try:
                with self.tree.batch():
                    for oid, point in zip(oids, points):
                        self.tree.insert((float(point[0]), float(point[1])), oid)
                generation = self.tree.generation
            except Exception as exc:  # a failed commit is a failed write
                self.failed_batches.append(
                    (time.perf_counter(), f"{type(exc).__name__}: {exc}"))
                time.sleep(FAILURE_BACKOFF_S)
                continue
            done = time.perf_counter()
            self.acked.append((generation, done, done - started, oids, points))

    def _read_loop(self) -> None:
        from perfbench.served_mix import RequestDraw

        rng = np.random.default_rng([self.seed, 4])
        draw = RequestDraw(PAIR)
        kinds = [k for k, _ in READ_MIX]
        shares = [s for _, s in READ_MIX]
        while not self.stop.is_set():
            kind = kinds[int(rng.choice(len(kinds), p=shares))]
            request, key = draw(rng, kind)
            read = Read(kind, request, key,
                        self.tree.committed().generation)
            read.start = time.perf_counter()
            try:
                read.response = self.service.execute(request)
            except Exception as exc:  # counted as a failed read
                read.error = f"{type(exc).__name__}: {exc}"
            read.done = time.perf_counter()
            read.gen_after = self.tree.committed().generation
            self.reads.append(read)
            if read.error is not None or not read.response.ok:
                time.sleep(FAILURE_BACKOFF_S)

    # -- measurements ---------------------------------------------------------

    def io_counters(self) -> Tuple[int, int, int]:
        """(page writes, page file bytes, WAL bytes appended)."""
        return (self.tree.stats.disk_writes, os.path.getsize(self.pages),
                self.wal.stats.bytes_appended)

    def crash_copy(self, dest: str) -> Tuple[str, str, str]:
        """Copy page file, log and sidecar as a crash would leave them."""
        os.makedirs(dest)
        out = []
        for path in (self.pages, self.wal_path, self.meta):
            target = os.path.join(dest, os.path.basename(path))
            shutil.copyfile(path, target)
            out.append(target)
        return out[0], out[1], out[2]


def setup(seed: int, workdir: str) -> Tuple[Live, float]:
    """Build and start everything; returns once the warm-up reads are done."""
    live = Live(seed, workdir)
    live.start()
    while len(live.reads) < WARMUP_READS:
        time.sleep(0.005)
    return live, time.perf_counter()


# ---------------------------------------------------------------------------
# References: any generation between the one seen before a read and the
# one seen after its response is acceptable.
# ---------------------------------------------------------------------------

class References:
    def __init__(self, live: Live):
        from repro.rtree.bulk import bulk_load

        self.points_p = live.points_p
        self.points_q = live.points_q
        self.tree_p = bulk_load(live.points_p)
        self.tree_q = bulk_load(live.points_q)
        acked = sorted(live.acked, key=lambda a: a[0])
        self.generations = [a[0] for a in acked]
        self.inserted = (np.concatenate([a[4] for a in acked])
                         if acked else np.empty((0, 2)))
        self.inserted_oids = np.array(
            [oid for a in acked for oid in a[3]], dtype=np.int64)
        self._cache: Dict[Tuple, Tuple] = {}

    def accepted(self, read: Read):
        """Yield the reference of each generation the read could see."""
        for generation in range(read.gen_after, read.gen_before - 1, -1):
            key = (read.key, generation if self._depends(read) else None)
            if key not in self._cache:
                self._cache[key] = self._compute(read, generation)
            yield self._cache[key]

    @staticmethod
    def _depends(read: Read) -> bool:
        return read.kind == "viewport" or read.request.side == "p"

    def _inserted_upto(self, generation: int):
        n = bisect_right(self.generations, generation) * BATCH
        return self.inserted[:n], self.inserted_oids[:n]

    def _compute(self, read: Read, generation: int) -> Tuple:
        from repro import CPQRequest, k_closest_pairs
        from repro.geometry.mbr import MBR
        from repro.geometry.minkowski import EUCLIDEAN
        from repro.query.knn import nearest_neighbors
        from repro.query.range_query import range_query
        from repro.rtree.bulk import bulk_load

        request = read.request
        extra, extra_oids = self._inserted_upto(generation)
        if read.kind == "viewport":
            lo, hi = request.range.lo, request.range.hi
            p_all = np.concatenate([self.points_p, extra])
            p_oids = np.concatenate(
                [np.arange(len(self.points_p)), extra_oids])
            in_p = _inside(p_all, lo, hi)
            in_q = _inside(self.points_q, lo, hi)
            if not in_p.any() or not in_q.any():
                return ()
            sub_p = bulk_load(p_all[in_p], [int(o) for o in p_oids[in_p]])
            sub_q = bulk_load(self.points_q[in_q],
                              [int(o) for o in np.flatnonzero(in_q)])
            return common.canon_cpq(k_closest_pairs(
                sub_p, sub_q, request=CPQRequest(k=request.k, algorithm="heap")))
        static = request.side == "q"
        tree = self.tree_q if static else self.tree_p
        if static:
            extra = extra[:0]
        if read.kind == "range":
            found = common.canon_range(
                range_query(tree, MBR(request.lo, request.hi)))
            mask = _inside(extra, request.lo, request.hi)
            more = tuple((int(o), (float(x), float(y)))
                         for o, (x, y) in zip(extra_oids[mask], extra[mask]))
            return tuple(sorted(found + more))
        found = list(common.canon_knn(
            nearest_neighbors(tree, request.point, k=request.k)))
        if len(extra):
            approx = np.hypot(extra[:, 0] - request.point[0],
                              extra[:, 1] - request.point[1])
            bound = found[-1][0] * (1 + 1e-9) + 1e-12
            for i in np.flatnonzero(approx <= bound):
                point = (float(extra[i, 0]), float(extra[i, 1]))
                found.append((EUCLIDEAN.distance(request.point, point),
                              int(extra_oids[i]), point))
        return knn_order(found)[: request.k]


def knn_order(found) -> Tuple:
    """KNN answers ordered by (distance, oid): order among exact
    distance ties is not part of the KNN contract."""
    return tuple(sorted(found, key=lambda item: (item[0], item[1])))


def _inside(points: np.ndarray, lo, hi) -> np.ndarray:
    if not len(points):
        return np.zeros(0, dtype=bool)
    return ((points[:, 0] >= lo[0]) & (points[:, 0] <= hi[0])
            & (points[:, 1] >= lo[1]) & (points[:, 1] <= hi[1]))


def durability(live: Live, crash_dir: str) -> Dict[str, Any]:
    """Recover the crash copy; count acknowledged batches it lost."""
    from repro.storage.wal import recover_tree

    pages, wal, meta = live.crash_copy(crash_dir)
    with open(meta, encoding="utf-8") as handle:
        fallback = json.load(handle)
    tree, result = recover_tree(pages, wal, fallback_metadata=fallback)
    try:
        present, unreadable = _readable_points(tree)
    finally:
        tree.file.store.close()
    expected_base = {(i, (float(x), float(y)))
                     for i, (x, y) in enumerate(live.points_p)}
    lost = 0
    for _, _, _, oids, points in live.acked:
        batch = {(oid, (float(x), float(y))) for oid, (x, y) in zip(oids, points)}
        if not batch <= present:
            lost += 1
    acked_points = sum(len(a[3]) for a in live.acked)
    return {
        "sync_mode": SYNC_MODE,
        "acked_batches": len(live.acked),
        "lost_batches": lost,
        "base_lost_points": len(expected_base - present),
        "recovered_points": len(present),
        "expected_points": len(expected_base) + acked_points,
        "replayed_generation": result.generation,
        "unreadable_pages": unreadable,
    }


def _readable_points(tree) -> Tuple[set, List[str]]:
    """Every point reachable from the root, skipping pages that fail
    to read; returns the points and one line per unreadable page."""
    present = set()
    unreadable: List[str] = []
    stack = [] if tree.root_id is None else [tree.root_id]
    seen = set()
    while stack:
        page_id = stack.pop()
        if page_id in seen:  # a damaged page can point back up the tree
            unreadable.append(f"{page_id}: reached twice")
            continue
        seen.add(page_id)
        try:
            node = tree.read_node(page_id)
        except (KeyError, ValueError, OSError) as exc:
            unreadable.append(f"{page_id}: {type(exc).__name__}: {exc}")
            continue
        if node.is_leaf:
            present.update((e.oid, tuple(e.point)) for e in node.entries)
        else:
            stack.extend(e.child_id for e in node.entries)
    return present, unreadable


def run(seed: int, seconds: float, workdir: str,
        trace_dir: Optional[str] = None) -> Dict[str, Any]:
    setup_times = []
    live = None
    for attempt in range(SETUP_REPEATS):
        if live is not None:
            live.join()
            live.close()
        sub = os.path.join(workdir, f"setup{attempt}")
        os.makedirs(sub)
        with tracing.phase("setup"):
            started = time.perf_counter()
            live, t_start = setup(seed, sub)
            setup_times.append(t_start - started)

    with tracing.phase("measured"):
        io_before = live.io_counters()
        wal_before = _wal_counters(live.wal)
        cpu_before = common.cpu_s()
        time.sleep(seconds)
        t_end = time.perf_counter()
        cpu_s = common.cpu_s() - cpu_before
        wal_after = _wal_counters(live.wal)
        io_after = live.io_counters()
    live.join()
    wal_stats = {name: wal_after[name] - wal_before[name]
                 for name in wal_before}
    statuses = live.service.snapshot()["queries"]["by_status"]
    crash = durability(live, os.path.join(live.workdir, "crash"))
    live.close()

    refs = References(live)
    check = common.AnswerCheck()
    reads = [r for r in live.reads if t_start <= r.start < t_end]
    latency: Dict[str, List[float]] = {k: [] for k, _ in READ_MIX}
    failed_reads = 0
    for read in reads:
        latency[read.kind].append((read.done - read.start) * 1000.0)
        ok = read.error is None and read.response.ok
        if ok:
            got = common.canon(read.request.kind, read.response.result)
            if read.kind == "knn":
                got = knn_order(got)
            ok = check.compare(f"{read.kind} {read.key}", got,
                               list(refs.accepted(read)))
        if not ok:
            failed_reads += 1
    batches = [a for a in live.acked if t_start <= a[1] < t_end]
    failed_batches = [f for f in live.failed_batches if t_start <= f[0] < t_end]
    attempted = len(reads) + len(batches) + len(failed_batches)
    failed = failed_reads + len(failed_batches) + crash["lost_batches"]
    written = (io_after[0] - io_before[0]) * 1024 + (
        io_after[1] - io_before[1]) + (io_after[2] - io_before[2])
    inserted_bytes = len(batches) * BATCH * POINT_BYTES
    point = latency["knn"] + latency["range"]
    commit_ms = [a[2] * 1000.0 for a in batches]
    tails = {"viewport": common.tail(latency["viewport"]),
             "point": common.tail(point), "commit": common.tail(commit_ms)}
    metrics = {
        "setup_s": (common.median(setup_times), "s"),
        "viewport_p50_ms": (common.median(latency["viewport"]), "ms"),
        "viewport_tail_ms": (tails["viewport"]["value"], "ms"),
        "point_p50_ms": (common.median(point), "ms"),
        "point_tail_ms": (tails["point"]["value"], "ms"),
        "error_share": (failed / max(1, attempted), "ratio"),
        "ingest_pts_per_s": (len(batches) * BATCH / (t_end - t_start), "1/s"),
        "cpu_ms_per_op": (1000.0 * cpu_s / max(1, len(reads) + len(batches)),
                          "ms"),
        "commit_tail_ms": (tails["commit"]["value"], "ms"),
        "write_amp": (written / max(1, inserted_bytes), "ratio"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong_answers": check.wrong,
        "invalid": False,
        "metrics": metrics,
        "record": {
            "batch": BATCH,
            "sync_mode": SYNC_MODE,
            "measured_s": t_end - t_start,
            "ops": len(reads),
            "cpu_s": {"generator": cpu_s},
            "setup_runs_s": setup_times,
            "tails": tails,
            "reads": len(reads),
            "failed_reads": failed_reads,
            "read_errors": _errors(reads),
            "statuses": common.statuses(reads),
            "batches": len(batches),
            "failed_batches": len(failed_batches),
            "batch_errors": sorted({e for _, e in failed_batches})[:5],
            "wal_stats": wal_stats,
            "service_statuses": statuses,
            "durability": crash,
            "wrong_answers_by_label": check.failed_kinds[:20],
        },
        **common.executed_cpq_figures(r.response for r in reads),
    }


def _wal_counters(wal) -> Dict[str, int]:
    """The log's numeric counters now (measured-section deltas are taken
    from two of these)."""
    return {name: value for name, value in vars(wal.stats).items()
            if isinstance(value, (int, float))}


def _errors(reads: List[Read]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for read in reads:
        if read.error is not None:
            label = read.error.split(":")[0]
        elif not read.response.ok:
            label = f"{read.response.status}: {(read.response.error or '')[:60]}"
        else:
            continue
        out[label] = out.get(label, 0) + 1
    return out
