"""served-mix: an open loop of independent users against the served stack.

The two data sets are registered in a catalog as file-backed STR
indexes and served by ``repro-cpq serve-net`` (shipped defaults) in its
own process, which spawns two shard processes.  This process generates
Poisson arrivals at :data:`RATE_PER_S` over :data:`CONNECTIONS`
keep-alive connections; a request that finds both connections busy
waits, and its latency is measured from the time it was due.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import common, tracing

#: Poisson arrival rate, frozen so that a later change is compared at
#: the same offered load.  On a 2-core host the seed commit keeps the
#: point-request p99 under its limit at this rate and not at 150/s; its
#: closed-loop throughput over two connections is about 515/s (README.md).
RATE_PER_S = 100.0
#: Share of requests by operation type, by count.
MIX = (("knn", 0.40), ("range", 0.40), ("viewport", 0.15), ("cpq", 0.05))
MIX_BLOCK = 20
#: Latency limit per operation type, measured from the due time.
LIMITS_MS = {"knn": 50.0, "range": 50.0, "viewport": 250.0, "cpq": 1000.0}
CONNECTIONS = 2
#: Requests sent, open loop at the same rate, before measuring.
WARMUP_REQUESTS = 40
#: The fixed viewport set the Zipf-like draw picks from.
VIEWPORTS = 32
VIEWPORT_SET_SEED = 10_001
ZIPF_S = 1.1
CPQ_KS = (1, 10, 100)
LEFT, RIGHT = "sequoia", "uniform"
PAIR = f"{LEFT},{RIGHT}"
#: A run is invalid when the generator itself (not a busy connection)
#: sent its 99th-percentile request later than this after it was due.
MAX_GENERATOR_LATE_MS = 20.0


@dataclass
class Op:
    kind: str
    due: float
    request: Any
    key: Tuple
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: Any = None
    error: Optional[str] = None


def _viewports() -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """The fixed viewport set, the same for every seed.

    The Zipf-like draw sends 28 % of the viewport requests to the first
    window, and the windows differ in cost with P's density, so with a
    seeded set the mean cost of a request followed the windows the seed
    drew rather than the program.  The seed picks which windows are
    requested when.
    """
    rng = np.random.default_rng(VIEWPORT_SET_SEED)
    out = []
    for _ in range(VIEWPORTS):
        side = float(rng.uniform(0.06, 0.12))
        x, y = (float(v) for v in rng.uniform(0.0, 1.0 - side, size=2))
        out.append(((x, y), (x + side, y + side)))
    return out


class RequestDraw:
    """Draws requests of the served-mix vocabulary for one pair from the
    caller's seeded generator.

    Viewports come Zipf-like from the fixed window set; the other kinds
    are fresh points and windows.  service-mix and ingest-read draw
    their requests here too, so the workloads send the same shapes of
    request.
    """

    def __init__(self, pair: str):
        self.pair = pair
        self.windows = _viewports()
        zipf = 1.0 / np.arange(1, VIEWPORTS + 1) ** ZIPF_S
        self.zipf = zipf / zipf.sum()

    def __call__(self, rng, kind: str) -> Tuple[Any, Tuple]:
        """``(request, key)``; the key identifies repeated requests."""
        from repro.service import CPQRequest, KNNRequest, RangeRequest

        side = "p" if rng.random() < 0.5 else "q"
        if kind == "knn":
            point = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=2))
            return (KNNRequest(pair=self.pair, point=point, k=10, side=side),
                    ("knn", side, point, 10))
        if kind == "range":
            w = float(rng.uniform(0.01, 0.05))
            x, y = (float(v) for v in rng.uniform(0.0, 1.0 - w, size=2))
            lo, hi = (x, y), (x + w, y + w)
            return (RangeRequest(pair=self.pair, lo=lo, hi=hi, side=side),
                    ("range", side, lo, hi))
        if kind == "viewport":
            lo, hi = self.windows[int(rng.choice(VIEWPORTS, p=self.zipf))]
            return (CPQRequest(pair=self.pair, k=10, algorithm="auto",
                               range=(lo, hi)),
                    ("viewport", lo, hi, 10))
        k = int(CPQ_KS[int(rng.integers(len(CPQ_KS)))])
        return (CPQRequest(pair=self.pair, k=k, algorithm="auto"),
                ("cpq", k))


def make_ops(seed: int, count: int, rate: float, stream: int) -> List[Op]:
    """``count`` seeded requests with Poisson due times (offsets, s)."""
    rng = np.random.default_rng([seed, stream])
    draw = RequestDraw(PAIR)
    # The mix holds exactly by count in every block of MIX_BLOCK
    # requests (shuffled within the block), so seeds differ in which
    # requests come when, not in how many of each kind a run sends.
    block = [k for k, share in MIX for _ in range(round(share * MIX_BLOCK))]
    due = 0.0
    ops = []
    for i in range(count):
        if i % MIX_BLOCK == 0:
            rng.shuffle(block)
        due += float(rng.exponential(1.0 / rate))
        kind = block[i % MIX_BLOCK]
        request, key = draw(rng, kind)
        ops.append(Op(kind, due, request, key))
    return ops


def connector(port: int):
    """A factory of keep-alive clients of the server on ``port``."""
    from repro.net.client import NetClient

    return lambda: NetClient("127.0.0.1", port, timeout_s=60.0)


def latency_ms(op: Op, t0: float) -> float:
    """Response time measured from when the request was due, so time
    spent waiting for a free connection counts."""
    return (op.done - (t0 + op.due)) * 1000.0


def drive(connect, ops: List[Op]) -> float:
    """Send ``ops`` open loop over :data:`CONNECTIONS` clients made by
    ``connect``; fills each op's timestamps and returns t0."""
    counter = itertools.count()
    t0 = time.perf_counter() + 0.05

    def worker() -> None:
        client = connect()
        try:
            while True:
                i = next(counter)
                if i >= len(ops):
                    return
                op = ops[i]
                op.picked = time.perf_counter()
                delay = t0 + op.due - op.picked
                if delay > 0:
                    time.sleep(delay)
                op.sent = time.perf_counter()
                try:
                    op.response = client.query(op.request)
                except Exception as exc:  # counted as a failed request
                    op.error = f"{type(exc).__name__}: {exc}"
                op.done = time.perf_counter()
        finally:
            client.close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return t0


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------

class Server:
    """One ``serve-net`` process (plus its shards) over a fresh catalog."""

    def __init__(self, workdir: str, points_p, points_q,
                 trace_dir: Optional[str]):
        from repro.catalog import Catalog

        self.workdir = workdir
        catalog_dir = os.path.join(workdir, "catalog")
        os.makedirs(catalog_dir)
        catalog = Catalog(catalog_dir)
        catalog.register_dataset(LEFT, points_p, kind="str")
        catalog.register_dataset(RIGHT, points_q, kind="str")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [root, os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [sys.executable, "-m", "perfbench.server", LEFT, RIGHT,
               "--catalog", catalog_dir]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        self.log = open(os.path.join(workdir, "server.log"), "w")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"server did not start; see {self.log.name}")
        self.port = int(json.loads(line)["port"])

    def descendants(self) -> List[int]:
        """Pids of the server and every process below it."""
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        found = [self.proc.pid]
        frontier = [self.proc.pid]
        while frontier:
            parent = frontier.pop()
            kids = [pid for pid, ppid in parents.items() if ppid == parent]
            found.extend(kids)
            frontier.extend(kids)
        return found

    def cpu_s(self) -> Dict[str, float]:
        """CPU seconds used so far by the server and by its shards (and
        any other process below it), from ``/proc/<pid>/stat``."""
        tick = os.sysconf("SC_CLK_TCK")
        out = {"server": 0.0, "shards": 0.0}
        for pid in self.descendants():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # utime and stime, fields 14 and 15 of the stat line.
            used = (int(fields[11]) + int(fields[12])) / tick
            out["server" if pid == self.proc.pid else "shards"] += used
        return out

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and its shards."""
        total = 0.0
        for pid in self.descendants():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                continue
        return total

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def setup(seed: int, workdir: str, trace_dir: Optional[str]):
    """Inputs, catalog, server and shards, then an open-loop warm-up."""
    points_p, points_q = common.make_inputs(seed)
    server = Server(workdir, points_p, points_q, trace_dir)
    try:
        warm = make_ops(seed, WARMUP_REQUESTS, RATE_PER_S, stream=1)
        drive(connector(server.port), warm)
    except BaseException:
        server.stop()
        raise
    return points_p, points_q, server, warm


# ---------------------------------------------------------------------------
# Answer references (computed after the measured section)
# ---------------------------------------------------------------------------

class References:
    """Serial in-process answers on in-memory trees.

    Viewport and unconstrained K-CPQ answers are kept per key, as those
    requests repeat; KNN and range requests draw fresh points, so their
    answers are computed each time and not kept (keeping them grew the
    benchmark's own memory with the number of requests a run sent).
    """

    REPEATING = ("viewport", "cpq")

    def __init__(self, points_p, points_q):
        from repro.rtree.bulk import bulk_load

        self.tree_p = bulk_load(points_p)
        self.tree_q = bulk_load(points_q)
        self._cache: Dict[Tuple, Tuple] = {}

    def get(self, op: Op) -> Tuple:
        if op.kind not in self.REPEATING:
            return self._compute(op)
        if op.key not in self._cache:
            self._cache[op.key] = self._compute(op)
        return self._cache[op.key]

    def _compute(self, op: Op) -> Tuple:
        from repro import CPQRequest, k_closest_pairs
        from repro.geometry.mbr import MBR
        from repro.query.knn import nearest_neighbors
        from repro.query.range_query import range_query

        request = op.request
        if op.kind in ("knn", "range"):
            tree = self.tree_p if request.side == "p" else self.tree_q
            if op.kind == "knn":
                return common.canon_knn(
                    nearest_neighbors(tree, request.point, k=request.k))
            return common.canon_range(
                range_query(tree, MBR(request.lo, request.hi)))
        core = CPQRequest(k=request.k, algorithm="heap", range=request.range)
        return common.canon_cpq(
            k_closest_pairs(self.tree_p, self.tree_q, request=core))


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

SETUP_REPEATS = 3


def run(seed: int, seconds: float, workdir: str,
        trace_dir: Optional[str] = None) -> Dict[str, Any]:
    setup_times = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            sub = os.path.join(workdir, f"setup{attempt}")
            os.makedirs(sub)
            with tracing.phase("setup"):
                started = time.perf_counter()
                points_p, points_q, server, warm = setup(
                    seed, sub,
                    trace_dir if attempt == SETUP_REPEATS - 1 else None)
                setup_times.append(time.perf_counter() - started)

        ops = make_ops(seed, int(RATE_PER_S * seconds), RATE_PER_S, stream=2)
        connect = connector(server.port)
        with tracing.phase("measured"):
            served_before = server.cpu_s()
            cpu_before = common.cpu_s()
            t0 = drive(connect, ops)
            generator_cpu_s = common.cpu_s() - cpu_before
            served_after = server.cpu_s()
        elapsed = max(op.done for op in ops) - t0
        stats = _server_stats(server.port)
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    refs = References(points_p, points_q)
    check = common.AnswerCheck()
    seen = {op.key for op in warm}
    repeated = 0
    failed = 0
    missed = 0
    latency: Dict[str, List[float]] = {k: [] for k, _ in MIX}
    late_ms = []
    for op in ops:
        if op.key in seen:
            repeated += 1
        seen.add(op.key)
        ms = latency_ms(op, t0)
        latency[op.kind].append(ms)
        late_ms.append(max(0.0, op.sent - max(t0 + op.due, op.picked)) * 1000.0)
        ok = op.error is None and op.response.ok
        if ok:
            got = common.canon(op.request.kind, op.response.result)
            ok = check.compare(op.request.kind, got, [refs.get(op)])
        if not ok:
            failed += 1
        if not ok or ms > LIMITS_MS[op.kind]:
            missed += 1

    executed = [op.response.result.stats.disk_accesses for op in ops
                if op.request.kind == "cpq" and op.error is None
                and op.response.ok and not op.response.cached]
    correct_cpq = sum(1 for op in ops if op.request.kind == "cpq"
                      and op.error is None and op.response.ok) - sum(
        1 for label in check.failed_kinds if label == "cpq")
    # Latency differs by K (a K = 100 answer is ten times the bytes of a
    # K = 10 one), so the median of all K-CPQs falls between clusters;
    # the per-K medians, weighted equally, do not.
    cpq_p50 = statistics.fmean(
        common.median([latency_ms(op, t0) for op in ops
                       if op.kind == "cpq" and op.request.k == k])
        for k in CPQ_KS)
    completed = sum(1 for op in ops if op.error is None)
    cpu = {"generator": generator_cpu_s,
           **{role: served_after[role] - served_before[role]
              for role in served_before}}
    late = common.tail(late_ms)
    invalid = late["value"] > MAX_GENERATOR_LATE_MS
    point = latency["knn"] + latency["range"]
    cpq_tail = common.tail(latency["cpq"])
    viewport_tail = common.tail(latency["viewport"])
    point_tail = common.tail(point)
    metrics = {
        "setup_s": (common.median(setup_times), "s"),
        "cpq_p50_ms": (cpq_p50, "ms"),
        "cpq_tail_ms": (cpq_tail["value"], "ms"),
        "cpq_per_s": (correct_cpq / elapsed, "1/s"),
        "cpu_ms_per_op": (1000.0 * sum(cpu.values()) / max(1, completed),
                          "ms"),
        "disk_accesses_per_cpq": (sum(executed) / max(1, len(executed)),
                                  "count"),
        "viewport_p50_ms": (common.median(latency["viewport"]), "ms"),
        "viewport_tail_ms": (viewport_tail["value"], "ms"),
        "point_p50_ms": (common.median(point), "ms"),
        "point_tail_ms": (point_tail["value"], "ms"),
        "missed_limit_share": (missed / len(ops), "ratio"),
        "error_share": (failed / len(ops), "ratio"),
        "peak_rss_mb": (common.peak_rss_mb() + server_rss, "MB"),
    }
    return {
        "attempted": len(ops),
        "failed": failed,
        "wrong_answers": check.wrong,
        "invalid": invalid,
        "metrics": metrics,
        "record": {
            "rate_per_s": RATE_PER_S,
            "connections": CONNECTIONS,
            "limits_ms": LIMITS_MS,
            "mix": dict(MIX),
            "measured_s": elapsed,
            "ops": len(ops),
            "cpu_s": cpu,
            "setup_runs_s": setup_times,
            "tails": {"cpq": cpq_tail, "viewport": viewport_tail,
                      "point": point_tail},
            "generator_late_ms": late,
            "generator_late_max_ms": max(late_ms),
            "repeated_share": repeated / len(ops),
            "cache_hit_share": sum(
                1 for op in ops if op.response is not None and op.response.cached
            ) / len(ops),
            "by_kind": {k: len(v) for k, v in latency.items()},
            "statuses": common.statuses(ops),
            "wrong_answers_by_label": check.failed_kinds[:20],
            "server_stats": stats,
            "service_statuses": stats.get("queries", {}).get("by_status", {}),
        },
        **common.executed_cpq_figures(op.response for op in ops),
    }


def _server_stats(port: int) -> Dict[str, Any]:
    from repro.net.client import NetClient

    try:
        with NetClient("127.0.0.1", port, timeout_s=10.0) as client:
            return client.stats()
    except Exception as exc:  # stats are a record, never a metric input
        return {"error": f"{type(exc).__name__}: {exc}"}
