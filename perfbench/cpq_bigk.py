"""cpq-bigk: a closed loop of large K-CPQs on in-memory trees.

One in-process client runs K = 10,000 closest-pair queries, cycling
HEAP, EXH, SIM and STD, on STR trees in memory with a zero-page buffer
(the paper's no-buffer regime).  No service, edge or shard is
involved, so the K-heap and the traversals do the work.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, Optional

from perfbench import common, tracing

K = 10_000
CYCLE = ("heap", "exh", "sim", "std")


def setup(seed: int):
    """Inputs, two STR trees, and one small query to finish lazy set-up."""
    from repro import CPQRequest, k_closest_pairs
    from repro.rtree import bulk

    points_p, points_q = common.make_inputs(seed)
    tree_p = bulk.bulk_load(points_p)
    tree_q = bulk.bulk_load(points_q)
    k_closest_pairs(tree_p, tree_q, request=CPQRequest(k=1, algorithm="heap"))
    return tree_p, tree_q


def run(seed: int, seconds: float, workdir: str,
        trace_dir: Optional[str] = None) -> Dict[str, Any]:
    from repro import CPQRequest, k_closest_pairs
    from repro.rtree.bulk import bulk_load

    # Reference first, outside every timed section: the serial HEAP
    # answer on trees built separately from the measured ones.
    points_p, points_q = common.make_inputs(seed)
    reference = common.canon_cpq(k_closest_pairs(
        bulk_load(points_p), bulk_load(points_q),
        request=CPQRequest(k=K, algorithm="heap"),
    ))
    del points_p, points_q

    # Whole cycles only, so every algorithm weighs the same however long
    # a run is.  Each cycle starts with a fresh set-up, so the set-up
    # times sample the same stretch of the run as the queries do; the
    # host's speed drifts over tens of seconds.  Each answer is checked
    # and dropped between queries, so live objects stay flat.
    check = common.AnswerCheck()
    setup_times = []
    runs = []
    cpq_stats = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        tree_p = tree_q = None
        gc.collect()
        with tracing.phase("setup"):
            t0 = time.perf_counter()
            tree_p, tree_q = setup(seed)
            setup_times.append(time.perf_counter() - t0)
        for algorithm in CYCLE:
            request = CPQRequest(k=K, algorithm=algorithm)
            with tracing.phase("measured"):
                c0 = time.process_time()
                t0 = time.perf_counter()
                result = k_closest_pairs(tree_p, tree_q, request=request)
                dt = time.perf_counter() - t0
                cpu = time.process_time() - c0
            ok = check.compare(algorithm, common.canon_cpq(result), [reference])
            runs.append((algorithm, dt, result.stats.disk_accesses, ok, cpu))
            cpq_stats.append((result.stats.node_pairs_visited,
                              result.stats.distance_computations))
            del result

    correct = sum(1 for run in runs if run[3])
    latency_ms = [dt * 1000.0 for _, dt, _, _, _ in runs]
    query_s = sum(dt for _, dt, _, _, _ in runs)
    cpu_s = sum(cpu for _, _, _, _, cpu in runs)
    by_algorithm = {
        algorithm: {
            "median_ms": common.median(
                [dt * 1000.0 for a, dt, _, _, _ in runs if a == algorithm]),
            "disk_accesses": next(d for a, _, d, _, _ in runs
                                  if a == algorithm),
        }
        for algorithm in CYCLE
    }
    failed = len(runs) - correct
    # The four algorithms' latencies form four clusters, so the median
    # of all queries falls in whichever gap separates the two faster
    # from the two slower ones; the per-algorithm medians, weighted
    # equally, do not jump between gaps.
    cpq_p50 = statistics.fmean(v["median_ms"] for v in by_algorithm.values())
    metrics = {
        "setup_s": (common.median(setup_times), "s"),
        "cpq_p50_ms": (cpq_p50, "ms"),
        "cpq_tail_ms": (common.tail(latency_ms)["value"], "ms"),
        # One closed-loop client: answers per second of query time (the
        # set-ups between cycles are not part of the loop's work).
        "cpq_per_s": (correct / query_s, "1/s"),
        "cpu_ms_per_op": (1000.0 * cpu_s / len(runs), "ms"),
        "disk_accesses_per_cpq": (
            sum(d for _, _, d, _, _ in runs) / len(runs), "count"),
        "error_share": (failed / len(runs), "ratio"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    return {
        "attempted": len(runs),
        "failed": failed,
        "wrong_answers": check.wrong,
        "invalid": False,
        "metrics": metrics,
        "record": {
            "k": K,
            "cycles": len(runs) // len(CYCLE),
            "ops": len(runs),
            "measured_s": query_s,
            "cpu_s": {"generator": cpu_s},
            "setup_runs_s": setup_times,
            "tails": {"cpq": common.tail(latency_ms)},
            "by_algorithm": by_algorithm,
            "wrong_answers_by_label": check.failed_kinds[:20],
        },
        "cpq_stats": cpq_stats,
    }
