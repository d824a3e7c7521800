"""service-mix: served-mix's requests through an in-process service.

One closed-loop client sends the served-mix request vocabulary (40 %
KNN, 40 % range windows, 15 % viewport K-CPQ, 5 % unconstrained K-CPQ
at K = 1, 10 or 100, exact in every block of 20) to a
:class:`~repro.service.QueryService` with its shipped defaults (4
workers, result cache of 128, planner on ``auto``) over in-memory STR
trees.  The service queue, planner, result cache, query layer and the
small-K kernel path do the work; there is no HTTP edge, shard or page
file, so the file-offset race of the buffered page store (README.md,
*Known defect*) cannot reach its answers.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Any, Dict, Iterator, Optional

import numpy as np

from perfbench import common, tracing
from perfbench.served_mix import MIX, MIX_BLOCK, PAIR, Op, References, RequestDraw

#: Requests completed before measuring, so the cache holds its first entries.
WARMUP_REQUESTS = 40
SETUP_REPEATS = 3


def requests(seed: int, stream: int) -> Iterator[Op]:
    """An endless seeded request stream, the mix exact per block."""
    rng = np.random.default_rng([seed, stream])
    draw = RequestDraw(PAIR)
    block = [k for k, share in MIX for _ in range(round(share * MIX_BLOCK))]
    while True:
        rng.shuffle(block)
        for kind in block:
            request, key = draw(rng, kind)
            yield Op(kind, 0.0, request, key)


def setup(seed: int):
    """Inputs, two STR trees, the service, then the warm-up requests."""
    from repro.rtree import bulk
    from repro.service import QueryService

    points_p, points_q = common.make_inputs(seed)
    service = QueryService()
    service.register_pair(PAIR, bulk.bulk_load(points_p),
                          bulk.bulk_load(points_q))
    warm = []
    for op in _take(requests(seed, stream=1), WARMUP_REQUESTS):
        service.execute(op.request)
        warm.append(op)
    return points_p, points_q, service, warm


def _take(stream: Iterator[Op], count: int):
    for _ in range(count):
        yield next(stream)


def run(seed: int, seconds: float, workdir: str,
        trace_dir: Optional[str] = None) -> Dict[str, Any]:
    setup_times = []
    service = None
    try:
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
                service = None
                gc.collect()
            with tracing.phase("setup"):
                started = time.perf_counter()
                points_p, points_q, service, warm = setup(seed)
                setup_times.append(time.perf_counter() - started)

        # Each answer is checked between requests, outside the timed
        # call, against a reference built apart from the served trees;
        # whole blocks only, so the mix holds exactly.  Only aggregates
        # and latencies are kept, so the benchmark's own memory does not
        # grow with the number of requests a run completes.  KNN and
        # range requests draw fresh points and never repeat.
        refs = References(points_p, points_q)
        check = common.AnswerCheck()
        seen = {op.key for op in warm if op.kind in References.REPEATING}
        stream = requests(seed, stream=2)
        latency = {kind: array("d") for kind, _ in MIX}
        totals = dict.fromkeys(("ops", "query_s", "cpu_s", "failed",
                                "correct_cpq", "repeated", "cached"), 0)
        figures = {"cpq_stats": [], "rcp_sources": []}
        started = time.perf_counter()
        while not totals["ops"] or time.perf_counter() - started < seconds:
            for op in _take(stream, MIX_BLOCK):
                with tracing.phase("measured"):
                    c0 = time.process_time()
                    t0 = time.perf_counter()
                    response = service.execute(op.request)
                    dt = time.perf_counter() - t0
                    cpu = time.process_time() - c0
                ok = response.ok and check.compare(
                    op.kind, common.canon(op.request.kind, response.result),
                    [refs.get(op)])
                latency[op.kind].append(dt * 1000.0)
                totals["ops"] += 1
                totals["query_s"] += dt
                totals["cpu_s"] += cpu
                totals["failed"] += not ok
                totals["correct_cpq"] += ok and op.kind in ("viewport", "cpq")
                totals["cached"] += bool(response.cached)
                if op.kind in References.REPEATING:
                    totals["repeated"] += op.key in seen
                    seen.add(op.key)
                for name, values in common.executed_cpq_figures(
                        [response]).items():
                    figures[name].extend(values)
    finally:
        if service is not None:
            service.close()

    ops = totals["ops"]
    point = list(latency["knn"]) + list(latency["range"])
    tails = {"cpq": common.tail(latency["cpq"]),
             "viewport": common.tail(latency["viewport"]),
             "point": common.tail(point)}
    metrics = {
        "setup_s": (common.median(setup_times), "s"),
        "cpq_p50_ms": (common.median(latency["cpq"]), "ms"),
        "cpq_tail_ms": (tails["cpq"]["value"], "ms"),
        # One closed-loop client: K-CPQ answers (viewport and
        # unconstrained) per second of request time.
        "cpq_per_s": (totals["correct_cpq"] / totals["query_s"], "1/s"),
        "cpu_ms_per_op": (1000.0 * totals["cpu_s"] / ops, "ms"),
        "viewport_p50_ms": (common.median(latency["viewport"]), "ms"),
        "viewport_tail_ms": (tails["viewport"]["value"], "ms"),
        "point_p50_ms": (common.median(point), "ms"),
        "point_tail_ms": (tails["point"]["value"], "ms"),
        "error_share": (totals["failed"] / ops, "ratio"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    return {
        "attempted": ops,
        "failed": totals["failed"],
        "wrong_answers": check.wrong,
        "invalid": False,
        "metrics": metrics,
        "record": {
            "mix": dict(MIX),
            "ops": ops,
            "measured_s": totals["query_s"],
            "cpu_s": {"generator": totals["cpu_s"]},
            "setup_runs_s": setup_times,
            "tails": tails,
            "by_kind": {k: len(v) for k, v in latency.items()},
            "repeated_share": totals["repeated"] / ops,
            "cache_hit_share": totals["cached"] / ops,
            "wrong_answers_by_label": check.failed_kinds[:20],
        },
        **figures,
    }
