"""Shared pieces of the benchmark: inputs, statistics, answer checks.

Nothing here is timed: the workloads call these helpers outside their
measured sections (input generation counts as set-up, answer
comparison runs after the measured loop).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Points per data set, for every workload.
N_POINTS = 20_000
#: Percentile ladder for tail latency; the reported tail is the highest
#: rung with at least :data:`TAIL_MIN_BEYOND` samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def make_inputs(seed: int, n: int = N_POINTS) -> Tuple[np.ndarray, np.ndarray]:
    """The two data sets of a run: SEQUOIA-like P and uniform Q.

    P is the package's SEQUOIA stand-in at its default layout, the fixed
    real data set of the paper's experiments; the seed draws Q.  Letting
    the seed move P's clusters changes the problem rather than the
    sample: on identical code EXH at K = 10,000 took 1.2 s on one layout
    and 5.2 s on another, while Q seeds move it by a few percent.
    """
    from repro.datasets.sequoia import sequoia_like
    from repro.datasets.uniform import uniform_points

    return sequoia_like(n), uniform_points(n, seed=2 * seed + 2)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def nearest_rank(sorted_values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values: Sequence[float]) -> Dict[str, Any]:
    """The highest ladder percentile with >= 10 samples beyond it.

    Returns ``{"value", "pct", "beyond", "n"}``.  With too few samples
    for any rung, the maximum is reported with ``pct`` 100 and the
    short ``beyond`` count says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return {"value": float("nan"), "pct": None, "beyond": 0, "n": 0}
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return {"value": value, "pct": pct, "beyond": beyond, "n": n}
    return {"value": ordered[-1], "pct": 100.0, "beyond": 0, "n": n}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# Answer canonicalisation and comparison
# ---------------------------------------------------------------------------

def canon_cpq(result) -> Tuple:
    """A CPQResult as comparable tuples, in reported (tie) order."""
    return tuple(
        (float(p.distance), tuple(map(float, p.p)), tuple(map(float, p.q)),
         int(p.p_oid), int(p.q_oid))
        for p in result.pairs
    )


def canon_knn(found) -> Tuple:
    """KNN ``(distance, LeafEntry)`` list in reported order."""
    return tuple(
        (float(d), int(e.oid), tuple(map(float, e.point))) for d, e in found
    )


def canon_range(found) -> Tuple:
    """Range answer as a sorted tuple: a window's answer is a set."""
    return tuple(sorted(
        (int(e.oid), tuple(map(float, e.point))) for e in found
    ))


def canon(kind: str, result) -> Tuple:
    if kind == "cpq":
        return canon_cpq(result)
    if kind == "knn":
        return canon_knn(result)
    return canon_range(result)


class AnswerCheck:
    """Counts answers that differ from their reference.

    A wrong answer never stops the run; it is counted here and in the
    workload's failed operations.
    """

    def __init__(self) -> None:
        self.wrong = 0
        #: The label of every wrong answer, in order.
        self.failed_kinds: List[str] = []

    def compare(self, label: str, got: Tuple, accepted: Sequence[Tuple]) -> bool:
        """True when ``got`` equals any accepted reference."""
        if any(got == ref for ref in accepted):
            return True
        self.wrong += 1
        self.failed_kinds.append(label)
        return False


# ---------------------------------------------------------------------------
# Host record and process measurements
# ---------------------------------------------------------------------------

def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or its reaped children), MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_s(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def host_record(root: str) -> Dict[str, Any]:
    """nproc, interpreter, NumPy, git commit and the load average."""
    commit: Optional[str] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def statuses(requests) -> Dict[str, int]:
    """Count of each response status over requests with ``error`` (a
    transport failure) and ``response`` attributes."""
    out: Dict[str, int] = {}
    for request in requests:
        status = ("transport_error" if request.error
                  else request.response.status)
        out[status] = out.get(status, 0) + 1
    return out


def executed_cpq_figures(responses) -> Dict[str, list]:
    """Counters of the K-CPQs a service executed (cache hits excluded).

    ``cpq_stats`` holds ``(node pairs visited, distance computations)``
    per executed query and ``rcp_sources`` the candidate-index outcome of
    each executed query the planner sent to ``rcp``.
    """
    stats, sources = [], []
    for response in responses:
        if (response is None or response.kind != "cpq" or not response.ok
                or response.cached):
            continue
        counters = response.result.stats
        stats.append((counters.node_pairs_visited,
                      counters.distance_computations))
        if "rcp" in counters.extra:
            sources.append(counters.extra["rcp"].get("source"))
    return {"cpq_stats": stats, "rcp_sources": sources}
