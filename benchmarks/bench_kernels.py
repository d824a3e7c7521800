#!/usr/bin/env python
"""Scalar vs. vectorised node-expansion kernel microbenchmark.

Times the four pairwise kernels the CPQ engine runs per node pair --
MINMINDIST, MINMAXDIST, MAXMAXDIST over entry-MBR arrays and the
leaf x leaf point-distance matrix -- in two implementations: the NumPy
batch kernels of :mod:`repro.geometry.vectorized` that the engine runs,
and a scalar per-pair loop over the oracle metrics of
:mod:`repro.geometry.metrics` as the baseline.

The workload is the paper's node shape: M = 21 entries per node
(1 KiB pages, d = 2), i.e. 441 entry pairs per kernel call.  Besides
timing, every run asserts the two implementations agree *bitwise* --
the parity ``tests/test_kernel_parity.py`` pins.

Exit status is the CI gate: nonzero when any kernel's speedup falls
below ``--min-speedup`` (default 1.0, i.e. "vectorised must not be
slower").  Results feed the ``KERNEL_NS_PER_PAIR`` calibration table
in :mod:`repro.analysis.cost_model`; re-run with ``--json`` after
kernel changes and update the constants from the printed ns/pair.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_kernels.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.geometry import metrics as scalar_metrics
from repro.geometry.mbr import MBR
from repro.geometry.minkowski import EUCLIDEAN
from repro.geometry.vectorized import (
    pairwise_maxdist,
    pairwise_mindist,
    pairwise_minmaxdist,
    pairwise_point_distances,
)

#: The paper's node capacity (1 KiB pages, d = 2): each kernel call
#: covers an M x M pair matrix.
M = 21


def _make_nodes(seed: int) -> Tuple[np.ndarray, ...]:
    """Two synthetic M-entry nodes: MBR arrays plus leaf points."""
    rng = np.random.default_rng(seed)
    lo_p = rng.random((M, 2))
    hi_p = lo_p + rng.random((M, 2)) * 0.05
    lo_q = rng.random((M, 2))
    hi_q = lo_q + rng.random((M, 2)) * 0.05
    pts_p = rng.random((M, 2))
    pts_q = rng.random((M, 2))
    return lo_p, hi_p, lo_q, hi_q, pts_p, pts_q


def _scalar_rect_matrix(fn, mbrs_p, mbrs_q) -> np.ndarray:
    """Scalar baseline: one :mod:`repro.geometry.metrics` call per pair."""
    return np.array(
        [[fn(a, b, EUCLIDEAN) for b in mbrs_q] for a in mbrs_p],
        dtype=np.float64,
    )


def _scalar_point_matrix(pts_p, pts_q) -> np.ndarray:
    """Scalar baseline: one metric distance call per point pair."""
    return np.array(
        [[EUCLIDEAN.distance(a, b) for b in pts_q] for a in pts_p],
        dtype=np.float64,
    )


def _best_seconds(fn: Callable[[], object], repeats: int,
                  iterations: int) -> float:
    """Best-of-``repeats`` mean seconds per call."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        for __ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def run(repeats: int, iterations: int, seed: int) -> Dict[str, dict]:
    """Time every kernel both ways; returns per-kernel numbers."""
    lo_p, hi_p, lo_q, hi_q, pts_p, pts_q = _make_nodes(seed)
    mbrs_p = [MBR(tuple(lo), tuple(hi)) for lo, hi in zip(lo_p, hi_p)]
    mbrs_q = [MBR(tuple(lo), tuple(hi)) for lo, hi in zip(lo_q, hi_q)]

    kernels: Dict[str, Tuple[Callable, Callable]] = {
        "minmin": (
            lambda: _scalar_rect_matrix(scalar_metrics.mindist,
                                        mbrs_p, mbrs_q),
            lambda: pairwise_mindist(lo_p, hi_p, lo_q, hi_q, EUCLIDEAN),
        ),
        "minmax": (
            lambda: _scalar_rect_matrix(scalar_metrics.minmaxdist,
                                        mbrs_p, mbrs_q),
            lambda: pairwise_minmaxdist(lo_p, hi_p, lo_q, hi_q, EUCLIDEAN),
        ),
        "maxmax": (
            lambda: _scalar_rect_matrix(scalar_metrics.maxdist,
                                        mbrs_p, mbrs_q),
            lambda: pairwise_maxdist(lo_p, hi_p, lo_q, hi_q, EUCLIDEAN),
        ),
        "points": (
            lambda: _scalar_point_matrix(pts_p, pts_q),
            lambda: pairwise_point_distances(pts_p, pts_q, EUCLIDEAN),
        ),
    }

    pairs = M * M
    results: Dict[str, dict] = {}
    for name, (scalar_fn, vector_fn) in kernels.items():
        scalar_out = scalar_fn()
        vector_out = vector_fn()
        if not np.array_equal(scalar_out, vector_out):
            raise AssertionError(
                f"kernel {name!r}: scalar and vectorised outputs differ "
                f"(max abs diff "
                f"{np.max(np.abs(scalar_out - vector_out)):.3e})"
            )
        scalar_s = _best_seconds(scalar_fn, repeats, iterations)
        vector_s = _best_seconds(vector_fn, repeats, iterations)
        results[name] = {
            "pairs_per_call": pairs,
            "scalar_ns_per_pair": scalar_s / pairs * 1e9,
            "vectorized_ns_per_pair": vector_s / pairs * 1e9,
            "speedup": scalar_s / vector_s,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scalar vs vectorised expansion-kernel benchmark "
                    "(M=21 node pairs, d=2)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (CI smoke mode)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail (exit 1) if any kernel's vectorised "
                             "speedup is below this (default: 1.0)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None,
                        help="also write the numbers as JSON here")
    args = parser.parse_args(argv)

    repeats, iterations = (3, 50) if args.quick else (7, 400)
    results = run(repeats, iterations, args.seed)

    print(f"expansion kernels, M={M} ({M * M} pairs/call), d=2, "
          f"euclidean; best of {repeats} x {iterations} calls")
    print(f"{'kernel':<8} {'scalar ns/pair':>15} {'vector ns/pair':>15} "
          f"{'speedup':>9}")
    for name, row in results.items():
        print(f"{name:<8} {row['scalar_ns_per_pair']:>15.1f} "
              f"{row['vectorized_ns_per_pair']:>15.1f} "
              f"{row['speedup']:>8.1f}x")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"wrote {args.json}")

    worst = min(results.values(), key=lambda row: row["speedup"])
    if worst["speedup"] < args.min_speedup:
        print(f"FAIL: slowest kernel speedup {worst['speedup']:.2f}x "
              f"< required {args.min_speedup:g}x", file=sys.stderr)
        return 1
    print(f"OK: all kernels >= {args.min_speedup:g}x "
          f"(slowest {worst['speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
