#!/usr/bin/env python
"""Shard-scaling benchmark for the network tier.

Boots the full stack -- file-backed trees, :class:`ShardManager`,
:class:`QueryService`, asyncio :class:`NetServer` on a real socket --
at 1 shard and at 4 shards, verifies byte parity with the serial
engine for every shardable algorithm *through the socket*, then
drives each configuration with the closed-loop multi-client load
generator and reports sustained QPS and latency tails.

The shards run in the disk-bound regime (cold buffers plus a
simulated per-miss read latency that sleeps instead of reading): each
query's partitions wait on "disk" concurrently in separate shard
processes, so shard scaling shows up as wall-clock throughput even on
a single CPU core -- the regime the paper's I/O-dominated cost model
describes.

The summary is written to ``benchmarks/results/BENCH_network_qps.json``
(QPS, p50/p99, shard count per run, plus the 4-vs-1 scaling factor) so
the perf trajectory is machine-readable across PRs.  Exit status is
the CI gate: nonzero when 4-shard QPS fails to reach ``--min-scaling``
x the 1-shard QPS (default 2.0; ``--quick`` gates at a conservative
1.3 for shared CI boxes).

Usage::

    PYTHONPATH=src python benchmarks/bench_network.py           # full
    PYTHONPATH=src python benchmarks/bench_network.py --quick   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.core.api import CPQRequest as CoreCPQ, k_closest_pairs
from repro.datasets import sequoia_like
from repro.net import NetClient, NetServer, ShardManager, tree_spec
from repro.net.loadgen import run_loadgen
from repro.net.shard import TreeSpec
from repro.rtree.bulk import bulk_load
from repro.service import CPQRequest as ServiceCPQ, QueryService
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore

SHARD_COUNTS = (1, 4)
ALGORITHMS = ("naive", "exh", "sim", "std", "heap")


def build_trees(scratch: str, n: int):
    """Two SEQUOIA-like point sets persisted for shard reopening."""
    trees = []
    for side, seed in (("p", 2000), ("q", 2001)):
        store = FilePageStore(
            os.path.join(scratch, f"{side}.pages"), page_size=1024
        )
        trees.append(bulk_load(
            [tuple(p) for p in sequoia_like(n, seed=seed)],
            file=PagedFile(store, page_size=1024),
        ))
    return trees


def boot(tree_p, tree_q, shards: int, read_latency: float,
         workers: int):
    """Full stack for one shard count; returns the started server."""
    specs = []
    for tree in (tree_p, tree_q):
        spec = tree_spec(tree)
        # Cold shard buffers + per-miss latency: the disk-bound regime
        # where shard parallelism is wall-clock overlap of I/O waits.
        specs.append(TreeSpec(spec.path, spec.page_size, spec.metadata,
                              buffer_capacity=0,
                              read_latency=read_latency))
    manager = ShardManager(specs[0], specs[1], shards=shards)
    service = QueryService(
        workers=workers, cpq_executor=manager.service_executor(),
    )
    service.register_pair("default", manager.tree_p, manager.tree_q)
    return NetServer(service, manager=manager).start_in_thread()


def check_parity(port: int, serial_by_algorithm, k: int) -> None:
    """Byte parity through the socket, every algorithm, or die."""
    with NetClient("127.0.0.1", port) as client:
        for algorithm, serial in serial_by_algorithm.items():
            response = client.query(ServiceCPQ(
                pair="default", k=k, algorithm=algorithm,
                use_cache=False,
            ))
            assert response.status == "ok", (algorithm, response.error)
            assert response.result.pairs == serial.pairs, (
                f"{algorithm}: network answer diverged from serial"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="network-tier shard-scaling benchmark"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: shorter runs, lower gate")
    parser.add_argument("--n", type=int, default=None,
                        help="points per tree (default 2000, quick 600)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--clients", type=int, default=6,
                        help="closed-loop client threads")
    parser.add_argument("--duration", type=float, default=None,
                        help="measured seconds per configuration "
                             "(default 6, quick 2)")
    parser.add_argument("--read-latency-ms", type=float, default=1.0,
                        help="simulated per-miss disk latency in shards")
    parser.add_argument("--min-scaling", type=float, default=None,
                        help="gate: 4-shard QPS / 1-shard QPS floor "
                             "(default 2.0, quick 1.3)")
    parser.add_argument("--out", default=None,
                        help="summary JSON path (default "
                             "benchmarks/results/BENCH_network_qps.json)")
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (600 if args.quick else 2_000)
    duration = (args.duration if args.duration is not None
                else (2.0 if args.quick else 6.0))
    min_scaling = (args.min_scaling if args.min_scaling is not None
                   else (1.3 if args.quick else 2.0))
    out_path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "results", "BENCH_network_qps.json",
    )
    latency_s = args.read_latency_ms / 1000.0

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-network-") as scratch:
        tree_p, tree_q = build_trees(scratch, n)
        serial_by_algorithm = {
            algorithm: k_closest_pairs(
                tree_p, tree_q,
                request=CoreCPQ(k=args.k, algorithm=algorithm),
            )
            for algorithm in ALGORITHMS
        }
        templates = [ServiceCPQ(pair="default", k=args.k,
                                algorithm="heap", use_cache=False)]
        for shards in SHARD_COUNTS:
            server = boot(tree_p, tree_q, shards, latency_s,
                          workers=args.clients)
            try:
                check_parity(server.port, serial_by_algorithm, args.k)
                summary = run_loadgen(
                    "127.0.0.1", server.port, templates,
                    clients=args.clients,
                    duration_s=duration,
                    warmup_s=min(1.0, duration / 4.0),
                )
            finally:
                server.close()
            summary["shards"] = shards
            runs.append(summary)
            print(f"# shards={shards}: {summary['qps']} qps, "
                  f"p50={summary['p50_ms']}ms "
                  f"p99={summary['p99_ms']}ms "
                  f"({summary['requests']} requests, "
                  f"{summary['errors']} errors)", file=sys.stderr)

    scaling = (runs[1]["qps"] / runs[0]["qps"]
               if runs[0]["qps"] else 0.0)
    report = {
        "benchmark": "network_qps",
        "config": {
            "n": n,
            "k": args.k,
            "clients": args.clients,
            "duration_s": duration,
            "read_latency_ms": args.read_latency_ms,
            "algorithm": "heap",
            "quick": args.quick,
        },
        "runs": runs,
        "scaling_4v1": round(scaling, 2),
    }
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print("\n| shards | qps | p50 ms | p99 ms | requests | errors |")
    print("|-------:|----:|-------:|-------:|---------:|-------:|")
    for run in runs:
        print(f"| {run['shards']} | {run['qps']} | {run['p50_ms']} "
              f"| {run['p99_ms']} | {run['requests']} "
              f"| {run['errors']} |")
    print(f"\n4-shard scaling vs 1 shard: {scaling:.2f}x "
          f"(gate: >= {min_scaling}x); wrote {out_path}")

    if any(run["errors"] for run in runs):
        print("FAIL: load generator observed errors", file=sys.stderr)
        return 1
    if scaling < min_scaling:
        print(f"FAIL: scaling {scaling:.2f}x below the "
              f"{min_scaling}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
