#!/usr/bin/env python
"""Overhead benchmark for the resilience stack.

Measures what the robustness machinery costs on the fault-free hot
path -- the number every resilience feature must justify itself
against:

* **checksum**: verify-deserialize throughput of the checksummed page
  format, split into the CRC32 itself (``page_checksum`` timed alone
  over the same pages) and the rest of the decode.
* **retry plumbing**: buffered page reads through the retry-wrapped
  miss path, against a policy of one attempt (no retry loop state).

Also reports the *recovery* cost: wall time of a reference K-CPQ under
the seeded ``transient`` chaos schedule relative to the fault-free
run, with the injected fault/retry counts.

* **hedging**: tail latency of the 2-shard scatter-gather when one
  shard's wire is persistently slow -- p99 with hedged duplicate
  dispatch against p99 with hedging disabled.  This is the number the
  hedging machinery must justify itself with: a straggling shard
  should cost roughly the hedge threshold, not the full stall.

The printed table is Markdown (paste into ``docs/BENCHMARKS.md``).
Exit status is the CI gate: nonzero when the CRC32 costs more than
``--max-overhead`` of the rest of the decode (default 0.5, i.e.
"checksums may cost at most 50%"; the real ratio is far lower because
CRC32 is C-speed), or when the hedged p99
fails to undercut the no-hedging p99 by at least
``--max-hedged-ratio``.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --quick   # CI
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core.api import CPQRequest, k_closest_pairs
from repro.rtree.bulk import bulk_load
from repro.storage.buffer import RetryPolicy
from repro.storage.faults import FaultPlan, unwrap_tree_store, wrap_tree_store
from repro.storage.page import PageLayout
from repro.storage.paged_file import PagedFile
from repro.storage.serializer import NodeSerializer, page_checksum
from repro.storage.store import MemoryPageStore


def bench_checksum(pages: int, repeats: int) -> dict:
    """Decode throughput: the checksummed decode against its CRC32.

    Every decode verifies the page checksum, so the checksum's share is
    measured directly: ``page_checksum`` alone over the same pages,
    charged against the rest of the decode,
    ``overhead = checksum_s / (verified_s - checksum_s)``.
    """
    layout = PageLayout(page_size=1024)
    serializer = NodeSerializer(layout)
    rng = random.Random(7)
    entries = [
        ((rng.random(), rng.random()), i) for i in range(layout.max_entries)
    ]
    page = serializer.serialize_leaf(entries)

    def best_of(fn) -> float:
        best = float("inf")
        for __ in range(repeats):
            start = time.perf_counter()
            for __ in range(pages):
                fn(page)
            best = min(best, time.perf_counter() - start)
        return best

    verified = best_of(serializer.deserialize_arrays)
    checksum = best_of(page_checksum)
    return {
        "verified_s": verified,
        "checksum_s": checksum,
        "overhead": checksum / max(verified - checksum, 1e-12),
        "pages": pages,
    }


def bench_retry_plumbing(reads: int, repeats: int) -> dict:
    """Buffered miss-path reads: default retry loop vs single attempt."""
    def run(policy: RetryPolicy) -> float:
        store = MemoryPageStore(1024)
        for __ in range(64):
            store.write(store.allocate(), b"\x5A" * 1024)
        file = PagedFile(store, buffer_capacity=0, retry_policy=policy)
        best = float("inf")
        for __ in range(repeats):
            start = time.perf_counter()
            for i in range(reads):
                file.read_page(i % 64)
            best = min(best, time.perf_counter() - start)
        return best

    with_retry = run(RetryPolicy())
    single = run(RetryPolicy(max_attempts=1))
    return {
        "retry_s": with_retry,
        "single_s": single,
        "overhead": with_retry / single - 1.0,
        "reads": reads,
    }


def bench_recovery(n: int, k: int) -> dict:
    """Reference K-CPQ fault-free vs under the transient schedule."""
    rng = random.Random(11)
    tree_p = bulk_load([(rng.random(), rng.random()) for __ in range(n)])
    tree_q = bulk_load([(rng.random(), rng.random()) for __ in range(n)])
    request = CPQRequest(k=k, algorithm="heap")

    start = time.perf_counter()
    baseline = k_closest_pairs(tree_p, tree_q, request=request)
    clean_s = time.perf_counter() - start

    plan = FaultPlan(seed=13, p_transient=0.05)
    wrappers = [
        wrap_tree_store(tree_p, plan, sleep=lambda _s: None),
        wrap_tree_store(tree_q, plan, sleep=lambda _s: None),
    ]
    try:
        start = time.perf_counter()
        faulted = k_closest_pairs(tree_p, tree_q, request=request)
        faulted_s = time.perf_counter() - start
        retries = tree_p.stats.read_retries + tree_q.stats.read_retries
    finally:
        unwrap_tree_store(tree_p)
        unwrap_tree_store(tree_q)
    if faulted.pairs != baseline.pairs:
        raise AssertionError(
            "faulted K-CPQ diverged from the fault-free baseline -- "
            "the resilience invariant is broken"
        )
    injected = sum(w.faults.transient_raised for w in wrappers)
    return {
        "clean_s": clean_s,
        "faulted_s": faulted_s,
        "slowdown": faulted_s / clean_s if clean_s else float("nan"),
        "injected": injected,
        "retries": retries,
    }


def bench_hedging(n: int, queries: int, stall_s: float = 0.1) -> dict:
    """Tail latency with one persistently slow shard, hedged vs not.

    Two spawn shards over file-backed trees; a transport stalls every
    job to shard 0 by ``stall_s``.  Without hedging each query eats
    the stall; with hedging the coordinator duplicates the straggling
    chunk to shard 1 once the attempt exceeds the latency-quantile
    threshold, so the tail collapses to roughly the hedge floor.
    """
    import tempfile
    import threading

    from repro.net.faults import ShardTransport
    from repro.net.retry import HedgePolicy
    from repro.net.shard import ShardManager, tree_spec
    from repro.storage.store import FilePageStore

    class StallShardZero(ShardTransport):
        def send(self, shard, message) -> None:
            if shard.shard_id == 0:
                inbox = shard.inbox
                timer = threading.Timer(
                    stall_s, lambda: inbox.put(message)
                )
                timer.daemon = True
                timer.start()
            else:
                shard.inbox.put(message)

    def p99(samples: list) -> float:
        ordered = sorted(samples)
        rank = max(1, int(round(0.99 * len(ordered))))
        return ordered[rank - 1]

    rng = random.Random(17)
    with tempfile.TemporaryDirectory(prefix="bench-hedging-") as tmp:
        trees = []
        for name in ("p.pages", "q.pages"):
            store = FilePageStore(f"{tmp}/{name}", page_size=1024)
            trees.append(bulk_load(
                [(rng.random(), rng.random()) for __ in range(n)],
                file=PagedFile(store, page_size=1024),
            ))
        spec_p, spec_q = tree_spec(trees[0]), tree_spec(trees[1])
        request = CPQRequest(k=10, algorithm="heap")
        out = {"queries": queries, "stall_s": stall_s}
        for label, policy in (
            ("unhedged", HedgePolicy(enabled=False)),
            # Median threshold: the persistent straggler's completions
            # would push a p95 threshold above the stall itself and
            # silence hedging -- exactly the regime this bench probes.
            ("hedged", HedgePolicy(quantile=0.5, floor_s=0.02,
                                   min_samples=4)),
        ):
            with ShardManager(
                spec_p, spec_q, shards=2,
                transport=StallShardZero(),
                shard_timeout_s=30.0, attempt_timeout_s=10.0,
                hedge_policy=policy, supervise=False,
            ) as manager:
                for __ in range(3):  # cold shards: spawn + first reads
                    manager.execute(request)
                latencies = []
                for __ in range(queries):
                    start = time.perf_counter()
                    result = manager.execute(request)
                    latencies.append(time.perf_counter() - start)
                    assert not result.stats.extra["net"]["partial"]
                out[f"{label}_p99_s"] = p99(latencies)
                out[f"{label}_mean_s"] = sum(latencies) / len(latencies)
                if label == "hedged":
                    stats = manager.net_stats()
                    out["hedges"] = stats["hedges"]
                    out["hedge_wins"] = stats["hedge_wins"]
        for tree in trees:
            tree.file.store.close()
    out["ratio"] = (out["hedged_p99_s"] / out["unhedged_p99_s"]
                    if out["unhedged_p99_s"] else float("nan"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fault-free overhead and recovery cost of the "
                    "resilience stack (checksums, retrying buffer)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller loops (CI)")
    parser.add_argument("--max-overhead", type=float, default=0.5,
                        help="fail (exit 1) if the CRC32 costs more "
                             "than this fraction of the rest of the "
                             "decode (default 0.5)")
    parser.add_argument("--max-hedged-ratio", type=float, default=0.8,
                        help="fail (exit 1) if the hedged p99 is not "
                             "below this fraction of the no-hedging "
                             "p99 under a stalled shard (default 0.8)")
    parser.add_argument("--skip-hedging", action="store_true",
                        help="skip the multi-process hedging benchmark")
    parser.add_argument("--json", default=None,
                        help="also write the numbers as JSON here")
    args = parser.parse_args(argv)

    pages = 2_000 if args.quick else 20_000
    reads = 5_000 if args.quick else 50_000
    n = 1_500 if args.quick else 8_000
    repeats = 2 if args.quick else 3

    checksum = bench_checksum(pages, repeats)
    plumbing = bench_retry_plumbing(reads, repeats)
    recovery = bench_recovery(n, k=10)
    hedging = None
    if not args.skip_hedging:
        hedging = bench_hedging(
            n=400 if args.quick else 1_000,
            queries=12 if args.quick else 40,
            stall_s=0.08 if args.quick else 0.1,
        )

    print("resilience overhead (fault-free hot path, best of "
          f"{repeats})\n")
    print("| path | with | without | overhead |")
    print("|---|---|---|---|")
    print(f"| checksummed decode ({checksum['pages']} pages; without "
          f"= minus the CRC32 alone) "
          f"| {checksum['verified_s'] * 1e3:.1f} ms "
          f"| {(checksum['verified_s'] - checksum['checksum_s']) * 1e3:.1f}"
          f" ms | {checksum['overhead'] * 100:+.1f}% |")
    print(f"| retry-wrapped miss path ({plumbing['reads']} reads) "
          f"| {plumbing['retry_s'] * 1e3:.1f} ms "
          f"| {plumbing['single_s'] * 1e3:.1f} ms "
          f"| {plumbing['overhead'] * 100:+.1f}% |")
    print()
    print(f"recovery: HEAP k=10 over {n} x {n} points under "
          f"transient p=0.05 -- {recovery['faulted_s'] * 1e3:.1f} ms vs "
          f"{recovery['clean_s'] * 1e3:.1f} ms clean "
          f"({recovery['slowdown']:.2f}x), {recovery['injected']} faults "
          f"injected, {recovery['retries']} retries, answers identical")
    if hedging is not None:
        print(f"hedging: 2 shards, shard 0 stalled "
              f"{hedging['stall_s'] * 1e3:.0f} ms, "
              f"{hedging['queries']} queries -- p99 "
              f"{hedging['hedged_p99_s'] * 1e3:.1f} ms hedged vs "
              f"{hedging['unhedged_p99_s'] * 1e3:.1f} ms unhedged "
              f"({hedging['ratio']:.2f}x), {hedging['hedges']} hedges, "
              f"{hedging['hedge_wins']} wins")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"checksum": checksum, "retry": plumbing,
                       "recovery": recovery, "hedging": hedging},
                      handle, indent=2)
        print(f"\nwrote {args.json}")

    failed = False
    if checksum["overhead"] > args.max_overhead:
        print(f"FAIL: checksum overhead {checksum['overhead']:.2f} "
              f"exceeds --max-overhead {args.max_overhead}",
              file=sys.stderr)
        failed = True
    if hedging is not None and hedging["ratio"] > args.max_hedged_ratio:
        print(f"FAIL: hedged p99 is {hedging['ratio']:.2f}x the "
              f"no-hedging p99, above --max-hedged-ratio "
              f"{args.max_hedged_ratio} -- hedging is not pulling in "
              f"the tail", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
