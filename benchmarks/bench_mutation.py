#!/usr/bin/env python
"""Benchmarks for the live-mutation storage layer.

Two measurements, each tied to a design decision of
``docs/STORAGE.md``:

* **ingest throughput**: WAL-protected batched inserts at several
  batch sizes, in points/second.  Shows what grouping commits buys:
  one generation bump, one snapshot publication and one WAL sync per
  batch instead of per insert.
* **recovery replay**: wall time for ``recover_tree`` to replay the
  ingested WAL onto a cold page file.

The printed tables are Markdown (paste into ``docs/BENCHMARKS.md``).

Usage::

    PYTHONPATH=src python benchmarks/bench_mutation.py           # full
    PYTHONPATH=src python benchmarks/bench_mutation.py --quick   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time

from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.page import PageLayout
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore
from repro.storage.wal import WriteAheadLog, recover_tree


def _random_points(n: int, seed: int):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for __ in range(n)]


def bench_ingest(workdir: str, n: int, batch_sizes, sync: str) -> dict:
    """WAL-protected batched insert throughput per batch size."""
    points = _random_points(n, seed=17)
    rows = []
    for batch_size in batch_sizes:
        prefix = os.path.join(workdir, f"ingest-{batch_size}")
        store = FilePageStore(prefix + ".pages", 1024)
        tree = RTree(RTreeConfig(layout=PageLayout(page_size=1024)),
                     PagedFile(store, page_size=1024))
        wal = WriteAheadLog(prefix + ".wal", sync_mode=sync)
        tree.enable_live_mutation(wal)
        start = time.perf_counter()
        for offset in range(0, len(points), batch_size):
            with tree.batch():
                for i, point in enumerate(points[offset:offset + batch_size]):
                    tree.insert(point, offset + i)
        elapsed = time.perf_counter() - start
        store.flush()
        wal.close()
        store.close()
        rows.append({
            "batch_size": batch_size,
            "points": len(points),
            "elapsed_s": elapsed,
            "points_per_s": len(points) / elapsed if elapsed else 0.0,
            "generations": tree.generation,
        })
    return {"sync": sync, "rows": rows}


def bench_recovery(workdir: str, n: int, batch_size: int) -> dict:
    """Replay time of a full ingest WAL onto a cold page file."""
    prefix = os.path.join(workdir, "recover")
    store = FilePageStore(prefix + ".pages", 1024)
    tree = RTree(RTreeConfig(layout=PageLayout(page_size=1024)),
                 PagedFile(store, page_size=1024))
    wal = WriteAheadLog(prefix + ".wal", sync_mode="none")
    tree.enable_live_mutation(wal)
    points = _random_points(n, seed=23)
    for offset in range(0, len(points), batch_size):
        with tree.batch():
            for i, point in enumerate(points[offset:offset + batch_size]):
                tree.insert(point, offset + i)
    store.flush()
    wal.close()
    store.close()

    start = time.perf_counter()
    recovered, result = recover_tree(prefix + ".pages", prefix + ".wal",
                                     page_size=1024)
    elapsed = time.perf_counter() - start
    assert recovered is not None and len(recovered) == n
    recovered.file.store.close()
    return {
        "points": n,
        "batches": result.batches_applied,
        "pages_written": result.pages_written,
        "replay_s": elapsed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="WAL-batched ingest and recovery replay "
                    "benchmarks for the live-mutation layer",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller loops (CI)")
    parser.add_argument("--json", default=None,
                        help="also write the numbers as JSON here")
    args = parser.parse_args(argv)

    ingest_n = 1_000 if args.quick else 5_000
    batch_sizes = (1, 16, 128)

    workdir = tempfile.mkdtemp(prefix="bench-mutation-")
    try:
        ingest = bench_ingest(workdir, ingest_n, batch_sizes,
                              sync="flush")
        recovery = bench_recovery(workdir, ingest_n, batch_size=64)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("live-mutation benchmarks\n")
    print(f"| ingest (WAL sync={ingest['sync']}) | batch | points/s "
          f"| commits |")
    print("|---|---|---|---|")
    for row in ingest["rows"]:
        print(f"| {row['points']} points | {row['batch_size']} "
              f"| {row['points_per_s']:.0f} | {row['generations']} |")
    print()
    print(f"recovery: {recovery['batches']} committed batches, "
          f"{recovery['pages_written']} page images replayed in "
          f"{recovery['replay_s'] * 1e3:.1f} ms "
          f"({recovery['points']} points)")

    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump({"ingest": ingest, "recovery": recovery}, handle,
                      indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
