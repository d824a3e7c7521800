"""Crash recovery: kill a writer mid-batch, replay the WAL, compare.

The acceptance chaos test for the live-mutation layer
(``docs/STORAGE.md``): a subprocess runs ``repro-cpq ingest
--crash-after N`` and dies via ``os._exit`` in the middle of batch
``N+1`` -- WRITE records in the log, no COMMIT, page file never
flushed.  ``repro-cpq recover`` replays the committed prefix, and all
five core algorithms must return byte-identical pairs *and tie order*
against a never-crashed baseline tree built from the same committed
batches.  Torn-WAL damage on top of the crash (``tear_file_tail``)
must still recover every batch whose COMMIT frame survived.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro.core import CPQRequest, k_closest_pairs
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree, RTreeConfig
from repro.rtree.validate import validate
from repro.storage.faults import tear_file_tail
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore
from repro.storage.wal import WriteAheadLog, recover_tree

ALGORITHMS = ("naive", "exh", "sim", "std", "heap")
BATCH = 40
CRASH_AFTER = 3  # committed batches before the crash

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run_cli(*argv, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH")) \
        + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == expect, (
        f"{argv} -> {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
    )
    return proc


def make_points(n, seed):
    rng = random.Random(seed)
    return [(round(rng.random(), 6), round(rng.random(), 6))
            for __ in range(n)]


def write_csv(path, points):
    with open(path, "w") as handle:
        handle.write("x,y\n")
        for x, y in points:
            handle.write(f"{x},{y}\n")


def baseline_tree(points, batch_size=BATCH, batches=CRASH_AFTER):
    """A never-crashed tree: the same committed batches, in process."""
    tree = RTree(RTreeConfig())
    tree.enable_live_mutation()
    for b in range(batches):
        with tree.batch():
            chunk = points[b * batch_size:(b + 1) * batch_size]
            for i, point in enumerate(chunk):
                tree.insert(point, b * batch_size + i)
    return tree


def pairs_signature(result):
    return [(p.p, p.q, p.distance) for p in result.pairs]


@pytest.fixture(scope="module")
def crashed_workdir(tmp_path_factory):
    """Ingest 220 points, crash mid-batch 4, leave the wreckage."""
    workdir = tmp_path_factory.mktemp("crash")
    points = make_points(220, seed=1234)
    csv = str(workdir / "points.csv")
    write_csv(csv, points)
    pages = str(workdir / "crashed.pages")
    run_cli("ingest", csv, "--tree", pages, "--batch-size", str(BATCH),
            "--sync", "flush", "--crash-after", str(CRASH_AFTER),
            expect=1)
    return workdir, points, pages


@pytest.fixture(scope="module")
def query_side(tmp_path_factory):
    """The fixed Q tree both the baseline and recovered P query against."""
    return bulk_load(make_points(150, seed=4321))


class TestCrashRecovery:
    def test_wreckage_has_wal_but_stale_meta(self, crashed_workdir):
        workdir, __, pages = crashed_workdir
        wal = pages + ".wal"
        assert os.path.exists(wal) and os.path.getsize(wal) > 0
        # The sidecar still describes the *empty* pre-ingest tree: the
        # crash happened before the final metadata rewrite.
        with open(pages + ".meta.json") as handle:
            assert json.load(handle)["count"] == 0

    def test_recover_then_all_five_algorithms_byte_identical(
        self, crashed_workdir, query_side, tmp_path,
    ):
        workdir, points, pages = crashed_workdir
        proc = run_cli("recover", "--tree", pages)
        assert "recovered" in proc.stdout
        with open(pages + ".meta.json") as handle:
            metadata = json.load(handle)
        committed = CRASH_AFTER * BATCH
        assert metadata["count"] == committed
        assert metadata["generation"] == CRASH_AFTER

        store = FilePageStore(pages, metadata["page_size"])
        recovered = RTree.from_storage(PagedFile(store), metadata)
        validate(recovered)
        baseline = baseline_tree(points)
        assert len(recovered) == len(baseline) == committed
        assert sorted(
            (e.point, e.oid) for e in recovered.iter_leaf_entries()
        ) == sorted(
            (e.point, e.oid) for e in baseline.iter_leaf_entries()
        )

        for algorithm in ALGORITHMS:
            request = CPQRequest(k=10, algorithm=algorithm)
            expected = k_closest_pairs(baseline, query_side,
                                       request=request)
            got = k_closest_pairs(recovered, query_side,
                                  request=request)
            assert pairs_signature(got) == pairs_signature(expected), (
                f"{algorithm}: recovered tree disagrees with baseline"
            )
        store.close()

    def test_recovery_is_idempotent(self, crashed_workdir):
        __, __, pages = crashed_workdir
        run_cli("recover", "--tree", pages)
        before = open(pages + ".meta.json").read()
        run_cli("recover", "--tree", pages)
        assert open(pages + ".meta.json").read() == before

    def test_readonly_reopen_matches_baseline(self, crashed_workdir,
                                              query_side):
        __, points, pages = crashed_workdir
        run_cli("recover", "--tree", pages)
        with open(pages + ".meta.json") as handle:
            metadata = json.load(handle)
        request = CPQRequest(k=7, algorithm="heap")
        store = FilePageStore(pages, metadata["page_size"], readonly=True)
        try:
            tree = RTree.from_storage(PagedFile(store), metadata)
            got = k_closest_pairs(tree, query_side, request=request)
        finally:
            store.close()
        expected = k_closest_pairs(baseline_tree(points), query_side,
                                   request=request)
        assert pairs_signature(got) == pairs_signature(expected)


class TestTornWal:
    def test_torn_tail_on_top_of_crash_still_recovers(self, tmp_path,
                                                      query_side):
        points = make_points(220, seed=77)
        csv = str(tmp_path / "points.csv")
        write_csv(csv, points)
        pages = str(tmp_path / "torn.pages")
        run_cli("ingest", csv, "--tree", pages, "--batch-size",
                str(BATCH), "--sync", "flush", "--crash-after",
                str(CRASH_AFTER), expect=1)
        torn = tear_file_tail(pages + ".wal", seed=9, max_bytes=64)
        assert torn > 0
        run_cli("recover", "--tree", pages)
        with open(pages + ".meta.json") as handle:
            metadata = json.load(handle)
        # Every batch whose COMMIT frame survived the tear replayed;
        # the tear is confined to the last ~64 bytes, so at worst the
        # final committed batch is lost.
        batches = metadata["generation"]
        assert batches in (CRASH_AFTER - 1, CRASH_AFTER)
        assert metadata["count"] == batches * BATCH
        store = FilePageStore(pages, metadata["page_size"])
        recovered = RTree.from_storage(PagedFile(store), metadata)
        validate(recovered)
        baseline = baseline_tree(points, batches=batches)
        request = CPQRequest(k=5, algorithm="heap")
        assert pairs_signature(
            k_closest_pairs(recovered, query_side, request=request)
        ) == pairs_signature(
            k_closest_pairs(baseline, query_side, request=request)
        )
        store.close()

    def test_clean_shutdown_keep_wal_replays_everything(self, tmp_path):
        points = make_points(120, seed=5)
        csv = str(tmp_path / "points.csv")
        write_csv(csv, points)
        pages = str(tmp_path / "clean.pages")
        run_cli("ingest", csv, "--tree", pages, "--batch-size", "30",
                "--keep-wal")
        # Replay the retained WAL onto a *cold* copy of nothing: the
        # log alone reconstructs the whole committed tree.
        tree, result = recover_tree(str(tmp_path / "fresh.pages"),
                                    pages + ".wal")
        assert result.batches_applied == 4
        assert tree is not None and len(tree) == 120
        assert sorted(
            (e.point, e.oid) for e in tree.iter_leaf_entries()
        ) == sorted(
            (tuple(p), oid) for oid, p in enumerate(points)
        )
        tree.file.store.close()
