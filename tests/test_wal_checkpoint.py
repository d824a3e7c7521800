"""WAL checkpointing: truncation, sidecar ordering, recovery interplay.

The checkpoint contract is "durable elsewhere first": fsync the page
store, atomically rewrite the ``.meta.json`` sidecar at the committed
snapshot, *then* empty the log.  These tests pin the consequences --
a checkpoint erases a torn tail along with everything else, recovery
after a checkpoint replays only the batches appended since, a double
checkpoint is a harmless no-op, and the background
:class:`~repro.storage.wal.WALCheckpointer` fires exactly when the
log crosses its size threshold.  Crash recovery *without* checkpoints
lives in ``tests/test_recovery.py``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree
from repro.storage.faults import tear_file_tail
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore
from repro.storage.wal import WALCheckpointer, WriteAheadLog, recover_tree

PAGE = 1024


def make_points(n, seed=0):
    import random

    rng = random.Random(seed)
    return [(round(rng.random(), 6), round(rng.random(), 6))
            for __ in range(n)]


@pytest.fixture()
def live_tree(tmp_path):
    """A file-backed live tree with an attached no-sync WAL."""
    pages = str(tmp_path / "live.pages")
    tree = bulk_load(make_points(120, seed=3),
                     file=PagedFile(FilePageStore(pages, PAGE)))
    wal = WriteAheadLog(pages + ".wal", sync_mode="none")
    tree.enable_live_mutation(wal)
    meta = pages + ".meta.json"
    with open(meta, "w") as handle:
        json.dump(tree.metadata(), handle)
    yield tree, wal, pages, meta
    try:
        wal.close()
    except (OSError, ValueError):
        pass
    tree.file.store.close()


def insert_batches(tree, batches, batch_size=16, seed=11):
    points = make_points(batches * batch_size, seed=seed)
    oid = len(tree)
    for b in range(batches):
        with tree.batch():
            for i, point in enumerate(points[b * batch_size:
                                             (b + 1) * batch_size]):
                tree.insert(point, oid + b * batch_size + i)
    return points


class TestCheckpoint:
    def test_checkpoint_truncates_and_counts(self, live_tree):
        tree, wal, pages, meta = live_tree
        insert_batches(tree, 3)
        assert wal.size() > 0
        assert tree.checkpoint_wal(meta) is True
        assert wal.size() == 0
        assert list(wal.replay()) == []
        assert wal.stats.checkpoints == 1
        # The sidecar was rewritten at the committed snapshot, so a
        # cold reopen sees every checkpointed batch without the log.
        with open(meta) as handle:
            metadata = json.load(handle)
        assert metadata["count"] == len(tree)
        assert metadata["generation"] == tree.committed().generation

    def test_checkpoint_after_torn_tail_truncates(self, live_tree):
        """A torn tail is erased with the rest of the log."""
        tree, wal, pages, meta = live_tree
        insert_batches(tree, 3)
        torn = tear_file_tail(wal.path, seed=7, max_bytes=64)
        assert torn > 0
        assert tree.checkpoint_wal(meta) is True
        assert os.path.getsize(wal.path) == 0
        # The log is clean again: the next batch appends from offset
        # zero and replays alone, no torn bytes in front of it.
        insert_batches(tree, 1, seed=29)
        records = list(wal.replay())
        assert records, "post-checkpoint batch must be in the log"
        tree.file.store.close()
        wal.close()
        recovered, result = recover_tree(pages, wal.path)
        assert result.batches_applied == 1
        assert len(recovered) == len(tree)
        recovered.file.store.close()

    def test_recovery_replays_only_post_checkpoint_batches(
            self, live_tree):
        tree, wal, pages, meta = live_tree
        insert_batches(tree, 2, seed=11)
        assert tree.checkpoint_wal(meta) is True
        insert_batches(tree, 3, seed=13)
        expected = sorted(
            (e.point, e.oid) for e in tree.iter_leaf_entries()
        )
        total = len(tree)
        tree.file.store.close()
        wal.close()
        # Crash here: the checkpoint flushed batches 1-2 into the page
        # file, so replay applies exactly the three batches appended
        # since -- not the whole history.
        recovered, result = recover_tree(pages, wal.path)
        assert result.batches_applied == 3
        assert len(recovered) == total
        assert sorted(
            (e.point, e.oid) for e in recovered.iter_leaf_entries()
        ) == expected
        recovered.file.store.close()

    def test_double_checkpoint_is_idempotent(self, live_tree):
        tree, wal, pages, meta = live_tree
        insert_batches(tree, 2)
        assert tree.checkpoint_wal(meta) is True
        with open(meta) as handle:
            first = json.load(handle)
        assert tree.checkpoint_wal(meta) is True
        with open(meta) as handle:
            second = json.load(handle)
        assert second == first
        assert wal.size() == 0
        assert wal.stats.checkpoints == 2

    def test_checkpoint_without_wal_is_a_noop(self, tmp_path):
        tree = bulk_load(make_points(40),
                         file=PagedFile(FilePageStore(
                             str(tmp_path / "t.pages"), PAGE)))
        assert tree.checkpoint_wal() is False
        tree.file.store.close()


class TestDurability:
    def test_fsync_mode_syncs_pages_and_sidecar_before_truncate(
            self, tmp_path, monkeypatch):
        """In ``sync_mode="fsync"`` the checkpoint may empty the log
        only after the page file and the new sidecar are on disk:
        otherwise a power loss right after it loses committed
        batches."""
        pages = str(tmp_path / "live.pages")
        meta = pages + ".meta.json"
        tree = bulk_load(make_points(120, seed=3),
                         file=PagedFile(FilePageStore(pages, PAGE)))
        wal = WriteAheadLog(pages + ".wal", sync_mode="fsync")
        tree.enable_live_mutation(wal)
        try:
            insert_batches(tree, 2)
            events = []
            real_fsync, real_checkpoint = os.fsync, wal.checkpoint

            def recording_fsync(fd):
                st = os.fstat(fd)
                events.append(("fsync", (st.st_dev, st.st_ino)))
                real_fsync(fd)

            def recording_checkpoint():
                events.append(("truncate", None))
                real_checkpoint()

            monkeypatch.setattr(os, "fsync", recording_fsync)
            monkeypatch.setattr(wal, "checkpoint", recording_checkpoint)
            assert tree.checkpoint_wal(meta) is True
        finally:
            wal.close()
            tree.file.store.close()

        def file_id(path):
            st = os.stat(path)
            return (st.st_dev, st.st_ino)

        truncate = events.index(("truncate", None))
        synced = {key for kind, key in events[:truncate] if kind == "fsync"}
        assert file_id(pages) in synced
        # The sidecar's temp file was synced before it replaced the
        # old sidecar, so the renamed file is the synced inode.
        assert file_id(meta) in synced


class TestWALCheckpointer:
    def test_threshold_gates_maybe_checkpoint(self, live_tree):
        tree, wal, pages, meta = live_tree
        checkpointer = WALCheckpointer(
            wal, lambda: tree.checkpoint_wal(meta),
            threshold_bytes=1 << 30,
        )
        insert_batches(tree, 2)
        assert checkpointer.maybe_checkpoint() is False
        assert wal.stats.checkpoints == 0
        checkpointer.threshold_bytes = 1
        assert checkpointer.maybe_checkpoint() is True
        assert checkpointer.checkpoints_triggered == 1
        assert wal.size() == 0

    def test_background_thread_fires_past_threshold(self, live_tree):
        tree, wal, pages, meta = live_tree
        with WALCheckpointer(wal, lambda: tree.checkpoint_wal(meta),
                             threshold_bytes=PAGE,
                             interval_s=0.01) as checkpointer:
            insert_batches(tree, 4)
            deadline = time.monotonic() + 5.0
            while (checkpointer.checkpoints_triggered == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        assert checkpointer.checkpoints_triggered >= 1
        assert wal.stats.checkpoints >= 1

    def test_rejects_nonpositive_threshold(self, live_tree):
        tree, wal, pages, meta = live_tree
        with pytest.raises(ValueError, match="threshold_bytes"):
            WALCheckpointer(wal, lambda: None, threshold_bytes=0)
