"""The disk-based R-tree / R*-tree.

:class:`RTree` glues the pieces together: a :class:`PagedFile` for
storage and I/O accounting, the :class:`NodeSerializer` for the byte
layout, a decoded-node cache, and the insertion machinery (ChooseSubtree,
forced reinsertion and node splits).

The ``variant`` config selects behaviour:

* ``"rstar"`` (default, used by all paper experiments): R* ChooseSubtree
  with minimum overlap enlargement at the leaf level, the R* margin
  split, and forced reinsertion of 30 % of the entries on the first
  overflow per level per insertion (Beckmann et al. 1990).
* ``"guttman"``: classic Guttman insertion with the quadratic split.
* ``"linear"``: Guttman insertion with the linear-cost split.

Reading a node through :meth:`read_node` routes the page fetch through
the LRU buffer, which is how queries accumulate the disk-access counts
reported by every figure of the paper.

Every structural mutation flows through a single commit seam
(:meth:`RTree._commit_mutation`): ``insert`` and ``delete`` open an
implicit one-operation batch, :meth:`RTree.batch` groups many
operations (and their R* forced reinsertions) into one, and in both
cases the generation number advances exactly once per committed batch.
Calling :meth:`RTree.enable_live_mutation` upgrades the tree to
copy-on-write: batches then relocate every page they touch to freshly
allocated pages, readers pin consistent :class:`Snapshot` generations
through :meth:`RTree.pin` / :meth:`RTree.view`, superseded pages are
reclaimed once unpinned, and an optional write-ahead log
(:class:`repro.storage.wal.WriteAheadLog`) makes each commit durable
before it is published.  See ``docs/STORAGE.md``.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import PageCorruptionError
from repro.geometry.mbr import MBR
from repro.rtree.entries import InternalEntry, LeafEntry
from repro.rtree.node import Entry, Node
from repro.rtree.splits import linear_split, quadratic_split, rstar_split
from repro.storage.page import PageLayout
from repro.storage.paged_file import PagedFile
from repro.storage.serializer import NodeSerializer
from repro.storage.snapshot import Snapshot, SnapshotManager, SnapshotView

VARIANTS = ("rstar", "guttman", "linear")

_SPLITS = {
    "rstar": rstar_split,
    "guttman": quadratic_split,
    "linear": linear_split,
}


@dataclass(frozen=True)
class RTreeConfig:
    """Static configuration of one tree."""

    layout: PageLayout = field(default_factory=PageLayout)
    variant: str = "rstar"
    #: Fraction of M force-reinserted on overflow (R* recommends 30 %).
    reinsert_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if not 0.0 < self.reinsert_fraction < 1.0:
            raise ValueError("reinsert_fraction must be in (0, 1)")


class RTree:
    """A dynamic R-tree over paged storage.

    Parameters
    ----------
    config:
        Structural configuration (page layout, split variant).
    file:
        The paged file to store nodes in; a fresh in-memory file with a
        zero-capacity buffer is created when omitted.
    """

    def __init__(
        self,
        config: Optional[RTreeConfig] = None,
        file: Optional[PagedFile] = None,
    ):
        self.config = config if config is not None else RTreeConfig()
        layout = self.config.layout
        self.file = (
            file if file is not None else PagedFile(page_size=layout.page_size)
        )
        if self.file.page_size != layout.page_size:
            raise ValueError(
                f"paged file uses {self.file.page_size}-byte pages but the "
                f"layout expects {layout.page_size}"
            )
        self.serializer = NodeSerializer(layout)
        self.root_id: Optional[int] = None
        self.height = 0  # number of levels; 0 means empty
        self._count = 0
        #: Bumped once per committed mutation batch by the commit seam
        #: (:meth:`_commit_mutation`); cached query results keyed on it
        #: (see repro.service.cache) become unreachable the moment the
        #: indexed set changes.
        self.generation = 0
        self._nodes: dict[int, Node] = {}
        self._reinserted_levels: Set[int] = set()
        # Live-mutation state (None/inactive until enable_live_mutation).
        self._snapshots: Optional[SnapshotManager] = None
        self._wal = None
        #: Serialises mutation batches against WAL checkpointing: held
        #: from batch open to commit/rollback, and by
        #: :meth:`checkpoint_wal`, so the log is never truncated with a
        #: half-appended batch inside it.
        self._batch_lock = threading.RLock()
        self._batch_depth = 0
        self._batch_ops = 0
        self._batch_failed = False
        #: Pages allocated (and still live) in the open batch; under
        #: copy-on-write these are the only pages the batch may write.
        self._batch_pages: Set[int] = set()
        #: Committed pages superseded by the open batch; freed lazily
        #: once no pinned snapshot can reach them.
        self._batch_freed: List[int] = []
        self._pre_batch: Tuple[Optional[int], int, int] = (None, 0, 0)

    # -- basic properties ------------------------------------------------

    @property
    def max_entries(self) -> int:
        return self.config.layout.max_entries

    @property
    def min_entries(self) -> int:
        return self.config.layout.min_entries

    @property
    def dimension(self) -> int:
        return self.config.layout.dimension

    def __len__(self) -> int:
        """Number of indexed points."""
        return self._count

    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def stats(self):
        """The I/O counters of the underlying paged file."""
        return self.file.stats

    # -- node I/O ------------------------------------------------------------

    def read_node(self, page_id: int) -> Node:
        """Fetch a node, going through the LRU buffer for I/O accounting.

        Pages are deserialised at most once; the decoded-node cache does
        not affect the disk-access counts (those are decided solely by
        the buffer), it only avoids redundant byte decoding.

        A page that fails its checksum is dropped from the buffer and
        re-read once from the backing store: corruption picked up in
        flight (a flipped bit on the wire) heals, while at-rest damage
        fails the second decode too and propagates as
        :class:`repro.errors.PageCorruptionError` -- never a silently
        wrong node.  Detections count in ``stats.corrupt_reads``.
        """
        data = self.file.read_page(page_id)
        node = self._nodes.get(page_id)
        if node is None:
            try:
                level, tuples, lo, hi = (
                    self.serializer.deserialize_arrays(data)
                )
            except PageCorruptionError:
                self.stats.corrupt_reads += 1
                self.file.buffer.invalidate(page_id)
                data = self.file.read_page(page_id)
                level, tuples, lo, hi = (
                    self.serializer.deserialize_arrays(data)
                )
            node = Node.from_arrays(page_id, level, tuples, lo, hi)
            self._nodes[page_id] = node
        return node

    def read_root(self) -> Optional[Node]:
        if self.root_id is None:
            return None
        return self.read_node(self.root_id)

    def _serialize_node(self, node: Node) -> bytes:
        if node.is_leaf:
            return self.serializer.serialize_leaf(node.to_tuples())
        return self.serializer.serialize_internal(
            node.level, node.to_tuples()
        )

    def _write_node(self, node: Node) -> None:
        self.file.write_page(node.page_id, self._serialize_node(node))
        self._nodes[node.page_id] = node

    def _new_node(self, level: int) -> Node:
        page_id = self.file.allocate()
        if self.live:
            self._batch_pages.add(page_id)
        node = Node(page_id, level)
        self._nodes[page_id] = node
        return node

    def _free_node(self, node: Node) -> None:
        if self.live and node.page_id not in self._batch_pages:
            # A committed page: pinned snapshots may still reach it, so
            # defer the free until the snapshot manager drains it.
            self._batch_freed.append(node.page_id)
            return
        self._batch_pages.discard(node.page_id)
        self.file.free_page(node.page_id)
        self._nodes.pop(node.page_id, None)

    # -- live mutation: snapshots, batches and the commit seam ----------------

    @property
    def live(self) -> bool:
        """Whether copy-on-write live mutation is enabled."""
        return self._snapshots is not None

    @property
    def snapshots(self) -> Optional[SnapshotManager]:
        """The snapshot manager, or None before ``enable_live_mutation``."""
        return self._snapshots

    @property
    def wal(self):
        """The attached write-ahead log, or None."""
        return self._wal

    def enable_live_mutation(self, wal=None) -> SnapshotManager:
        """Switch the tree to copy-on-write mutation with snapshots.

        From this point every mutation batch relocates the pages it
        touches to fresh allocations and publishes its result as a new
        :class:`Snapshot` generation; committed pages stay immutable
        until no pin can reach them.  When ``wal`` (a
        :class:`repro.storage.wal.WriteAheadLog`) is given, each batch
        appends its final page images and a COMMIT record -- synced
        per the log's ``sync_mode`` -- *before* the snapshot is
        published, so a crash can always be replayed to the last
        committed generation.
        """
        if self._batch_depth:
            raise RuntimeError(
                "cannot enable live mutation inside an open batch"
            )
        self._snapshots = SnapshotManager(
            self._reclaim_page,
            Snapshot(self.generation, self.root_id, self.height,
                     self._count),
        )
        self._wal = wal
        return self._snapshots

    def _reclaim_page(self, page_id: int) -> None:
        """Really free a superseded page (snapshot-manager callback)."""
        self.file.free_page(page_id)
        self._nodes.pop(page_id, None)

    def committed(self) -> Snapshot:
        """The last committed snapshot (without pinning it)."""
        if self._snapshots is not None:
            return self._snapshots.current()
        return Snapshot(self.generation, self.root_id, self.height,
                        self._count)

    def pin(self) -> Snapshot:
        """Pin the committed snapshot for reading (see :meth:`view`).

        On a non-live tree this degrades to an unpinned
        :meth:`committed` peek, so callers can pin/release uniformly.
        """
        if self._snapshots is not None:
            return self._snapshots.pin()
        return self.committed()

    def release(self, snapshot: Snapshot) -> None:
        """Release a pin taken with :meth:`pin` (no-op when non-live)."""
        if self._snapshots is not None:
            self._snapshots.release(snapshot)

    def view(self, snapshot: Optional[Snapshot] = None) -> SnapshotView:
        """A read view of the tree frozen at ``snapshot``.

        The view exposes the full read-side surface the query
        algorithms use; pair it with :meth:`pin`/:meth:`release` to
        keep the snapshot's pages alive for the view's lifetime.
        """
        if snapshot is None:
            snapshot = self.committed()
        return SnapshotView(self, snapshot)

    def batch(self):
        """Context manager grouping mutations into one commit.

        All inserts/deletes inside the ``with`` block share one R*
        forced-reinsertion budget and commit as a single generation
        bump (one WAL batch, one snapshot publication).  On an
        exception the batch rolls back: a live tree restores the
        previous committed state exactly (its pages were never
        touched); a non-live tree cannot un-write pages and only bumps
        the generation so stale caches drop.
        """
        return self._mutation()

    @contextmanager
    def _mutation(self):
        self._begin_batch()
        try:
            yield self
        except BaseException:
            self._abort_batch()
            raise
        else:
            self._commit_batch()

    def _begin_batch(self) -> None:
        # Reentrant: nested batches re-acquire; the checkpointer thread
        # blocks here until the outermost commit/rollback releases.
        self._batch_lock.acquire()
        self._batch_depth += 1
        if self._batch_depth > 1:
            return
        self._batch_ops = 0
        self._batch_failed = False
        self._batch_pages = set()
        self._batch_freed = []
        self._reinserted_levels = set()
        self._pre_batch = (self.root_id, self.height, self._count)
        if self.live and self._wal is not None:
            self._wal.begin(self.generation)

    def _commit_batch(self) -> None:
        try:
            self._batch_depth -= 1
            if self._batch_depth:
                return
            if self._batch_failed:
                self._rollback_batch()
                raise RuntimeError(
                    "mutation batch poisoned by an earlier error; rolled back"
                )
            self._commit_mutation()
        finally:
            self._batch_lock.release()

    def _abort_batch(self) -> None:
        try:
            self._batch_depth -= 1
            if self._batch_depth:
                # An enclosing batch is still open; it cannot commit a
                # half-applied operation, so poison it.
                self._batch_failed = True
                return
            self._rollback_batch()
        finally:
            self._batch_lock.release()

    def _commit_mutation(self) -> None:
        """The single mutation seam: every committed batch ends here.

        Bumps the generation exactly once, appends the batch's final
        page images to the WAL (when attached) and publishes the new
        snapshot -- in that order, so durability always precedes
        visibility.  No-op batches (zero operations) commit nothing
        and do not advance the generation.
        """
        if not self._batch_ops:
            self._batch_pages = set()
            self._batch_freed = []
            return
        self._batch_ops = 0
        self.generation += 1
        if not self.live:
            return
        if self._wal is not None:
            for page_id in sorted(self._batch_pages):
                node = self._nodes.get(page_id)
                if node is not None:
                    image = self._serialize_node(node)
                else:
                    image = self.file.read_page(page_id)
                self._wal.log_write(page_id, image)
            for page_id in self._batch_freed:
                self._wal.log_free(page_id)
            self._wal.commit(
                self.generation, self.root_id, self.height, self._count
            )
        self._snapshots.publish(
            Snapshot(self.generation, self.root_id, self.height,
                     self._count),
            self._batch_freed,
        )
        self._batch_pages = set()
        self._batch_freed = []

    def checkpoint_wal(self, meta_path: Optional[str] = None) -> bool:
        """Truncate the attached WAL once its contents are redundant.

        Makes the log's work durable *elsewhere first* -- fsync the
        page store (:meth:`~repro.storage.store.FilePageStore.flush`),
        then rewrite the ``.meta.json`` sidecar at the committed
        snapshot through an fsynced temp file -- and only then empties
        the log, so a crash (power loss included) at any point
        recovers: before the truncate the WAL replays as usual; after
        it, the sidecar already describes the synced pages and there
        is nothing to replay.  Holds the batch lock, so a checkpoint
        never interleaves with a half-appended batch (the background
        :class:`~repro.storage.wal.WALCheckpointer` calls this from
        its own thread).

        Returns False when no WAL is attached.  Idempotent: an empty
        log checkpoints to an empty log.
        """
        if self._wal is None:
            return False
        with self._batch_lock:
            store = getattr(self.file, "store", None)
            if store is not None and hasattr(store, "flush"):
                store.flush()
            if meta_path is not None:
                import json

                snapshot = self.committed()
                metadata = dict(self.metadata())
                metadata.update(
                    root_id=snapshot.root_id,
                    height=snapshot.height,
                    count=snapshot.count,
                    generation=snapshot.generation,
                )
                tmp = meta_path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(metadata, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, meta_path)
            self._wal.checkpoint()
        return True

    def _rollback_batch(self) -> None:
        """Undo an aborted batch as far as the storage mode allows."""
        if self.live:
            self.root_id, self.height, self._count = self._pre_batch
            for page_id in self._batch_pages:
                self._nodes.pop(page_id, None)
                self.file.free_page(page_id)
        else:
            # Pages are mutated in place: the structure cannot be
            # restored, but bumping the generation at least drops any
            # cached results derived from it.
            self.generation += 1
        self._batch_ops = 0
        self._batch_failed = False
        self._batch_pages = set()
        self._batch_freed = []

    def _shadow(self, node: Node, parent: Optional[Node] = None,
                index: Optional[int] = None) -> Node:
        """Copy-on-write relocation of one committed page.

        Under live mutation a batch may only write pages it allocated
        itself; a committed node is cloned onto a fresh page first (the
        original stays byte-identical for pinned readers).  The parent
        pointer (or the root pointer) is repointed and persisted
        immediately, so later MBR-unchanged early returns in
        :meth:`_adjust_path` cannot leave a stale child id behind.
        """
        if not self.live or node.page_id in self._batch_pages:
            return node
        old_id = node.page_id
        new_id = self.file.allocate()
        self._batch_pages.add(new_id)
        clone = Node(new_id, node.level, list(node.entries))
        self._nodes[new_id] = clone
        self._batch_freed.append(old_id)
        self._write_node(clone)
        if parent is None:
            self.root_id = new_id
        else:
            entry = parent.entries[index]
            parent.entries[index] = InternalEntry(entry.mbr, new_id)
            self._write_node(parent)
        return clone

    # -- insertion -------------------------------------------------------------

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one point with its object id.

        Outside an explicit :meth:`batch` this is an implicit
        one-operation batch: the generation bumps once and, under live
        mutation, the commit publishes a snapshot (and WAL batch) of
        its own.
        """
        if len(point) != self.dimension:
            raise ValueError(
                f"point of dimension {len(point)}; tree expects "
                f"{self.dimension}"
            )
        with self._mutation():
            entry = LeafEntry(tuple(point), oid)
            self._count += 1
            self._batch_ops += 1
            if self.root_id is None:
                root = self._new_node(0)
                root.add(entry)
                self._write_node(root)
                self.root_id = root.page_id
                self.height = 1
            else:
                self._insert_entry(entry, 0)

    def insert_many(self, points, oids=None) -> None:
        """Insert a batch of points (object ids default to 0..n-1)."""
        for i, point in enumerate(points):
            self.insert(point, oids[i] if oids is not None else i)

    def _insert_entry(self, entry: Entry, level: int) -> None:
        """Insert ``entry`` into a node at ``level`` (0 = leaf level).

        Under live mutation every node along the chosen path is
        shadowed (:meth:`_shadow`) before it can be written to.
        """
        path: List[Tuple[Node, int]] = []
        node = self._shadow(self.read_node(self.root_id))
        while node.level > level:
            index = self._choose_subtree(node, entry.mbr)
            child = self._shadow(
                self.read_node(node.entries[index].child_id), node, index
            )
            path.append((node, index))
            node = child
        node.add(entry)
        self._propagate(node, path)

    def _choose_subtree(self, node: Node, mbr: MBR) -> int:
        """R* ChooseSubtree (or Guttman least-enlargement)."""
        lo = node.lo_array()
        hi = node.hi_array()
        new_lo = np.minimum(lo, mbr.lo)
        new_hi = np.maximum(hi, mbr.hi)
        areas = np.prod(hi - lo, axis=1)
        union_areas = np.prod(new_hi - new_lo, axis=1)
        enlargements = union_areas - areas
        if self.config.variant == "rstar" and node.level == 1:
            # Children are leaves: minimise overlap enlargement, then
            # area enlargement, then area.
            n = len(node.entries)
            overlap_after = np.empty(n)
            for i in range(n):
                grown_lo = lo.copy()
                grown_hi = hi.copy()
                grown_lo[i] = new_lo[i]
                grown_hi[i] = new_hi[i]
                overlap_after[i] = _overlap_with_others(
                    grown_lo, grown_hi, i
                )
            overlap_delta = overlap_after - _overlap_per_entry(lo, hi)
            order = np.lexsort((areas, enlargements, overlap_delta))
            return int(order[0])
        order = np.lexsort((areas, enlargements))
        return int(order[0])

    def _propagate(self, node: Node, path: List[Tuple[Node, int]]) -> None:
        """Resolve overflow (reinsert or split) and push MBR updates up."""
        while True:
            if len(node.entries) <= self.max_entries:
                self._write_node(node)
                self._adjust_path(path, node)
                return
            is_root = node.page_id == self.root_id
            if (
                self.config.variant == "rstar"
                and not is_root
                and node.level not in self._reinserted_levels
            ):
                self._reinserted_levels.add(node.level)
                self._forced_reinsert(node, path)
                return
            node, path = self._split(node, path)

    def _split(
        self, node: Node, path: List[Tuple[Node, int]]
    ) -> Tuple[Node, List[Tuple[Node, int]]]:
        split = _SPLITS[self.config.variant]
        group_a, group_b = split(node.entries, self.min_entries)
        node.replace_entries(group_a)
        sibling = self._new_node(node.level)
        sibling.replace_entries(group_b)
        self._write_node(node)
        self._write_node(sibling)
        if not path:
            root = self._new_node(node.level + 1)
            root.add(InternalEntry(node.mbr(), node.page_id))
            root.add(InternalEntry(sibling.mbr(), sibling.page_id))
            self._write_node(root)
            self.root_id = root.page_id
            self.height += 1
            return root, []
        parent, index = path.pop()
        parent.entries[index] = InternalEntry(node.mbr(), node.page_id)
        parent.invalidate_caches()
        parent.add(InternalEntry(sibling.mbr(), sibling.page_id))
        return parent, path

    def _forced_reinsert(
        self, node: Node, path: List[Tuple[Node, int]]
    ) -> None:
        """R* forced reinsertion: evict the p entries farthest from the
        node centre and re-insert them (closest first)."""
        center = node.mbr().center
        p = max(1, round(self.config.reinsert_fraction * self.max_entries))

        def distance(entry: Entry) -> float:
            c = entry.mbr.center
            return math.dist(c, center)

        ordered = sorted(node.entries, key=distance, reverse=True)
        evicted = ordered[:p]
        node.replace_entries(ordered[p:])
        self._write_node(node)
        self._adjust_path(path, node)
        for entry in reversed(evicted):  # close reinsert
            self._insert_entry(entry, node.level)

    def _adjust_path(
        self, path: List[Tuple[Node, int]], child: Node
    ) -> None:
        """Refresh ancestor entry MBRs after ``child`` changed."""
        for parent, index in reversed(path):
            entry = parent.entries[index]
            new_mbr = child.mbr()
            if entry.mbr == new_mbr:
                return
            parent.entries[index] = InternalEntry(new_mbr, entry.child_id)
            parent.invalidate_caches()
            self._write_node(parent)
            child = parent

    # -- deletion --------------------------------------------------------------

    def delete(self, point: Sequence[float], oid: Optional[int] = None) -> bool:
        """Remove one matching point; returns whether a match was found.

        When ``oid`` is None any entry at the point's location matches.
        Underfull nodes along the path are dissolved and their entries
        re-inserted (Guttman's CondenseTree).
        """
        if self.root_id is None:
            return False
        with self._mutation():
            target = tuple(float(v) for v in point)
            found = self._find_leaf(
                self.read_node(self.root_id), target, oid, []
            )
            if found is None:
                removed = False
            else:
                leaf, index, path = found
                leaf, path = self._shadow_found_path(leaf, path)
                leaf.remove_at(index)
                self._count -= 1
                self._batch_ops += 1
                self._condense(leaf, path)
                self._shrink_root()
                removed = True
        return removed

    def _shadow_found_path(
        self, leaf: Node, path: List[Tuple[Node, int]]
    ) -> Tuple[Node, List[Tuple[Node, int]]]:
        """Shadow a root-to-leaf path located by :meth:`_find_leaf`.

        The search reads committed nodes; before the delete may write
        any of them, the whole path is relocated top-down so each
        shadowed parent points at its shadowed child.
        """
        if not self.live:
            return leaf, path
        shadowed: List[Tuple[Node, int]] = []
        parent: Optional[Node] = None
        index: Optional[int] = None
        for node, i in path:
            node = self._shadow(node, parent, index)
            shadowed.append((node, i))
            parent, index = node, i
        leaf = self._shadow(leaf, parent, index)
        return leaf, shadowed

    def _find_leaf(self, node, point, oid, path):
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.point == point and (oid is None or entry.oid == oid):
                    return node, i, list(path)
            return None
        for i, entry in enumerate(node.entries):
            if entry.mbr.contains_point(point):
                child = self.read_node(entry.child_id)
                path.append((node, i))
                found = self._find_leaf(child, point, oid, path)
                if found is not None:
                    return found
                path.pop()
        return None

    def _condense(self, node: Node, path: List[Tuple[Node, int]]) -> None:
        orphans: List[Tuple[Entry, int]] = []
        while path:
            parent, index = path[-1]
            if len(node.entries) < self.min_entries:
                for entry in node.entries:
                    orphans.append((entry, node.level))
                parent.remove_at(index)
                self._free_node(node)
            else:
                self._write_node(node)
                self._adjust_path(path, node)
            node = path.pop()[0]
        # node is now the root
        self._write_node(node)
        for entry, level in orphans:
            self._reinserted_levels = set()
            self._insert_entry(entry, level)

    def _shrink_root(self) -> None:
        while self.root_id is not None:
            root = self.read_node(self.root_id)
            if root.is_leaf:
                if not root.entries:
                    self._free_node(root)
                    self.root_id = None
                    self.height = 0
                return
            if len(root.entries) == 1:
                child_id = root.entries[0].child_id
                self._free_node(root)
                self.root_id = child_id
                self.height -= 1
            else:
                return

    # -- persistence ------------------------------------------------------------

    def metadata(self) -> dict:
        """The out-of-page state needed to reopen this tree later.

        Pages carry all node data; this dict carries the root pointer
        and counters.  Store it next to a :class:`FilePageStore` file
        (e.g. as JSON) and pass it to :meth:`from_storage`.
        """
        return {
            "root_id": self.root_id,
            "height": self.height,
            "count": self._count,
            "generation": self.generation,
            "variant": self.config.variant,
            "page_size": self.config.layout.page_size,
            "dimension": self.config.layout.dimension,
        }

    @classmethod
    def from_storage(cls, file: PagedFile, metadata: dict) -> "RTree":
        """Reopen a tree over existing pages (see :meth:`metadata`)."""
        config = RTreeConfig(
            layout=PageLayout(
                page_size=int(metadata["page_size"]),
                dimension=int(metadata["dimension"]),
            ),
            variant=metadata.get("variant", "rstar"),
        )
        tree = cls(config, file)
        tree.root_id = metadata["root_id"]
        tree.height = int(metadata["height"])
        tree._count = int(metadata["count"])
        tree.generation = int(metadata.get("generation", 0))
        return tree

    # -- iteration ----------------------------------------------------------------

    def iter_leaf_entries(self) -> Iterator[LeafEntry]:
        """Yield every indexed (point, oid) entry."""
        if self.root_id is None:
            return
        stack = [self.root_id]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(e.child_id for e in node.entries)

    def iter_nodes(self) -> Iterator[Node]:
        """Yield every node (root first, depth-first)."""
        if self.root_id is None:
            return
        stack = [self.root_id]
        while stack:
            node = self.read_node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(e.child_id for e in node.entries)

    def __repr__(self) -> str:
        return (
            f"RTree(variant={self.config.variant!r}, points={self._count}, "
            f"height={self.height}, nodes={self.node_count()})"
        )


def _overlap_per_entry(lo, hi) -> np.ndarray:
    sides = np.minimum(hi[:, None, :], hi[None, :, :]) - np.maximum(
        lo[:, None, :], lo[None, :, :]
    )
    np.maximum(sides, 0.0, out=sides)
    areas = np.prod(sides, axis=2)
    np.fill_diagonal(areas, 0.0)
    return areas.sum(axis=1)


def _overlap_with_others(lo, hi, index: int) -> float:
    sides = np.minimum(hi[index], hi) - np.maximum(lo[index], lo)
    np.maximum(sides, 0.0, out=sides)
    areas = np.prod(sides, axis=1)
    areas[index] = 0.0
    return float(areas.sum())
