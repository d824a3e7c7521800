"""The persisted dataset catalog and the single tree-reopen path.

A :class:`Catalog` is a JSON sidecar (``catalog.json``) naming the
datasets of one directory and, per dataset, one or more **built
indexes**: the index kind (``str`` / ``grid`` / ``dynamic``, see
:data:`repro.analysis.cost_model.INDEX_KINDS`), the page-file path,
the committed snapshot generation it was registered at, and build
statistics.  Everything that used to plumb raw ``.pages`` paths and
hand-rolled :class:`~repro.net.shard.TreeSpec` tuples -- the CLI, the
query service, the network shards -- resolves catalog names instead::

    catalog = Catalog("data/catalog.json")
    catalog.register_dataset("parks", points, kind="auto")
    tree = catalog.open_dataset("parks")          # planner-chosen index
    spec = catalog.tree_spec("parks")             # shard-reopenable

:func:`open_tree` is the one function that turns (path, metadata,
flags) into a live :class:`~repro.rtree.tree.RTree`;
:meth:`~repro.net.shard.TreeSpec.open` and the CLI's page loading both
delegate to it, so snapshot-generation handling cannot drift apart
again.

The schema is versioned (:data:`SCHEMA_VERSION`); a catalog written by
a future incompatible layout is refused, never guessed at.  Page-file
paths are stored relative to the catalog's directory so a dataset
directory can be moved or shipped wholesale.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.cost_model import INDEX_KINDS
from repro.errors import CatalogError, UnknownDatasetError
from repro.rtree.bulk import bulk_load
from repro.rtree.grid import grid_load
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.page import PageLayout
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore

#: Catalog file schema version; bump on any incompatible layout change.
SCHEMA_VERSION = 1

#: Default catalog file name inside a dataset directory.
CATALOG_FILENAME = "catalog.json"


def open_tree(
    path: str,
    *,
    metadata: Optional[Dict[str, Any]] = None,
    page_size: Optional[int] = None,
    readonly: bool = True,
    buffer_capacity: int = 0,
    read_latency: float = 0.0,
) -> RTree:
    """Reopen one persistent tree: the single source of truth.

    Every reopen in the system -- catalog lookups, shard workers
    (:meth:`repro.net.shard.TreeSpec.open`), the CLI's ``.pages``
    arguments -- goes through here, so the snapshot-generation
    handling cannot diverge between layers.

    ``metadata`` is the :meth:`~repro.rtree.tree.RTree.metadata` dict;
    when omitted it is loaded from the ``<path>.meta.json`` sidecar
    ``repro-cpq build``/``ingest`` maintain.  ``page_size`` overrides
    the metadata's (they must agree with the file's framing).
    """
    if metadata is None:
        sidecar = meta_path(path)
        try:
            with open(sidecar, encoding="utf-8") as handle:
                metadata = json.load(handle)
        except FileNotFoundError:
            raise CatalogError(
                f"no metadata sidecar at {sidecar}; pass metadata= or "
                f"rebuild the tree"
            ) from None
        except json.JSONDecodeError as exc:
            raise CatalogError(
                f"unreadable metadata sidecar {sidecar}: {exc}"
            ) from exc
    metadata = dict(metadata)
    if page_size is None:
        page_size = int(metadata["page_size"])
    store = FilePageStore(path, page_size, readonly=readonly)
    file = PagedFile(
        store,
        buffer_capacity=buffer_capacity,
        page_size=page_size,
        read_latency=read_latency,
    )
    config = RTreeConfig(
        layout=PageLayout(
            page_size=page_size,
            dimension=int(metadata.get("dimension", 2)),
        ),
        variant=metadata.get("variant", "rstar"),
    )
    tree = RTree(config, file)
    tree.root_id = metadata["root_id"]
    tree.height = int(metadata["height"])
    tree._count = int(metadata["count"])
    tree.generation = int(metadata.get("generation", 0))
    return tree


def meta_path(pages_path: str) -> str:
    """The ``.meta.json`` sidecar path of one page file."""
    return pages_path + ".meta.json"


@dataclass(frozen=True)
class IndexEntry:
    """One built index of one dataset.

    ``path`` is absolute once loaded (the catalog file stores it
    relative to its own directory); ``metadata`` is the committed
    snapshot the index was registered at -- reopening through it is
    what makes shard workers and the service agree on a generation.
    """

    kind: str
    path: str
    page_size: int
    metadata: Dict[str, Any]
    #: Build statistics: ``build_s`` (wall seconds), ``nodes``,
    #: ``height`` and -- for planner-chosen indexes -- the decision's
    #: evidence dict.
    build: Dict[str, Any] = field(default_factory=dict)

    @property
    def generation(self) -> int:
        """The committed generation this index reopens at."""
        return int(self.metadata.get("generation", 0))

    def open(
        self,
        *,
        buffer_capacity: int = 0,
        read_latency: float = 0.0,
        readonly: bool = True,
    ) -> RTree:
        """Open this index through :func:`open_tree`."""
        return open_tree(
            self.path,
            metadata=self.metadata,
            page_size=self.page_size,
            readonly=readonly,
            buffer_capacity=buffer_capacity,
            read_latency=read_latency,
        )

    def tree_spec(
        self,
        buffer_capacity: int = 64,
        read_latency: float = 0.0,
    ):
        """This index as a shard-reopenable
        :class:`~repro.net.shard.TreeSpec`."""
        # Imported lazily: repro.net imports the service layer, which
        # must stay importable without the network tier.
        from repro.net.shard import TreeSpec

        return TreeSpec(
            path=self.path,
            page_size=self.page_size,
            metadata=dict(self.metadata),
            buffer_capacity=buffer_capacity,
            read_latency=read_latency,
        )

    def to_json(self, base_dir: str) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "path": os.path.relpath(self.path, base_dir),
            "page_size": self.page_size,
            "metadata": dict(self.metadata),
            "build": dict(self.build),
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any], base_dir: str) -> "IndexEntry":
        try:
            return cls(
                kind=obj["kind"],
                path=os.path.normpath(
                    os.path.join(base_dir, obj["path"])
                ),
                page_size=int(obj["page_size"]),
                metadata=dict(obj["metadata"]),
                build=dict(obj.get("build", {})),
            )
        except KeyError as exc:
            raise CatalogError(
                f"index entry misses required field {exc}"
            ) from exc


@dataclass
class DatasetEntry:
    """One named dataset and its built indexes, keyed by kind."""

    name: str
    dimension: int
    count: int
    indexes: Dict[str, IndexEntry] = field(default_factory=dict)
    #: The kind :meth:`index` resolves when none is asked for --
    #: the planner's recommendation for ``kind="auto"`` registrations.
    default_kind: Optional[str] = None
    #: Free-form provenance (source file, generator, notes).
    source: Optional[str] = None

    def index(self, kind: Optional[str] = None) -> IndexEntry:
        """The entry for ``kind`` (default: the dataset's default)."""
        if kind is None:
            kind = self.default_kind
        if kind is None and len(self.indexes) == 1:
            kind = next(iter(self.indexes))
        if kind is None or kind not in self.indexes:
            raise UnknownDatasetError(
                f"{self.name}[{kind or '?'}]",
                tuple(f"{self.name}[{k}]" for k in sorted(self.indexes)),
            )
        return self.indexes[kind]

    def kinds(self) -> List[str]:
        return sorted(self.indexes)

    def to_json(self, base_dir: str) -> Dict[str, Any]:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "count": self.count,
            "default_kind": self.default_kind,
            "source": self.source,
            "indexes": {
                kind: entry.to_json(base_dir)
                for kind, entry in sorted(self.indexes.items())
            },
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any],
                  base_dir: str) -> "DatasetEntry":
        try:
            return cls(
                name=obj["name"],
                dimension=int(obj["dimension"]),
                count=int(obj["count"]),
                default_kind=obj.get("default_kind"),
                source=obj.get("source"),
                indexes={
                    kind: IndexEntry.from_json(entry, base_dir)
                    for kind, entry in obj.get("indexes", {}).items()
                },
            )
        except KeyError as exc:
            raise CatalogError(
                f"dataset entry misses required field {exc}"
            ) from exc


def _build_index(
    kind: str,
    points: Sequence[Sequence[float]],
    oids: Optional[Sequence[int]],
    pages_path: str,
    page_size: int,
    dimension: int,
) -> RTree:
    """Build one index of ``kind`` into ``pages_path``; returns the
    (still open, synced) tree."""
    store = FilePageStore(pages_path, page_size)
    file = PagedFile(store, page_size=page_size)
    config = RTreeConfig(
        layout=PageLayout(page_size=page_size, dimension=dimension)
    )
    if kind == "str":
        tree = bulk_load(points, oids, config=config, file=file)
    elif kind == "grid":
        tree = grid_load(points, oids, config=config, file=file)
    elif kind == "dynamic":
        tree = RTree(config, file)
        if oids is None:
            oids = range(len(points))
        for point, oid in zip(points, oids):
            tree.insert(tuple(float(v) for v in point), int(oid))
    else:
        raise CatalogError(
            f"unknown index kind {kind!r}; expected one of "
            f"{INDEX_KINDS} or 'auto'"
        )
    store.flush()
    return tree


class Catalog:
    """A directory's persisted map of dataset names to built indexes.

    Parameters
    ----------
    path:
        The catalog JSON file, or a directory (then
        ``<dir>/catalog.json``).  Loaded when it exists; a missing
        file starts an empty catalog whose first :meth:`save` creates
        it.  Page files built by :meth:`register_dataset` land next to
        the catalog file.
    """

    def __init__(self, path: str):
        if os.path.isdir(path):
            path = os.path.join(path, CATALOG_FILENAME)
        self.path = os.path.abspath(path)
        self.base_dir = os.path.dirname(self.path)
        self._datasets: Dict[str, DatasetEntry] = {}
        if os.path.exists(self.path):
            self._load()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as handle:
                obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CatalogError(
                f"unreadable catalog {self.path}: {exc}"
            ) from exc
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CatalogError(
                f"catalog {self.path} has schema version {version!r}; "
                f"this build speaks version {SCHEMA_VERSION}"
            )
        self._datasets = {
            name: DatasetEntry.from_json(entry, self.base_dir)
            for name, entry in obj.get("datasets", {}).items()
        }

    def save(self) -> None:
        """Atomically persist the catalog (write-temp + rename)."""
        os.makedirs(self.base_dir, exist_ok=True)
        obj = {
            "schema_version": SCHEMA_VERSION,
            "datasets": {
                name: entry.to_json(self.base_dir)
                for name, entry in sorted(self._datasets.items())
            },
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)

    # -- lookups -----------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    def dataset(self, name: str) -> DatasetEntry:
        try:
            return self._datasets[name]
        except KeyError:
            raise UnknownDatasetError(name, tuple(self.names())) from None

    def open_dataset(
        self,
        name: str,
        kind: Optional[str] = None,
        *,
        buffer_capacity: int = 0,
        read_latency: float = 0.0,
        readonly: bool = True,
    ) -> RTree:
        """Open one dataset's index as a live tree.

        The replacement for every hand-rolled ``FilePageStore`` +
        ``from_storage`` reopen: flags come from the catalog entry
        unless explicitly overridden.
        """
        entry = self.dataset(name).index(kind)
        if not os.path.exists(entry.path):
            raise CatalogError(
                f"dataset {name!r} names a missing page file "
                f"{entry.path}"
            )
        return entry.open(
            buffer_capacity=buffer_capacity,
            read_latency=read_latency,
            readonly=readonly,
        )

    def tree_spec(
        self,
        name: str,
        kind: Optional[str] = None,
        *,
        buffer_capacity: int = 64,
        read_latency: float = 0.0,
    ):
        """One dataset's index as a shard-reopenable ``TreeSpec``."""
        return self.dataset(name).index(kind).tree_spec(
            buffer_capacity=buffer_capacity,
            read_latency=read_latency,
        )

    # -- registration ------------------------------------------------------

    def register_dataset(
        self,
        name: str,
        points: Sequence[Sequence[float]],
        oids: Optional[Sequence[int]] = None,
        *,
        kind: str = "auto",
        extra_kinds: Sequence[str] = (),
        page_size: int = 1024,
        dimension: Optional[int] = None,
        source: Optional[str] = None,
        overwrite: bool = False,
        planner=None,
    ) -> DatasetEntry:
        """Build and persist one dataset's index(es).

        ``kind="auto"`` asks the planner's index dimension
        (:meth:`repro.service.planner.Planner.plan_index`) to choose
        from the dataset's shape; the decision's evidence is kept in
        the index's build stats.  ``extra_kinds`` builds additional
        indexes alongside (the benchmark registers all three).  Page
        files are written next to the catalog as
        ``<name>.<kind>.pages`` (plus ``.meta.json`` sidecars for
        legacy tooling), and the catalog file is saved before
        returning.
        """
        if not name or "," in name or os.sep in name:
            raise CatalogError(
                f"dataset name {name!r} must be non-empty and free of "
                f"',' and path separators"
            )
        if name in self._datasets and not overwrite:
            raise CatalogError(
                f"dataset {name!r} is already registered "
                f"(pass overwrite=True to rebuild)"
            )
        if len(points) == 0:
            raise CatalogError(f"dataset {name!r} has no points")
        if dimension is None:
            dimension = len(points[0])
        decision = None
        if kind == "auto":
            if planner is None:
                from repro.service.planner import Planner

                planner = Planner()
            decision = planner.plan_index(points)
            kind = decision.kind
        kinds = [kind] + [k for k in extra_kinds if k != kind]
        for k in kinds:
            if k not in INDEX_KINDS:
                raise CatalogError(
                    f"unknown index kind {k!r}; expected one of "
                    f"{INDEX_KINDS} or 'auto'"
                )
        os.makedirs(self.base_dir, exist_ok=True)
        entry = DatasetEntry(
            name=name, dimension=dimension, count=len(points),
            default_kind=kind, source=source,
        )
        for k in kinds:
            pages = os.path.join(self.base_dir, f"{name}.{k}.pages")
            if os.path.exists(pages):
                os.remove(pages)
            started = time.perf_counter()
            tree = _build_index(
                k, points, oids, pages, page_size, dimension
            )
            build_s = time.perf_counter() - started
            metadata = dict(tree.metadata())
            build: Dict[str, Any] = {
                "build_s": round(build_s, 6),
                "nodes": tree.node_count(),
                "height": tree.height,
            }
            if decision is not None and k == kind:
                build["decision"] = decision.as_dict()
            with open(meta_path(pages), "w", encoding="utf-8") as handle:
                json.dump(metadata, handle)
            tree.file.store.close()
            entry.indexes[k] = IndexEntry(
                kind=k,
                path=pages,
                page_size=page_size,
                metadata=metadata,
                build=build,
            )
        self._datasets[name] = entry
        self.save()
        return entry

    def adopt_pages(
        self,
        name: str,
        pages_path: str,
        *,
        kind: str = "dynamic",
        metadata: Optional[Dict[str, Any]] = None,
        source: Optional[str] = None,
        overwrite: bool = False,
    ) -> DatasetEntry:
        """Register an existing ``.pages`` file under a catalog name.

        The migration path for pre-catalog trees (``repro-cpq build``
        output): the page file stays where it is, only the catalog
        entry is created.  ``metadata`` defaults to the ``.meta.json``
        sidecar.
        """
        if name in self._datasets and not overwrite:
            raise CatalogError(
                f"dataset {name!r} is already registered "
                f"(pass overwrite=True to replace)"
            )
        pages_path = os.path.abspath(pages_path)
        if not os.path.exists(pages_path):
            raise CatalogError(f"no page file at {pages_path}")
        if metadata is None:
            sidecar = meta_path(pages_path)
            try:
                with open(sidecar, encoding="utf-8") as handle:
                    metadata = json.load(handle)
            except FileNotFoundError:
                raise CatalogError(
                    f"no metadata sidecar at {sidecar}; pass metadata="
                ) from None
        entry = DatasetEntry(
            name=name,
            dimension=int(metadata.get("dimension", 2)),
            count=int(metadata.get("count", 0)),
            default_kind=kind,
            source=source if source is not None else pages_path,
        )
        entry.indexes[kind] = IndexEntry(
            kind=kind,
            path=pages_path,
            page_size=int(metadata["page_size"]),
            metadata=dict(metadata),
        )
        self._datasets[name] = entry
        self.save()
        return entry

    def remove_dataset(self, name: str, delete_files: bool = False) -> None:
        """Drop one dataset's entry (optionally its page files too)."""
        entry = self.dataset(name)
        if delete_files:
            for index in entry.indexes.values():
                for victim in (index.path, meta_path(index.path)):
                    if os.path.exists(victim):
                        os.remove(victim)
        del self._datasets[name]
        self.save()
