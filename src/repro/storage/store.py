"""Page stores: where serialised pages live.

Two implementations share one protocol:

* :class:`MemoryPageStore` -- a dict of page images; the default for
  experiments (the paper's cost metric is simulated disk accesses, not
  real ones, so experiments do not need a real file).
* :class:`FilePageStore` -- a real page-aligned file on disk, proving
  the byte layout round-trips and enabling persistent trees.

Both keep a free list so deleted pages are reused, and both support
``ensure_allocated`` so write-ahead-log replay (:mod:`repro.storage.
wal`) can re-apply page images to a store that never saw the original
allocation.

``FilePageStore`` additionally offers an ``mmap``-backed read path
(``use_mmap=True``): warm page reads become one slice of a shared
memory mapping instead of a Python ``seek`` + ``read`` round trip
through the buffered file object.  ``benchmarks/bench_mutation.py``
measures the difference; ``docs/STORAGE.md`` discusses when it pays.
"""

from __future__ import annotations

import mmap
import os
from typing import Dict, List, Optional, Protocol

from repro.errors import PageCorruptionError


class PageStore(Protocol):
    """Minimal page-granular storage interface."""

    page_size: int

    def allocate(self) -> int:
        """Reserve a new page id."""
        ...

    def read(self, page_id: int) -> bytes:
        """Return the page image (exactly ``page_size`` bytes)."""
        ...

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image."""
        ...

    def free(self, page_id: int) -> None:
        """Release a page for reuse."""
        ...

    def ensure_allocated(self, page_id: int) -> None:
        """Make a specific page id allocated (WAL-replay entry point)."""
        ...

    def __len__(self) -> int:
        """Number of live (allocated, not freed) pages."""
        ...


class MemoryPageStore:
    """In-memory page store used by the experiment harness."""

    def __init__(self, page_size: int = 1024):
        self.page_size = page_size
        self._pages: Dict[int, Optional[bytes]] = {}
        self._free: List[int] = []
        self._next_id = 0

    def allocate(self) -> int:
        """Reserve a new page id (free-list ids are reused first)."""
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        self._pages[page_id] = None
        return page_id

    def ensure_allocated(self, page_id: int) -> None:
        """Mark ``page_id`` allocated regardless of history.

        WAL replay applies page images by id; the store must accept
        ids it never handed out (they were allocated by the writer
        that crashed).
        """
        if page_id in self._pages:
            return
        if page_id in self._free:
            self._free.remove(page_id)
        self._next_id = max(self._next_id, page_id + 1)
        self._pages[page_id] = None

    def read(self, page_id: int) -> bytes:
        """Return the page image; raises ``KeyError`` when unwritten."""
        data = self._pages.get(page_id)
        if data is None:
            raise KeyError(f"page {page_id} not written or not allocated")
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image (must be exactly ``page_size`` bytes)."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} not allocated")
        if len(data) != self.page_size:
            raise ValueError(
                f"page image of {len(data)} bytes; expected {self.page_size}"
            )
        self._pages[page_id] = data

    def free(self, page_id: int) -> None:
        """Release a page for reuse."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} not allocated")
        del self._pages[page_id]
        self._free.append(page_id)

    def __len__(self) -> int:
        return len(self._pages)


class FilePageStore:
    """Page store backed by a real file.

    The file grows in page-size units; a free list is kept in memory
    (it could be persisted in page 0, but persistence of the free list
    is not needed by any experiment -- crash recovery rebuilds it from
    the WAL's FREE records instead).

    ``use_mmap`` switches warm reads to a shared memory mapping of the
    file: a page read becomes one slice instead of ``seek`` + ``read``
    through the buffered file object.  The mapping is rebuilt lazily
    whenever the file has grown past it, and writes performed through
    this store are flushed before the next mapped read so the mapping
    (same file, unified page cache) always observes them.
    """

    def __init__(self, path: str, page_size: int = 1024,
                 readonly: bool = False, use_mmap: bool = False):
        self.page_size = page_size
        self.path = path
        self.readonly = readonly
        self.use_mmap = use_mmap
        if readonly:
            # Per-process handles of the shard tier: each shard opens
            # its own file descriptor on the shared page file, so
            # concurrent readers never share seek state.
            mode = "rb"
        else:
            mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size:
            raise ValueError(
                f"{path} is {size} bytes, not a multiple of {page_size}"
            )
        self._next_id = size // page_size
        self._allocated = set(range(self._next_id))
        self._free: List[int] = []
        self._mmap: Optional[mmap.mmap] = None
        self._unflushed = False

    def allocate(self) -> int:
        """Reserve a new page id, growing the file if none are free."""
        self._check_writable()
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
            self._file.seek(page_id * self.page_size)
            self._file.write(b"\x00" * self.page_size)
            self._unflushed = True
        self._allocated.add(page_id)
        return page_id

    def ensure_allocated(self, page_id: int) -> None:
        """Make ``page_id`` allocated, extending the file as needed.

        The WAL-replay entry point: recovery re-applies images for
        pages allocated by the crashed writer, which this (fresh)
        handle never handed out.
        """
        self._check_writable()
        if page_id in self._allocated:
            return
        if page_id in self._free:
            self._free.remove(page_id)
        if page_id >= self._next_id:
            self._file.seek(self._next_id * self.page_size)
            self._file.write(
                b"\x00" * (page_id + 1 - self._next_id) * self.page_size
            )
            self._unflushed = True
            self._next_id = page_id + 1
        self._allocated.add(page_id)

    def read(self, page_id: int) -> bytes:
        """Return the page image, via the mapping when ``use_mmap``."""
        self._check(page_id)
        if self.use_mmap:
            data = self._read_mmap(page_id)
            if data is not None:
                return data
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            # A truncated file (partial write, lost tail) must fail
            # loudly here, not as a confusing serializer error later.
            raise PageCorruptionError(
                f"short read of page {page_id} from {self.path}: got "
                f"{len(data)} bytes, expected {self.page_size}",
                page_id=page_id,
            )
        return data

    def _read_mmap(self, page_id: int) -> Optional[bytes]:
        """One-slice read through the mapping; None to fall back.

        Buffered writes through ``self._file`` are flushed first so the
        mapping (same file, unified page cache) observes them; the
        mapping is remapped when the file has grown past its end.
        """
        if self._unflushed:
            self._file.flush()
            self._unflushed = False
        start = page_id * self.page_size
        end = start + self.page_size
        if self._mmap is None or end > len(self._mmap):
            self._remap()
        if self._mmap is None or end > len(self._mmap):
            return None  # file genuinely shorter: buffered path raises
        return bytes(self._mmap[start:end])

    def _remap(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        size = os.fstat(self._file.fileno()).st_size
        if size:
            self._mmap = mmap.mmap(
                self._file.fileno(), size, access=mmap.ACCESS_READ
            )

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image (must be exactly ``page_size`` bytes)."""
        self._check_writable()
        self._check(page_id)
        if len(data) != self.page_size:
            raise ValueError(
                f"page image of {len(data)} bytes; expected {self.page_size}"
            )
        self._file.seek(page_id * self.page_size)
        self._file.write(data)
        self._unflushed = True

    def free(self, page_id: int) -> None:
        """Release a page for reuse."""
        self._check_writable()
        self._check(page_id)
        self._allocated.remove(page_id)
        self._free.append(page_id)

    def _check(self, page_id: int) -> None:
        if page_id not in self._allocated:
            raise KeyError(f"page {page_id} not allocated")

    def _check_writable(self) -> None:
        if self.readonly:
            raise PermissionError(f"{self.path} opened read-only")

    def __len__(self) -> int:
        return len(self._allocated)

    def flush(self) -> None:
        """Flush buffered writes to the OS."""
        self._file.flush()
        self._unflushed = False

    def close(self) -> None:
        """Unmap (when mapped) and close the file handle."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        self._file.close()

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
