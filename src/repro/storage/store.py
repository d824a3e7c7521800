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

``FilePageStore`` reads and writes with positional I/O only, so one
store is safe to share between reader threads and a writer thread
(``docs/STORAGE.md``, *Page I/O*).
"""

from __future__ import annotations

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

    Every access is positional I/O on one raw file descriptor:
    ``os.pread`` for reads, ``os.pwrite`` for writes and file growth,
    ``os.fstat`` for the size.  There is no shared file offset and no
    user-space write buffer, so concurrent readers and a writer never
    interfere: a read returns the bytes the OS holds at that page's
    offset, and every completed write is visible to the next read,
    through this handle or any other.  :meth:`flush` makes the writes
    durable (``os.fsync``).
    """

    def __init__(self, path: str, page_size: int = 1024,
                 readonly: bool = False):
        self.page_size = page_size
        self.path = path
        self.readonly = readonly
        flags = os.O_RDONLY if readonly else os.O_RDWR | os.O_CREAT
        # An unbuffered file object owns the descriptor, so it is
        # closed on garbage collection like any other file.
        self._file = os.fdopen(os.open(path, flags, 0o666),
                               "rb" if readonly else "r+b", buffering=0)
        self._fd = self._file.fileno()
        size = os.fstat(self._fd).st_size
        if size % page_size:
            self._file.close()
            raise ValueError(
                f"{path} is {size} bytes, not a multiple of {page_size}"
            )
        self._next_id = size // page_size
        self._allocated = set(range(self._next_id))
        self._free: List[int] = []

    def allocate(self) -> int:
        """Reserve a new page id, growing the file if none are free."""
        self._check_writable()
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
            os.pwrite(self._fd, bytes(self.page_size),
                      page_id * self.page_size)
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
            os.pwrite(
                self._fd,
                bytes((page_id + 1 - self._next_id) * self.page_size),
                self._next_id * self.page_size,
            )
            self._next_id = page_id + 1
        self._allocated.add(page_id)

    def read(self, page_id: int) -> bytes:
        """Return the page image (one ``os.pread`` at its offset)."""
        self._check(page_id)
        data = os.pread(self._fd, self.page_size, page_id * self.page_size)
        if len(data) != self.page_size:
            # A truncated file (partial write, lost tail) must fail
            # loudly here, not as a confusing serializer error later.
            raise PageCorruptionError(
                f"short read of page {page_id} from {self.path}: got "
                f"{len(data)} bytes, expected {self.page_size}",
                page_id=page_id,
            )
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image (must be exactly ``page_size`` bytes)."""
        self._check_writable()
        self._check(page_id)
        if len(data) != self.page_size:
            raise ValueError(
                f"page image of {len(data)} bytes; expected {self.page_size}"
            )
        os.pwrite(self._fd, data, page_id * self.page_size)

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
        """Make every completed write durable (``os.fsync``)."""
        os.fsync(self._fd)

    def close(self) -> None:
        """Close the file (idempotent)."""
        self._file.close()
        # A stale descriptor number could be reused by another open
        # file; -1 makes any later access fail with EBADF instead.
        self._fd = -1

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
