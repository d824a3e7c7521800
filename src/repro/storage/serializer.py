"""Byte-level node (de)serialisation with page checksums.

Pages hold a small header followed by fixed-size entry slots:

* header: ``level`` (int32; 0 for leaves), ``count`` (int32),
  ``version`` (uint16, see
  :data:`~repro.storage.page.PAGE_FORMAT_VERSION`), a reserved uint16,
  and a CRC32 checksum (uint32) -- 16 bytes total.
* leaf entry: ``dimension`` float64 coordinates + int64 object id.
* internal entry: ``2 * dimension`` float64 MBR bounds (lows then
  highs) + int64 child page id.

Entries are padded to the layout's fixed slot size so capacity
arithmetic (and the paper's M = 21 for 1 KiB pages) is exact.  The
serializer is deliberately independent of the R-tree classes: it deals
in plain tuples, and :mod:`repro.rtree.node` adapts them.

The checksum covers the whole page with the CRC field itself zeroed.
Every page this serializer writes is version 1 with the
:data:`~repro.storage.page.PAGE_MAGIC` stamp in the reserved word; a
version-1 page whose checksum does not match raises
:class:`repro.errors.PageCorruptionError` -- corruption is loud, never
a silently wrong node.  Any other version word is rejected the same
way -- including 0, the pre-checksum layout, because a zeroed version
word is exactly what a torn header write or a version-field bit-flip
produces.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import PageCorruptionError
from repro.storage.page import (
    HEADER_SIZE,
    PAGE_FORMAT_VERSION,
    PAGE_MAGIC,
    PageLayout,
)

#: (coords, object_id)
LeafEntryTuple = Tuple[Tuple[float, ...], int]
#: (lo, hi, child_page_id)
InternalEntryTuple = Tuple[Tuple[float, ...], Tuple[float, ...], int]

#: level, count, version, reserved, crc32 -- 16 bytes.
_HEADER = struct.Struct("<iiHHI")
assert _HEADER.size == HEADER_SIZE

#: Byte span of the CRC32 field inside the header.
_CRC_OFFSET = 12
_CRC_END = 16


def page_checksum(page: bytes) -> int:
    """CRC32 of a page image with the checksum field zeroed."""
    return zlib.crc32(
        page[:_CRC_OFFSET] + b"\x00\x00\x00\x00" + page[_CRC_END:]
    ) & 0xFFFFFFFF


class PageOverflowError(ValueError):
    """Raised when more entries are serialised than the page can hold."""


class NodeSerializer:
    """Serialises nodes of a fixed dimension into fixed-size pages."""

    def __init__(self, layout: PageLayout):
        self.layout = layout
        k = layout.dimension
        self._leaf_entry = struct.Struct(f"<{k}dq")
        self._internal_entry = struct.Struct(f"<{2 * k}dq")
        for fmt in (self._leaf_entry, self._internal_entry):
            if fmt.size > layout.entry_size:
                raise ValueError(
                    f"entry struct of {fmt.size} bytes exceeds the "
                    f"{layout.entry_size}-byte slot"
                )
        # Structured views of one entry slot (padding included in
        # itemsize) so whole pages decode with a single np.frombuffer.
        self._leaf_dtype = np.dtype(
            {
                "names": ["coords", "oid"],
                "formats": [("<f8", (k,)), "<i8"],
                "itemsize": layout.entry_size,
            }
        )
        self._internal_dtype = np.dtype(
            {
                "names": ["lo", "hi", "child"],
                "formats": [("<f8", (k,)), ("<f8", (k,)), "<i8"],
                "itemsize": layout.entry_size,
            }
        )

    # -- serialisation -----------------------------------------------------

    def serialize_leaf(self, entries: Sequence[LeafEntryTuple]) -> bytes:
        """Pack a leaf node (level 0) into one page."""
        return self._serialize(0, entries, self._pack_leaf_entry)

    def serialize_internal(
        self, level: int, entries: Sequence[InternalEntryTuple]
    ) -> bytes:
        """Pack an internal node (level >= 1) into one page."""
        if level < 1:
            raise ValueError("internal nodes have level >= 1")
        return self._serialize(level, entries, self._pack_internal_entry)

    def _pack_leaf_entry(self, entry: LeafEntryTuple) -> bytes:
        coords, oid = entry
        return self._leaf_entry.pack(*coords, oid)

    def _pack_internal_entry(self, entry: InternalEntryTuple) -> bytes:
        lo, hi, child = entry
        return self._internal_entry.pack(*lo, *hi, child)

    def _serialize(self, level, entries, pack) -> bytes:
        if len(entries) > self.layout.max_entries:
            raise PageOverflowError(
                f"{len(entries)} entries exceed capacity "
                f"{self.layout.max_entries}"
            )
        slot = self.layout.entry_size
        parts = [
            _HEADER.pack(
                level, len(entries), PAGE_FORMAT_VERSION, PAGE_MAGIC, 0
            )
        ]
        for entry in entries:
            raw = pack(entry)
            parts.append(raw)
            parts.append(b"\x00" * (slot - len(raw)))
        payload = b"".join(parts)
        page = payload + b"\x00" * (self.layout.page_size - len(payload))
        crc = struct.pack("<I", page_checksum(page))
        return page[:_CRC_OFFSET] + crc + page[_CRC_END:]

    # -- deserialisation -----------------------------------------------------

    def _read_header(self, page: bytes) -> Tuple[int, int]:
        if len(page) != self.layout.page_size:
            raise PageCorruptionError(
                f"page of {len(page)} bytes; expected {self.layout.page_size}"
            )
        level, count, version, __, crc = _HEADER.unpack_from(page, 0)
        if version != PAGE_FORMAT_VERSION:
            # Damage (a torn or zeroed header), the unchecksummed
            # version 0, or a future format: never decode unverified.
            raise PageCorruptionError(
                f"corrupt page: unknown format version {version}"
            )
        actual = page_checksum(page)
        if actual != crc:
            raise PageCorruptionError(
                f"corrupt page: CRC32 mismatch (stored {crc:#010x}, "
                f"computed {actual:#010x})"
            )
        if level < 0:
            raise PageCorruptionError(
                f"corrupt page: negative level {level}"
            )
        if not 0 <= count <= self.layout.max_entries:
            raise PageCorruptionError(
                f"corrupt page: entry count {count} outside "
                f"[0, {self.layout.max_entries}]"
            )
        return level, count

    def deserialize(self, page: bytes):
        """Unpack one page.

        Returns ``(level, entries)`` where entries are leaf tuples when
        ``level == 0`` and internal tuples otherwise.
        """
        level, count = self._read_header(page)
        slot = self.layout.entry_size
        k = self.layout.dimension
        entries: List = []
        offset = HEADER_SIZE
        if level == 0:
            for _ in range(count):
                values = self._leaf_entry.unpack_from(page, offset)
                entries.append((tuple(values[:k]), values[k]))
                offset += slot
        else:
            for _ in range(count):
                values = self._internal_entry.unpack_from(page, offset)
                entries.append(
                    (tuple(values[:k]), tuple(values[k:2 * k]), values[2 * k])
                )
                offset += slot
        return level, entries

    def deserialize_arrays(self, page: bytes):
        """Unpack one page together with its entry-MBR arrays.

        Returns ``(level, entries, lo, hi)`` where ``entries`` matches
        :meth:`deserialize` and ``lo`` / ``hi`` are ``(count, k)``
        float64 arrays of the per-entry MBR bounds, decoded in bulk via
        a structured dtype.  For leaves both names refer to the *same*
        coordinate array (points are degenerate rectangles), matching
        what ``Node._build_arrays`` would lazily produce.  Empty pages
        return ``None`` arrays.
        """
        level, count = self._read_header(page)
        if count == 0:
            return level, [], None, None
        if level == 0:
            records = np.frombuffer(
                page, dtype=self._leaf_dtype, count=count, offset=HEADER_SIZE
            )
            pts = np.array(records["coords"], dtype=np.float64)
            entries: List = [
                (tuple(coords), oid)
                for coords, oid in zip(pts.tolist(), records["oid"].tolist())
            ]
            return level, entries, pts, pts
        records = np.frombuffer(
            page, dtype=self._internal_dtype, count=count, offset=HEADER_SIZE
        )
        lo = np.array(records["lo"], dtype=np.float64)
        hi = np.array(records["hi"], dtype=np.float64)
        entries = [
            (tuple(low), tuple(high), child)
            for low, high, child in zip(
                lo.tolist(), hi.tolist(), records["child"].tolist()
            )
        ]
        return level, entries, lo, hi
