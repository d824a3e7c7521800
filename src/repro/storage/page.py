"""Page layout arithmetic.

R-tree nodes are implemented as disk pages (paper Section 2.2).  The
experiments use 1 KiB pages giving node capacity M = 21 and minimum
occupancy m = M/3 = 7 (Section 4).  :class:`PageLayout` derives those
numbers from a page size so other configurations stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes reserved at the start of every page for the node header
#: (level, entry count, format version, CRC32 checksum).
HEADER_SIZE = 16

#: On-disk page format version written into every new page header.
#:
#: * **0** -- the pre-checksum layout (the header's last 8 bytes are
#:   zero padding).  Rejected as corruption like any unknown version:
#:   a zeroed version word is also what a torn header write leaves.
#: * **1** -- checksummed pages: the former padding carries the version
#:   (uint16), the :data:`PAGE_MAGIC` stamp (uint16), and a CRC32
#:   (uint32) over the whole page with the checksum field zeroed.  Any
#:   single bit-flip anywhere in the page is detected (CRC32 catches
#:   all burst errors shorter than 32 bits).
#:
#: The header stays 16 bytes either way, so node capacity (the paper's
#: M = 21 for 1 KiB pages) is unchanged.
PAGE_FORMAT_VERSION = 1

#: Non-zero stamp written into the header word after the version
#: (ASCII ``"PR"``), so a version-1 header is never all zeros past the
#: entry count; existing page files carry it.
PAGE_MAGIC = 0x5250

#: Fixed on-disk entry footprint in bytes.  Both leaf entries
#: (point coordinates + object id) and internal entries (MBR + child
#: page id) are stored in 48-byte slots for 2-d data, which is what
#: makes a 1 KiB page hold the paper's M = 21 entries:
#: (1024 - 16) // 48 == 21.
ENTRY_SIZE_2D = 48


def entry_size(dimension: int) -> int:
    """On-disk entry footprint for ``dimension``-d data.

    An internal entry needs ``2 * dimension`` float64 bounds plus an
    8-byte child pointer; the slot is padded to at least the 2-d size
    so the paper's capacity numbers hold in the default configuration.
    """
    return max(ENTRY_SIZE_2D, 2 * dimension * 8 + 8)


@dataclass(frozen=True)
class PageLayout:
    """Derives node capacity from a page size.

    Parameters
    ----------
    page_size:
        Page size in bytes (the paper uses 1024).
    dimension:
        Dimensionality of the indexed points (the paper uses 2).
    min_fill_ratio:
        Minimum node occupancy as a fraction of capacity; the paper
        follows Beckmann et al. with m = M/3.
    """

    page_size: int = 1024
    dimension: int = 2
    min_fill_ratio: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if self.page_size < HEADER_SIZE + entry_size(self.dimension):
            raise ValueError(
                f"page size {self.page_size} too small to hold one entry"
            )
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 0.0 < self.min_fill_ratio <= 0.5:
            raise ValueError("min_fill_ratio must be in (0, 0.5]")

    @property
    def entry_size(self) -> int:
        return entry_size(self.dimension)

    @property
    def max_entries(self) -> int:
        """Node capacity M."""
        return (self.page_size - HEADER_SIZE) // self.entry_size

    @property
    def min_entries(self) -> int:
        """Minimum occupancy m (at least 1, at most M // 2)."""
        m = int(self.max_entries * self.min_fill_ratio)
        return max(1, min(m, self.max_entries // 2))
