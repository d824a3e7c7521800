"""Robustness and failure-injection tests.

Storage-layer fuzzing (corrupted page images must fail loudly, not
silently corrupt the tree), API misuse, and doctest execution for the
modules that carry runnable examples.
"""

import doctest
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageCorruptionError
from repro.storage.page import HEADER_SIZE, PAGE_FORMAT_VERSION, PageLayout
from repro.storage.serializer import NodeSerializer, page_checksum


class TestSerializerFuzz:
    layout = PageLayout(page_size=1024)

    def make(self):
        return NodeSerializer(self.layout)

    @given(st.binary(min_size=1024, max_size=1024))
    @settings(max_examples=40)
    def test_arbitrary_pages_never_crash_outside_value_errors(self, blob):
        serializer = self.make()
        # Random bytes either decode into (level, entries) or raise a
        # struct/Value error for impossible counts -- never anything
        # else, and never an infinite loop.
        try:
            level, entries = serializer.deserialize(blob)
        except (ValueError, struct.error):
            return
        assert isinstance(level, int)
        assert isinstance(entries, list)

    def test_truncated_page_rejected(self):
        serializer = self.make()
        with pytest.raises(ValueError):
            serializer.deserialize(b"\x00" * 1023)

    def test_oversized_count_detected(self):
        serializer = self.make()
        # Header claims more entries than a page can hold.
        page = struct.pack("<ii8x", 0, 1_000) + b"\x00" * (1024 - 16)
        with pytest.raises((ValueError, struct.error)):
            serializer.deserialize(page)

    def test_roundtrip_with_extreme_floats(self):
        serializer = self.make()
        entries = [
            ((1e308, -1e308), 2 ** 62),
            ((5e-324, -5e-324), -(2 ** 62)),
            ((0.0, -0.0), 0),
        ]
        level, decoded = serializer.deserialize(
            serializer.serialize_leaf(entries)
        )
        assert decoded == entries


#: Finite coordinates that survive an exact f8 round-trip.
coordinates = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e12, max_value=1e12,
)
leaf_entries = st.lists(
    st.tuples(st.tuples(coordinates, coordinates),
              st.integers(min_value=0, max_value=2 ** 40)),
    min_size=0, max_size=21,
)
internal_entries = st.lists(
    st.tuples(st.tuples(coordinates, coordinates),
              st.tuples(coordinates, coordinates),
              st.integers(min_value=0, max_value=2 ** 20)),
    min_size=0, max_size=21,
)


class TestChecksumProperties:
    """Property tests of the version-1 checksummed page format."""

    layout = PageLayout(page_size=1024)

    def make(self):
        return NodeSerializer(self.layout)

    @given(leaf_entries)
    @settings(max_examples=40)
    def test_leaf_roundtrip_verifies(self, entries):
        serializer = self.make()
        page = serializer.serialize_leaf(entries)
        level, decoded = serializer.deserialize(page)
        assert level == 0
        assert decoded == entries
        # The embedded CRC matches a recomputation over the page.
        stored = struct.unpack_from("<I", page, 12)[0]
        assert stored == page_checksum(page)

    @given(internal_entries, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40)
    def test_internal_roundtrip_verifies(self, entries, level):
        serializer = self.make()
        page = serializer.serialize_internal(level, entries)
        got_level, decoded = serializer.deserialize(page)
        assert got_level == level
        assert decoded == entries

    @given(leaf_entries, st.integers(min_value=0, max_value=1024 * 8 - 1))
    @settings(max_examples=40)
    def test_any_single_bitflip_detected_leaf(self, entries, bit):
        serializer = self.make()
        page = bytearray(serializer.serialize_leaf(entries))
        page[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(PageCorruptionError):
            serializer.deserialize(bytes(page))

    @given(internal_entries,
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=1024 * 8 - 1))
    @settings(max_examples=40)
    def test_any_single_bitflip_detected_internal(
        self, entries, level, bit
    ):
        serializer = self.make()
        page = bytearray(serializer.serialize_internal(level, entries))
        page[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(PageCorruptionError):
            serializer.deserialize(bytes(page))

    def legacy_page(self, entries):
        """A true pre-checksum page: header tail (version, magic, CRC)
        all zero."""
        page = bytearray(self.make().serialize_leaf(entries))
        page[8:16] = b"\x00" * 8
        return bytes(page)

    def test_version_zero_rejected_by_default(self):
        """A zeroed version word is treated as corruption: it is
        indistinguishable from a torn header write, which must never
        decode as an all-zero node."""
        page = self.legacy_page([((1.5, -2.5), 7)])
        with pytest.raises(PageCorruptionError):
            self.make().deserialize(page)

    def test_torn_header_not_mistaken_for_legacy(self):
        """A torn write persisting only the first 8 header bytes zeroes
        the version word but keeps level/count -- exactly the shape of
        a legacy page with zeroed entries.  The default serializer must
        reject it rather than return a silently wrong node."""
        serializer = self.make()
        page = bytearray(serializer.serialize_leaf([((3.0, 4.0), 11)]))
        torn = bytes(page[:8]) + b"\x00" * (len(page) - 8)
        with pytest.raises(PageCorruptionError):
            serializer.deserialize(torn)

    def test_version_flip_to_zero_detected_even_with_legacy(self):
        """Flipping the version LSB (1 -> 0) must not skip validation:
        version 0 is rejected like any unknown version."""
        serializer = self.make()
        page = bytearray(serializer.serialize_leaf([((1.0, 2.0), 3)]))
        page[8] ^= 0x01
        with pytest.raises(PageCorruptionError):
            serializer.deserialize(bytes(page))

    def test_unknown_version_rejected(self):
        serializer = self.make()
        page = bytearray(serializer.serialize_leaf([((0.0, 0.0), 1)]))
        struct.pack_into("<H", page, 8, PAGE_FORMAT_VERSION + 1)
        with pytest.raises(PageCorruptionError):
            serializer.deserialize(bytes(page))


class TestHeaderArithmetic:
    def test_header_size_matches_struct(self):
        assert struct.calcsize("<ii8x") == HEADER_SIZE
        assert struct.calcsize("<iiHHI") == HEADER_SIZE


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.core.api"],
    )
    def test_module_doctests_pass(self, module_name):
        module = __import__(module_name, fromlist=["__name__"])
        failures, tried = doctest.testmod(
            module, verbose=False
        ).failed, doctest.testmod(module, verbose=False).attempted
        assert tried > 0
        assert failures == 0


class TestStatsMisuse:
    def test_result_distances_consistent_after_many_queries(self):
        # Re-running on the same trees must not leak state between
        # queries (fresh K-heap, fresh bounds).
        import random

        from repro.core import CPQRequest, k_closest_pairs
        from repro.rtree.bulk import bulk_load

        rng = random.Random(3)
        pts = [(rng.random(), rng.random()) for __ in range(300)]
        tree_p = bulk_load(pts)
        tree_q = bulk_load(pts)
        first = k_closest_pairs(tree_p, tree_q, request=CPQRequest(k=7)).distances()
        for __ in range(3):
            again = k_closest_pairs(tree_p, tree_q, request=CPQRequest(k=7)).distances()
            assert again == first
