"""RangeSpec/ColorSpec canonicalisation, capability gating, wire v2.

The constraint specs are *identity* objects: two semantically equal
constraints must compare, hash, and cache-key equal, or the service's
result cache silently forks per spelling.  The regression pinned here:
a query window given with reversed corners used to produce a different
cache key than the same window given lo-first.
"""

import pytest

from repro.core.api import (
    ALGORITHM_REGISTRY,
    COLOR_ALGORITHMS,
    RANGE_ALGORITHMS,
    CPQRequest,
)
from repro.core.constraints import ColorSpec, RangeSpec
from repro.errors import UnsupportedCapabilityError
from repro.net.wire import WIRE_VERSION


class TestRangeSpec:
    def test_corners_sorted_per_dimension(self):
        spec = RangeSpec((4.0, 1.0), (0.0, 3.0))
        assert spec.lo == (0.0, 1.0)
        assert spec.hi == (4.0, 3.0)

    def test_reversed_corners_equal(self):
        assert RangeSpec((4, 4), (0, 0)) == RangeSpec((0, 0), (4, 4))
        assert hash(RangeSpec((4, 4), (0, 0))) == hash(
            RangeSpec((0, 0), (4, 4))
        )

    def test_negative_zero_normalised(self):
        assert RangeSpec((-0.0, 0.0), (1, 1)) == RangeSpec(
            (0.0, 0.0), (1.0, 1.0)
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            RangeSpec((0.0,), (1.0, 1.0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RangeSpec((0, 0), (1, 1), mode="sideways")

    def test_mode_controls_constrained_sides(self):
        assert RangeSpec((0, 0), (1, 1), mode="both").constrains_p
        assert RangeSpec((0, 0), (1, 1), mode="both").constrains_q
        assert RangeSpec((0, 0), (1, 1), mode="p").constrains_p
        assert not RangeSpec((0, 0), (1, 1), mode="p").constrains_q
        assert not RangeSpec((0, 0), (1, 1), mode="q").constrains_p

    def test_contains_point_boundary_inclusive(self):
        spec = RangeSpec((0, 0), (1, 1))
        assert spec.contains_point((0.0, 1.0))
        assert spec.contains_point((0.5, 0.5))
        assert not spec.contains_point((1.0000001, 0.5))

    def test_containment_requires_same_mode(self):
        outer = RangeSpec((0, 0), (10, 10))
        inner = RangeSpec((2, 2), (5, 5))
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert not outer.contains(
            RangeSpec((2, 2), (5, 5), mode="p")
        )

    def test_canonical_is_primitive(self):
        lo, hi, mode = RangeSpec((1, 0), (0, 1)).canonical()
        assert lo == (0.0, 0.0) and hi == (1.0, 1.0) and mode == "both"


class TestColorSpec:
    def test_residues_sorted_and_deduped(self):
        spec = ColorSpec(modulus=5, colors_p=(3, 1, 3), distinct=False)
        assert spec.colors_p == (1, 3)

    def test_out_of_range_residue_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            ColorSpec(modulus=3, colors_p=(3,))

    def test_empty_residues_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ColorSpec(modulus=3, colors_p=())

    def test_distinct_needs_two_categories(self):
        with pytest.raises(ValueError, match="at least 2"):
            ColorSpec(modulus=1, distinct=True)

    def test_admits_pair(self):
        spec = ColorSpec(modulus=2, distinct=True)
        assert spec.admits_pair(0, 1)
        assert not spec.admits_pair(2, 4)  # same color 0
        filtered = ColorSpec(modulus=4, colors_p=(1,), distinct=False)
        assert filtered.admits_pair(1, 0)
        assert not filtered.admits_pair(2, 0)


class TestCacheKeyCanonicalisation:
    def test_reversed_corner_window_hits_cache(self):
        # Regression: the same rectangle spelled corner-reversed must
        # produce the same cache key, or the result cache misses.
        a = CPQRequest(k=5, range=((0.8, 0.9), (0.1, 0.2)))
        b = CPQRequest(k=5, range=((0.1, 0.2), (0.8, 0.9)))
        assert a.cache_key() == b.cache_key()

    def test_color_spelling_hits_cache(self):
        a = CPQRequest(
            k=5, colors={"modulus": 4, "colors_p": (3, 1, 1),
                         "distinct": False},
        )
        b = CPQRequest(
            k=5, colors={"modulus": 4, "colors_p": (1, 3),
                         "distinct": False},
        )
        assert a.cache_key() == b.cache_key()

    def test_constraints_are_result_identity(self):
        base = CPQRequest(k=5)
        ranged = CPQRequest(k=5, range=((0, 0), (1, 1)))
        colored = CPQRequest(k=5, colors=2)
        assert ranged.cache_key() != base.cache_key()
        assert colored.cache_key() != base.cache_key()
        assert ranged.cache_key() != colored.cache_key()

    def test_key_remains_hashable(self):
        key = CPQRequest(
            k=3, range=((0, 0), (1, 1)), colors=2
        ).cache_key()
        assert hash(key) is not None


class TestCapabilityGating:
    def test_incapable_algorithm_rejected_for_range(self):
        with pytest.raises(UnsupportedCapabilityError) as info:
            CPQRequest(algorithm="incremental", range=((0, 0), (1, 1)))
        error = info.value
        assert error.algorithm == "incremental"
        assert error.capability == "range"
        assert error.capable == RANGE_ALGORITHMS
        assert "incremental" in str(error)
        assert "heap" in str(error)

    def test_incapable_algorithm_rejected_for_colors(self):
        with pytest.raises(UnsupportedCapabilityError) as info:
            CPQRequest(algorithm="multiway", colors=2)
        assert info.value.capability == "colors"
        assert info.value.capable == COLOR_ALGORITHMS

    def test_error_is_a_value_error(self):
        # Callers that only know ValueError keep working.
        with pytest.raises(ValueError):
            CPQRequest(algorithm="self", range=((0, 0), (1, 1)))

    def test_capable_lists_derive_from_registry(self):
        assert RANGE_ALGORITHMS == tuple(
            name for name, spec in ALGORITHM_REGISTRY.items()
            if spec.supports_range
        )
        assert COLOR_ALGORITHMS == tuple(
            name for name, spec in ALGORITHM_REGISTRY.items()
            if spec.supports_colors
        )

    def test_request_normalises_shorthand(self):
        request = CPQRequest(range=((0, 1), (1, 0)), colors=3)
        assert isinstance(request.range, RangeSpec)
        assert isinstance(request.colors, ColorSpec)
        assert request.colors.modulus == 3


class TestWireV2:
    def test_constraints_round_trip(self):
        from repro.net import wire
        from repro.service import CPQRequest as ServiceCPQ

        request = ServiceCPQ(
            pair="default", k=4, algorithm="clipped",
            range=((0.7, 0.1), (0.2, 0.9)),
            colors={"modulus": 4, "colors_p": (1, 3),
                    "distinct": True},
        )
        envelope = wire.encode_request(request)
        assert envelope["v"] == wire.WIRE_VERSION
        assert envelope["v"] >= 2
        decoded = wire.loads_request(wire.dumps_request(request))
        assert decoded.range == request.range
        assert decoded.colors == request.colors

    def test_unconstrained_envelope_omits_fields(self):
        from repro.net import wire
        from repro.service import CPQRequest as ServiceCPQ

        envelope = wire.encode_request(ServiceCPQ(pair="default", k=2))
        assert "range" not in envelope and "colors" not in envelope

    @pytest.mark.parametrize("version", [1, 2, WIRE_VERSION + 1])
    def test_future_version_rejected(self, version):
        from repro.net import wire

        with pytest.raises(wire.WireError, match="version"):
            wire.decode_request({"v": version, "op": "cpq"})

    def test_plan_range_selectivity_round_trips(self):
        from repro.net import wire
        from repro.service import PlanDecision

        plan = PlanDecision(
            algorithm="rcp", reason="ranged", estimated_accesses=1.0,
            estimated_distance=0.1, buffer_pages=0, height_p=2,
            height_q=2, k=5, range_selectivity=0.0123,
        )
        decoded = wire._decode_plan(wire._encode_plan(plan))
        assert decoded.range_selectivity == pytest.approx(0.0123)
