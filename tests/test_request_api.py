"""CPQRequest, the algorithm registry, and the tracer watch refcount.

These pin the unified query API: one frozen request object validated at
construction, a single registry every consumer derives algorithm
knowledge from, a cache key that captures result identity and nothing
else, and buffer observers that come off the trees when the traversal
that installed them finishes.
"""

import random

import pytest

from repro.analysis.cost_model import KERNEL_NS_PER_PAIR, estimate_cpu_ms
from repro.core import k_closest_pairs
from repro.core.api import (
    ALGORITHM_REGISTRY,
    ALGORITHMS,
    PLANNABLE_ALGORITHMS,
    CPQRequest,
    DeadlineExceeded,
)
from repro.core.height import FIX_AT_LEAVES
from repro.core.ties import TieBreak
from repro.geometry.minkowski import MANHATTAN
from repro.obs.trace import Tracer
from repro.rtree.bulk import bulk_load


@pytest.fixture(scope="module")
def trees():
    rng = random.Random(23)
    pts_p = [(rng.random(), rng.random()) for __ in range(500)]
    pts_q = [(rng.random(), rng.random()) for __ in range(500)]
    return bulk_load(pts_p), bulk_load(pts_q)


class TestCPQRequest:
    def test_defaults_are_runnable(self, trees):
        result = k_closest_pairs(*trees, request=CPQRequest())
        assert result.algorithm == "HEAP"
        assert len(result.pairs) == 1

    def test_algorithm_normalised_lowercase(self):
        assert CPQRequest(algorithm="HEAP").algorithm == "heap"

    def test_tie_break_stored_parsed(self):
        request = CPQRequest(algorithm="std", tie_break="T2")
        assert isinstance(request.tie_break, TieBreak)

    def test_frozen(self):
        request = CPQRequest()
        with pytest.raises(AttributeError):
            request.k = 5

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"algorithm": "quantum"}, "unknown algorithm"),
            ({"k": 0}, "k must be"),
            ({"buffer_pages": -1}, "buffer_pages"),
            ({"deadline_ms": 0}, "deadline_ms"),
            ({"height_strategy": "sideways"}, "height strategy"),
            ({"algorithm": "std", "tie_break": "T7"}, "tie criterion"),
        ],
    )
    def test_validation_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CPQRequest(**kwargs)

    def test_classic_keywords_removed(self, trees):
        # The historical ``k_closest_pairs(.., k=, algorithm=)`` shim
        # finished its deprecation cycle; the knobs live on the
        # request object only.
        with pytest.raises(TypeError):
            k_closest_pairs(*trees, k=50, algorithm="naive")

    def test_deadline_raises(self, trees):
        request = CPQRequest(k=10, deadline_ms=1e-6)
        with pytest.raises(DeadlineExceeded):
            k_closest_pairs(*trees, request=request)

    def test_trace_attaches_span_tree(self, trees):
        result = k_closest_pairs(*trees, request=CPQRequest(trace=True))
        assert result.trace is not None
        assert result.trace.find("traverse") is not None

    def test_no_trace_by_default(self, trees):
        result = k_closest_pairs(*trees, request=CPQRequest())
        assert result.trace is None


class TestCacheKey:
    def test_excludes_execution_environment(self):
        base = CPQRequest(k=5)
        for variant in (
            CPQRequest(k=5, buffer_pages=64),
            CPQRequest(k=5, deadline_ms=100.0),
            CPQRequest(k=5, trace=True),
            CPQRequest(k=5, reset_stats=False),
        ):
            assert variant.cache_key() == base.cache_key()

    def test_captures_result_identity(self):
        base = CPQRequest(k=5)
        for variant in (
            CPQRequest(k=6),
            CPQRequest(k=5, algorithm="std"),
            CPQRequest(k=5, metric=MANHATTAN),
            CPQRequest(k=5, height_strategy=FIX_AT_LEAVES),
            CPQRequest(k=5, algorithm="std", tie_break="T2"),
            CPQRequest(k=5, maxmax_pruning=False),
        ):
            assert variant.cache_key() != base.cache_key()

    def test_key_is_hashable_primitives(self):
        key = CPQRequest(algorithm="std", tie_break="T3").cache_key()
        assert hash(key) is not None


class TestRegistry:
    def test_every_algorithm_registered_with_runner(self):
        assert ALGORITHMS[:5] == ("naive", "exh", "sim", "std", "heap")
        assert set(ALGORITHMS) == {
            "naive", "exh", "sim", "std", "heap",
            "clipped", "rcp",
            "self", "semi", "multiway", "incremental",
        }
        for name, spec in ALGORITHM_REGISTRY.items():
            assert spec.name == name
            assert callable(spec.runner)

    def test_core_labels_match_names(self):
        for name in ("naive", "exh", "sim", "std", "heap"):
            assert ALGORITHM_REGISTRY[name].label == name.upper()

    def test_capability_flags(self):
        for name in ("naive", "exh", "sim", "std", "heap"):
            spec = ALGORITHM_REGISTRY[name]
            assert spec.supports_parallel
            assert spec.supports_range and spec.supports_colors
            assert not (spec.self_join or spec.semi or spec.multiway
                        or spec.incremental)
        for name in ("clipped", "rcp"):
            spec = ALGORITHM_REGISTRY[name]
            assert spec.specialized and not spec.plannable
            assert spec.supports_range and spec.supports_colors
        assert ALGORITHM_REGISTRY["clipped"].supports_parallel
        assert not ALGORITHM_REGISTRY["rcp"].supports_parallel
        assert ALGORITHM_REGISTRY["self"].self_join
        assert ALGORITHM_REGISTRY["semi"].semi
        assert ALGORITHM_REGISTRY["multiway"].multiway
        assert ALGORITHM_REGISTRY["incremental"].incremental
        for name in ("self", "semi", "multiway", "incremental"):
            spec = ALGORITHM_REGISTRY[name]
            assert not spec.supports_parallel
            assert not spec.plannable

    def test_naive_is_not_plannable(self):
        assert "naive" not in PLANNABLE_ALGORITHMS
        assert set(PLANNABLE_ALGORITHMS) == {"exh", "sim", "std", "heap"}

    def test_planner_candidates_come_from_registry(self):
        from repro.service.planner import CANDIDATES

        assert CANDIDATES == PLANNABLE_ALGORITHMS

    def test_spec_property(self):
        assert CPQRequest(algorithm="sim").spec.label == "SIM"


class TestTracerWatchRefcount:
    class _Buffer:
        on_read = None

    def test_nested_watch_survives_inner_unwatch(self):
        tracer = Tracer()
        buffer = self._Buffer()
        tracer.watch_buffer(buffer, "io.p")
        tracer.watch_buffer(buffer, "io.p")
        tracer.unwatch_buffer(buffer)
        assert buffer.on_read is not None
        tracer.unwatch_buffer(buffer)
        assert buffer.on_read is None

    def test_unwatch_unknown_buffer_is_noop(self):
        tracer = Tracer()
        buffer = self._Buffer()
        tracer.unwatch_buffer(buffer)
        assert buffer.on_read is None

    def test_unwatch_spares_replacement_observer(self):
        tracer = Tracer()
        other = Tracer()
        buffer = self._Buffer()
        tracer.watch_buffer(buffer, "io.p")
        other.watch_buffer(buffer, "io.p")
        tracer.unwatch_buffer(buffer)
        # The replacement installed by the other tracer must survive.
        assert buffer.on_read is not None
        other.unwatch_buffer(buffer)
        assert buffer.on_read is None

    def test_traced_query_releases_observers(self, trees):
        # The regression this guards: traced_traversal used to leave
        # its on_read observers installed after the query returned.
        tree_p, tree_q = trees
        tracer = Tracer()
        k_closest_pairs(
            tree_p, tree_q, request=CPQRequest(k=3), tracer=tracer
        )
        assert tree_p.file.buffer.on_read is None
        assert tree_q.file.buffer.on_read is None

    def test_traced_query_releases_observers_on_deadline(self, trees):
        tree_p, tree_q = trees
        tracer = Tracer()
        with pytest.raises(DeadlineExceeded):
            k_closest_pairs(
                *trees,
                request=CPQRequest(k=10, deadline_ms=1e-6),
                tracer=tracer,
            )
        assert tree_p.file.buffer.on_read is None
        assert tree_q.file.buffer.on_read is None


class TestKernelCostEstimate:
    def test_prices_known_kernels(self):
        kernels = {"minmin": {"calls": 2, "pairs": 1000}}
        expected = 1000 * KERNEL_NS_PER_PAIR["minmin"] / 1e6
        assert estimate_cpu_ms(kernels) == pytest.approx(expected)

    def test_unknown_kernel_priced_at_worst_rate(self):
        worst = max(KERNEL_NS_PER_PAIR.values())
        assert estimate_cpu_ms(
            {"future_kernel": {"calls": 1, "pairs": 100}}
        ) == pytest.approx(100 * worst / 1e6)

    def test_empty_tally_is_free(self):
        assert estimate_cpu_ms({}) == 0.0

    def test_snapshot_section_feeds_estimate(self):
        from repro.service.metrics import ServiceMetrics

        snapshot = ServiceMetrics().snapshot()
        assert "kernels" in snapshot
        assert estimate_cpu_ms(snapshot["kernels"]) >= 0.0
