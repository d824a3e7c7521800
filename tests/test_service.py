"""Unit tests for the query service: planner, cache, metrics,
deadlines and admission control."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.analysis.cost_model import TreeShape
from repro.core import k_closest_pairs
from repro.core.api import CPQRequest as CoreRequest
from repro.datasets.workspace import Workspace
from repro.rtree.bulk import bulk_load
from repro.service import (
    CPQRequest,
    KNNRequest,
    Planner,
    QueryService,
    RangeRequest,
    ResultCache,
    ServiceMetrics,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    cache_key,
)

UNIT = Workspace(0.0, 0.0, 1.0, 1.0)


def make_service(tree_p, tree_q, **kwargs):
    service = QueryService(**kwargs)
    service.register_pair("pair", tree_p, tree_q)
    return service


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

class TestPlanner:
    def test_single_leaf_trees_use_exh(self):
        tiny = TreeShape.uniform(5, UNIT)
        decision = Planner().plan(tiny, tiny, buffer_pages=0)
        assert decision.algorithm == "exh"
        assert decision.height_p == decision.height_q == 1

    def test_zero_buffer_large_trees_use_heap(self):
        big = TreeShape.uniform(100_000, UNIT)
        decision = Planner().plan(big, big, buffer_pages=0)
        assert decision.algorithm == "heap"
        assert decision.estimated_accesses > 0

    def test_ample_buffer_switches_to_std(self):
        """Same trees, different buffer -> different algorithm."""
        big = TreeShape.uniform(100_000, UNIT)
        planner = Planner()
        scarce = planner.plan(big, big, buffer_pages=0)
        ample = planner.plan(
            big, big,
            buffer_pages=int(scarce.estimated_accesses) + 1,
        )
        assert scarce.algorithm == "heap"
        assert ample.algorithm == "std"

    def test_small_predicted_workload_uses_sim(self):
        small = TreeShape.uniform(50, UNIT)
        planner = Planner(sim_threshold=50.0)
        decision = planner.plan(small, small, buffer_pages=0)
        assert decision.algorithm == "sim"
        assert decision.estimated_accesses <= 50.0

    def test_height_changes_decision(self):
        """Different tree heights -> different algorithm choice."""
        planner = Planner()
        shallow = TreeShape.uniform(5, UNIT)
        deep = TreeShape.uniform(100_000, UNIT)
        assert planner.plan(shallow, shallow, 0).algorithm == "exh"
        assert planner.plan(deep, deep, 0).algorithm == "heap"

    def test_unshapeable_tree_falls_back_to_heap(self):
        decision = Planner().plan(None, TreeShape.uniform(50, UNIT), 0)
        assert decision.algorithm == "heap"
        assert math.isinf(decision.estimated_accesses)

    def test_k_raises_estimate(self):
        big = TreeShape.uniform(100_000, UNIT)
        planner = Planner()
        one = planner.plan(big, big, 0, k=1)
        many = planner.plan(big, big, 0, k=100)
        assert many.estimated_accesses > one.estimated_accesses

    def test_decision_serialises(self):
        decision = Planner().plan(
            TreeShape.uniform(1000, UNIT),
            TreeShape.uniform(1000, UNIT),
            buffer_pages=16,
        )
        as_dict = decision.as_dict()
        assert as_dict["algorithm"] == decision.algorithm
        assert as_dict["buffer_pages"] == 16


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_get_put_and_lru_eviction(self):
        cache = ResultCache(capacity=2)
        k1 = cache_key("a", 0, 0, ("cpq", 1, "auto"))
        k2 = cache_key("a", 0, 0, ("cpq", 2, "auto"))
        k3 = cache_key("a", 0, 0, ("cpq", 3, "auto"))
        cache.put(k1, "one")
        cache.put(k2, "two")
        assert cache.get(k1) == (True, "one")  # refreshes k1
        cache.put(k3, "three")  # evicts k2, the LRU entry
        assert cache.get(k2) == (False, None)
        assert cache.get(k1) == (True, "one")
        assert cache.get(k3) == (True, "three")

    def test_generation_in_key_prevents_stale_hits(self):
        cache = ResultCache(capacity=8)
        old = cache_key("a", 0, 0, ("cpq", 1, "auto"))
        cache.put(old, "stale")
        fresh = cache_key("a", 1, 0, ("cpq", 1, "auto"))
        assert cache.get(fresh) == (False, None)

    def test_invalidate_pair_drops_only_that_pair(self):
        cache = ResultCache(capacity=8)
        cache.put(cache_key("a", 0, 0, ("cpq", 1, "auto")), 1)
        cache.put(cache_key("a", 0, 0, ("cpq", 2, "auto")), 2)
        cache.put(cache_key("b", 0, 0, ("cpq", 1, "auto")), 3)
        assert cache.invalidate_pair("a") == 2
        assert len(cache) == 1
        assert cache.get(cache_key("b", 0, 0, ("cpq", 1, "auto")))[0]

    def test_invalidate_pair_stale_stock_opt_in(self):
        cache = ResultCache(capacity=8)
        params = ("cpq", 1, "auto")
        cache.put(cache_key("a", 0, 0, params), "va")
        cache.put(cache_key("b", 0, 0, params), "vb")
        # Generation-bump invalidation keeps the last-known-good stock.
        cache.invalidate_pair("a")
        assert cache.get_stale("a", params) == (True, "va")
        # Tree replacement drops it -- and only for that pair.
        cache.invalidate_pair("a", drop_stale=True)
        assert cache.get_stale("a", params) == (False, None)
        assert cache.get_stale("b", params) == (True, "vb")

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        key = cache_key("a", 0, 0, ("cpq", 1, "auto"))
        cache.put(key, "x")
        assert cache.get(key) == (False, None)
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_snapshot_schema_and_counts(self):
        metrics = ServiceMetrics()
        metrics.record_submitted()
        metrics.record_cache_miss()
        metrics.record_planner_decision("heap")
        metrics.record_planner_decision("heap")
        metrics.record_planner_decision("std")
        metrics.record_query("cpq", STATUS_OK, latency_ms=3.0,
                             disk_reads=10, buffer_hits=5)
        metrics.record_query("cpq", STATUS_OK, latency_ms=1.0,
                             cached=True)
        metrics.set_queue_depth(7)
        metrics.set_queue_depth(2)
        snap = metrics.snapshot(cache_size=4)
        assert snap["queries"]["submitted"] == 1
        assert snap["queries"]["by_status"][STATUS_OK] == 2
        assert snap["planner"] == {"heap": 2, "std": 1}
        assert snap["cache"] == {
            "hits": 1, "misses": 1, "hit_rate": 0.5, "size": 4,
        }
        assert snap["io"] == {
            "disk_reads": 10, "buffer_hits": 5, "read_retries": 0,
        }
        assert snap["latency_ms"]["count"] == 2
        assert snap["latency_ms"]["min"] == 1.0
        assert snap["latency_ms"]["max"] == 3.0
        assert snap["queue"] == {"depth": 2, "max_depth": 7}
        assert sum(snap["latency_ms"]["buckets"].values()) == 2

    def test_snapshot_is_json_serialisable(self):
        import json

        metrics = ServiceMetrics()
        metrics.record_query("knn", STATUS_ERROR, latency_ms=0.5)
        json.dumps(metrics.snapshot())

    def test_per_algorithm_latency_histograms(self):
        metrics = ServiceMetrics()
        metrics.record_query("cpq", STATUS_OK, latency_ms=2.0,
                             algorithm="heap")
        metrics.record_query("cpq", STATUS_OK, latency_ms=6.0,
                             algorithm="heap")
        metrics.record_query("cpq", STATUS_OK, latency_ms=1.0,
                             algorithm="std")
        metrics.record_query("knn", STATUS_OK, latency_ms=9.0)  # no algo
        by_algo = metrics.snapshot()["latency_ms"]["by_algorithm"]
        assert set(by_algo) == {"heap", "std"}
        heap = by_algo["heap"]
        assert heap["count"] == 2
        assert heap["min"] == 2.0
        assert heap["max"] == 6.0
        assert heap["mean"] == pytest.approx(4.0)
        assert sum(heap["buckets"].values()) == 2
        assert by_algo["std"]["count"] == 1

    def test_snapshot_with_reset_returns_pre_reset_view(self):
        metrics = ServiceMetrics()
        metrics.record_submitted()
        metrics.record_query("cpq", STATUS_OK, latency_ms=3.0,
                             algorithm="heap", disk_reads=4)
        before = metrics.snapshot(reset=True)
        assert before["queries"]["submitted"] == 1
        assert before["latency_ms"]["by_algorithm"]["heap"]["count"] == 1
        assert before["io"]["disk_reads"] == 4
        after = metrics.snapshot()
        assert after["queries"]["submitted"] == 0
        assert after["latency_ms"]["count"] == 0
        assert after["latency_ms"]["by_algorithm"] == {}
        assert after["io"]["disk_reads"] == 0

    def test_reset_is_snapshot_alias(self):
        metrics = ServiceMetrics()
        metrics.record_cache_miss()
        returned = metrics.reset()
        assert returned["cache"]["misses"] == 1
        assert metrics.snapshot()["cache"]["misses"] == 0

    def test_reset_survives_concurrent_recording(self):
        """No update may be lost or double-counted across resets: the
        total over all snapshots equals the number of recordings."""
        metrics = ServiceMetrics()
        stop = threading.Event()
        recorded = [0]

        def record():
            while not stop.is_set():
                metrics.record_query("cpq", STATUS_OK, latency_ms=1.0,
                                     algorithm="heap")
                recorded[0] += 1

        thread = threading.Thread(target=record)
        thread.start()
        harvested = 0
        for __ in range(50):
            harvested += metrics.snapshot(reset=True)["latency_ms"]["count"]
        stop.set()
        thread.join()
        harvested += metrics.snapshot(reset=True)["latency_ms"]["count"]
        assert harvested == recorded[0]


# ---------------------------------------------------------------------------
# Service behaviour
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service_trees(medium_trees):
    return medium_trees


class TestService:
    def test_cpq_matches_direct_call(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=2) as service:
            response = service.execute(CPQRequest(pair="pair", k=7))
            assert response.status == STATUS_OK
            assert response.algorithm in ("naive", "exh", "sim",
                                          "std", "heap")
            direct = k_closest_pairs(
                tree_p,
                tree_q,
                request=CoreRequest(k=7, algorithm="heap"),
            )
            assert response.result.distances() == pytest.approx(
                direct.distances()
            )

    def test_planner_decision_lands_in_metrics(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            response = service.execute(CPQRequest(pair="pair", k=2))
            decisions = service.metrics.planner_decisions
            assert decisions.get(response.algorithm, 0) >= 1
            assert response.plan is not None
            assert response.plan.algorithm == response.algorithm

    def test_explicit_algorithm_skips_planner(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            response = service.execute(
                CPQRequest(pair="pair", k=3, algorithm="std")
            )
            assert response.status == STATUS_OK
            assert response.algorithm == "std"
            assert response.plan is None
            assert service.metrics.planner_decisions == {}

    def test_cache_hit_on_repeat(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            first = service.execute(CPQRequest(pair="pair", k=4))
            second = service.execute(CPQRequest(pair="pair", k=4))
            assert not first.cached
            assert second.cached
            assert second.result is first.result
            snap = service.snapshot()
            assert snap["cache"]["hits"] == 1

    def test_knn_and_range(self, service_trees):
        points_p, points_q, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=2) as service:
            knn = service.execute(
                KNNRequest(pair="pair", point=(0.5, 0.5), k=3)
            )
            assert knn.status == STATUS_OK
            expected = sorted(
                math.dist((0.5, 0.5), p) for p in points_p
            )[:3]
            assert [d for d, __ in knn.result] == pytest.approx(expected)

            window = service.execute(RangeRequest(
                pair="pair", lo=(0.2, 0.2), hi=(0.4, 0.4), side="q",
            ))
            assert window.status == STATUS_OK
            expected_count = sum(
                0.2 <= x <= 0.4 and 0.2 <= y <= 0.4
                for x, y in points_q
            )
            assert len(window.result) == expected_count

    def test_unknown_pair_is_error_response(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            response = service.execute(CPQRequest(pair="nope"))
            assert response.status == STATUS_ERROR
            assert "unknown pair" in response.error

    def test_worker_exception_becomes_error_response(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            response = service.execute(
                CPQRequest(pair="pair", algorithm="bogus")
            )
            assert response.status == STATUS_ERROR
            assert "bogus" in response.error
            follow_up = service.execute(CPQRequest(pair="pair", k=1))
            assert follow_up.status == STATUS_OK

    def test_closed_service_rejects(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        service = make_service(tree_p, tree_q, workers=1)
        service.close()
        response = service.execute(CPQRequest(pair="pair"))
        assert response.status == STATUS_REJECTED
        assert "closed" in response.error

    def test_close_drain_resolves_queued_queries(self, service_trees):
        # A single worker with a backlog: drain must block until every
        # admitted handle is resolved -- no caller left hanging.
        __, __, tree_p, tree_q = service_trees
        service = make_service(tree_p, tree_q, workers=1)
        handles = [
            service.submit(CPQRequest(
                pair="pair", k=3, algorithm="heap", use_cache=False,
            ))
            for __i in range(6)
        ]
        service.close(drain=True)
        assert all(handle.done() for handle in handles)
        assert [h.result(0).status for h in handles] == ["ok"] * 6


class TestDeadlines:
    def test_expired_deadline_returns_structured_response(
        self, service_trees
    ):
        """A ~0 ms deadline yields a deadline_exceeded response, not an
        exception, and the pool keeps serving afterwards."""
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            dead = service.execute(CPQRequest(
                pair="pair", k=5, deadline_ms=0.0, use_cache=False,
            ))
            assert dead.status == STATUS_DEADLINE
            assert dead.result is None
            alive = service.execute(CPQRequest(pair="pair", k=5))
            assert alive.status == STATUS_OK

    def test_cooperative_cancellation_mid_traversal(self):
        """A deadline expiring inside the traversal aborts it and
        leaves the buffer pool consistent."""
        import random

        rng = random.Random(7)
        points = [(rng.random(), rng.random()) for __ in range(600)]
        tree_p = bulk_load(points)
        tree_q = bulk_load([(rng.random(), rng.random())
                            for __ in range(600)])
        # Slow, tiny buffers: the query cannot finish inside 5 ms, but
        # it does get past admission and into the traversal.
        for tree in (tree_p, tree_q):
            tree.file.read_latency = 0.002
            tree.file.set_buffer_capacity(4)
        with make_service(tree_p, tree_q, workers=1) as service:
            response = service.execute(CPQRequest(
                pair="pair", k=3, deadline_ms=5.0, use_cache=False,
            ))
            assert response.status == STATUS_DEADLINE
            # Buffer pools are intact: bounded occupancy, and a fresh
            # run of the same query succeeds with correct results.
            for tree in (tree_p, tree_q):
                tree.file.read_latency = 0.0
                assert len(tree.file.buffer) <= tree.file.buffer.capacity
            retry = service.execute(CPQRequest(pair="pair", k=3))
            assert retry.status == STATUS_OK
            direct = k_closest_pairs(
                tree_p,
                tree_q,
                request=CoreRequest(k=3, algorithm="heap"),
            )
            assert retry.result.distances() == pytest.approx(
                direct.distances()
            )

    def test_default_deadline_applies(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(
            tree_p, tree_q, workers=1, default_deadline_ms=0.0
        ) as service:
            response = service.execute(
                CPQRequest(pair="pair", use_cache=False)
            )
            assert response.status == STATUS_DEADLINE


class TestAdmissionControl:
    def test_saturated_queue_rejects(self):
        import random

        rng = random.Random(11)
        tree_p = bulk_load([(rng.random(), rng.random())
                            for __ in range(300)])
        tree_q = bulk_load([(rng.random(), rng.random())
                            for __ in range(300)])
        # Make every query slow so the single worker stays busy.
        for tree in (tree_p, tree_q):
            tree.file.read_latency = 0.005
            tree.file.set_buffer_capacity(2)
        service = make_service(
            tree_p, tree_q, workers=1, queue_size=1, cache_size=0,
        )
        try:
            handles = [
                service.submit(CPQRequest(pair="pair", k=1 + i,
                                          use_cache=False))
                for i in range(12)
            ]
            responses = [h.result(timeout=60) for h in handles]
            statuses = {r.status for r in responses}
            assert STATUS_REJECTED in statuses
            rejected = [r for r in responses
                        if r.status == STATUS_REJECTED]
            assert all("queue full" in r.error for r in rejected)
            assert any(r.status == STATUS_OK for r in responses)
            snap = service.snapshot()
            assert snap["queries"]["by_status"][STATUS_REJECTED] == len(
                rejected
            )
        finally:
            service.close()


class TestSubmitBatch:
    def test_auto_requests_share_one_plan(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=2) as service:
            handles = service.submit_batch([
                CPQRequest(pair="pair", k=5, use_cache=False)
                for __ in range(6)
            ])
            responses = [h.result(timeout=60) for h in handles]
            assert all(r.status == STATUS_OK for r in responses)
            # One PlanDecision object, shared by the whole batch...
            assert len({id(r.plan) for r in responses}) == 1
            # ...but every execution still tallies its applied decision.
            algorithm = responses[0].algorithm
            assert service.metrics.planner_decisions[algorithm] == 6

    def test_distinct_k_plan_separately(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=2) as service:
            handles = service.submit_batch([
                CPQRequest(pair="pair", k=k, use_cache=False)
                for k in (2, 2, 9, 9)
            ])
            responses = [h.result(timeout=60) for h in handles]
            assert len({id(r.plan) for r in responses}) == 2

    def test_explicit_algorithm_not_preplanned(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            handles = service.submit_batch([
                CPQRequest(pair="pair", k=3, algorithm="std",
                           use_cache=False),
            ])
            response = handles[0].result(timeout=60)
            assert response.status == STATUS_OK
            assert response.plan is None

    def test_unknown_pair_still_resolves_as_error(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            handles = service.submit_batch([
                CPQRequest(pair="pair", k=2),
                CPQRequest(pair="nope", k=2),
            ])
            ok, bad = [h.result(timeout=60) for h in handles]
            assert ok.status == STATUS_OK
            assert bad.status == STATUS_ERROR
            assert "unknown pair" in bad.error


class TestExtensionAlgorithmsViaService:
    def test_semi_multiway_incremental_execute_and_cache(
        self, service_trees
    ):
        points_p, __, tree_p, tree_q = service_trees
        # A semi-join answers per point of P, not per K.
        expected_len = {"semi": len(points_p), "multiway": 4,
                        "incremental": 4}
        with make_service(tree_p, tree_q, workers=1) as service:
            for algorithm in ("semi", "multiway", "incremental"):
                first = service.execute(CPQRequest(
                    pair="pair", k=4, algorithm=algorithm,
                ))
                assert first.status == STATUS_OK, first.error
                assert len(first.result.pairs) == expected_len[algorithm]
                again = service.execute(CPQRequest(
                    pair="pair", k=4, algorithm=algorithm,
                ))
                assert again.cached
                assert again.result is first.result
            by_algo = service.snapshot()["latency_ms"]["by_algorithm"]
            assert {"semi", "multiway", "incremental"} <= set(by_algo)

    def test_incremental_matches_heap_distances(self, service_trees):
        __, __, tree_p, tree_q = service_trees
        with make_service(tree_p, tree_q, workers=1) as service:
            inc = service.execute(CPQRequest(
                pair="pair", k=5, algorithm="incremental",
                use_cache=False,
            ))
            heap = service.execute(CPQRequest(
                pair="pair", k=5, algorithm="heap", use_cache=False,
            ))
            assert inc.result.distances() == pytest.approx(
                heap.result.distances()
            )


class TestGenerationCounter:
    def test_insert_and_delete_bump_generation(self, small_tree):
        assert small_tree.generation == 0
        small_tree.insert((0.1, 0.2), 1)
        assert small_tree.generation == 1
        small_tree.insert((0.3, 0.4), 2)
        assert small_tree.generation == 2
        assert small_tree.delete((0.1, 0.2))
        assert small_tree.generation == 3
        # A miss does not bump.
        assert not small_tree.delete((9.9, 9.9))
        assert small_tree.generation == 3
