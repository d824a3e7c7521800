"""The shard tier's promise: byte-identical results, survivable shards.

:class:`~repro.net.shard.ShardManager` must return exactly the pairs
-- values AND tie order -- of the serial engine at every shard count,
for every shardable algorithm, including adversarial all-equal and
coincident-grid data where tie order is the whole answer.  The
failure half of the contract: lost shards either recover exactly
(coordinator re-execution) or are flagged partial, breakers gate sick
shards out of the scatter set, dead processes respawn, and nothing
here may leak a half-open probe slot.
"""

import random

import pytest

from repro.core.api import CPQRequest, k_closest_pairs
from repro.net.shard import ShardManager, TreeSpec, tree_spec
from repro.rtree.bulk import bulk_load
from repro.service import CPQRequest as ServiceCPQ, QueryService
from repro.service.breaker import CircuitBreaker
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore

ALGORITHMS = ("naive", "exh", "sim", "std", "heap")


def _file_tree(tmp_path, name, points):
    store = FilePageStore(str(tmp_path / name), page_size=1024)
    return bulk_load(points, file=PagedFile(store, page_size=1024))


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """File-backed random trees plus serial answers per algorithm."""
    tmp = tmp_path_factory.mktemp("shard-clustered")
    rng = random.Random(7)
    tree_p = _file_tree(
        tmp, "p.pages",
        [(rng.random(), rng.random()) for __ in range(250)],
    )
    tree_q = _file_tree(
        tmp, "q.pages",
        [(rng.random(), rng.random()) for __ in range(250)],
    )
    serial = {
        algorithm: k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=10, algorithm=algorithm),
        )
        for algorithm in ALGORITHMS
    }
    return tree_spec(tree_p), tree_spec(tree_q), serial


@pytest.fixture(scope="module")
def adversarial(tmp_path_factory):
    """Every candidate pair at distance 1.0, persisted so shards can
    reopen it."""
    tmp = tmp_path_factory.mktemp("shard-ties")
    tree_p = _file_tree(tmp, "p.pages", [(0.0, 0.0)] * 60)
    tree_q = _file_tree(tmp, "q.pages", [(1.0, 0.0)] * 60)
    serial = {
        algorithm: k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=25, algorithm=algorithm),
        )
        for algorithm in ALGORITHMS
    }
    return tree_spec(tree_p), tree_spec(tree_q), serial


@pytest.fixture(scope="module")
def coincident(tmp_path_factory):
    """An 8 x 8 grid joined with itself: 64 pairs at distance 0, more
    than K = 40, so tie order decides every rank."""
    tmp = tmp_path_factory.mktemp("shard-grid")
    grid = [(float(i), float(j)) for i in range(8) for j in range(8)]
    tree_p = _file_tree(tmp, "p.pages", grid)
    tree_q = _file_tree(tmp, "q.pages", grid)
    serial = {
        algorithm: k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=40, algorithm=algorithm),
        )
        for algorithm in ("heap", "std")
    }
    return tree_spec(tree_p), tree_spec(tree_q), serial


class TestShardParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_identical_to_serial(self, clustered, shards):
        spec_p, spec_q, serial = clustered
        with ShardManager(spec_p, spec_q, shards=shards) as manager:
            for algorithm in ALGORITHMS:
                sharded = manager.execute(
                    CPQRequest(k=10, algorithm=algorithm)
                )
                # Identical pairs in identical order, per algorithm.
                assert sharded.pairs == serial[algorithm].pairs
                net = sharded.stats.extra["net"]
                assert net["shards"] == shards
                assert net["failed_shards"] == []
                assert net["partial"] is False

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_all_equal_distance_ties(self, adversarial, shards):
        spec_p, spec_q, serial = adversarial
        with ShardManager(spec_p, spec_q, shards=shards) as manager:
            for algorithm in ALGORITHMS:
                sharded = manager.execute(
                    CPQRequest(k=25, algorithm=algorithm)
                )
                assert sharded.distances() == [1.0] * 25
                # Tie order is the whole answer here.
                assert sharded.pairs == serial[algorithm].pairs

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_coincident_grids(self, coincident, shards):
        spec_p, spec_q, serial = coincident
        with ShardManager(spec_p, spec_q, shards=shards) as manager:
            for algorithm, expected in serial.items():
                sharded = manager.execute(
                    CPQRequest(k=40, algorithm=algorithm)
                )
                assert sharded.pairs == expected.pairs

    def test_shard_io_accounted(self, clustered):
        spec_p, spec_q, serial = clustered
        with ShardManager(spec_p, spec_q, shards=2) as manager:
            result = manager.execute(CPQRequest(k=10, algorithm="heap"))
            net = result.stats.extra["net"]
            assert net["tasks"] > 0
            assert net["shard_io"]["disk_reads"] > 0


class TestFailureSemantics:
    def _slow_specs(self, clustered):
        """Shard-side reopen specs in the disk-bound regime: cold
        buffers plus per-miss latency, so shard jobs reliably outlast
        a sub-poll gather timeout."""
        spec_p, spec_q, __ = clustered
        slow_p = TreeSpec(spec_p.path, spec_p.page_size, spec_p.metadata,
                          buffer_capacity=0, read_latency=0.02)
        slow_q = TreeSpec(spec_q.path, spec_q.page_size, spec_q.metadata,
                          buffer_capacity=0, read_latency=0.02)
        return slow_p, slow_q

    def test_timeout_recovers_exactly(self, clustered):
        __, __, serial = clustered
        slow_p, slow_q = self._slow_specs(clustered)
        with ShardManager(slow_p, slow_q, shards=2,
                          shard_timeout_s=0.0) as manager:
            result = manager.execute(CPQRequest(k=10, algorithm="heap"))
            net = result.stats.extra["net"]
            assert net["failed_shards"] == [0, 1]
            assert net["recovered_chunks"] == 2
            assert net["partial"] is False
            # Recovery is exact: coordinator re-ran the lost chunks.
            assert result.pairs == serial["heap"].pairs
            health = manager.health()
            assert all(entry["failures"] >= 1 for entry in health)

    def test_timeout_partial_mode_flags(self, clustered):
        slow_p, slow_q = self._slow_specs(clustered)
        with ShardManager(slow_p, slow_q, shards=2, shard_timeout_s=0.0,
                          on_failure="partial") as manager:
            result = manager.execute(CPQRequest(k=10, algorithm="heap"))
            net = result.stats.extra["net"]
            assert net["partial"] is True
            assert net["failed_shards"] == [0, 1]
            assert net["recovered_chunks"] == 0

    def test_dead_shard_respawns(self, clustered):
        spec_p, spec_q, serial = clustered
        with ShardManager(spec_p, spec_q, shards=2) as manager:
            victim = manager._shards[0]
            victim.process.terminate()
            victim.process.join(5.0)
            assert not victim.alive
            result = manager.execute(CPQRequest(k=10, algorithm="std"))
            assert result.pairs == serial["std"].pairs
            assert result.stats.extra["net"]["failed_shards"] == []
            assert all(e["alive"] for e in manager.health())

    def test_open_breakers_fall_back_locally(self, clustered):
        spec_p, spec_q, serial = clustered
        factory = lambda: CircuitBreaker(  # noqa: E731
            failure_threshold=1, reset_timeout_s=3600.0
        )
        with ShardManager(spec_p, spec_q, shards=2,
                          breaker_factory=factory) as manager:
            for shard in manager._shards:
                shard.breaker.record_failure()
            assert all(e["breaker"] == "open" for e in manager.health())
            result = manager.execute(CPQRequest(k=10, algorithm="sim"))
            net = result.stats.extra["net"]
            assert net["shards"] == 0
            assert net["local_fallback"] is True
            # Exact answer, no shard involved at all.
            assert result.pairs == serial["sim"].pairs

    def test_requires_file_backed_trees(self):
        tree = bulk_load([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="file-backed"):
            tree_spec(tree)

    def test_rejects_unshardable_algorithm(self, clustered):
        spec_p, spec_q, __ = clustered
        with ShardManager(spec_p, spec_q, shards=1) as manager:
            with pytest.raises(ValueError, match="not shardable"):
                manager.execute(CPQRequest(k=1, algorithm="self"))

    def test_validates_construction(self, clustered):
        spec_p, spec_q, __ = clustered
        with pytest.raises(ValueError, match="shards"):
            ShardManager(spec_p, spec_q, shards=0)
        with pytest.raises(ValueError, match="on_failure"):
            ShardManager(spec_p, spec_q, on_failure="retry")


class TestServiceIntegration:
    def test_executor_declines_other_pairs_and_algorithms(self, clustered):
        spec_p, spec_q, __ = clustered
        with ShardManager(spec_p, spec_q, shards=1,
                          pair="mine") as manager:
            executor = manager.service_executor()
            request = CPQRequest(k=1, algorithm="heap")
            assert executor("other", None, None, request,
                            None, None) is None
            unshardable = CPQRequest(k=1, algorithm="self")
            assert executor("mine", None, None, unshardable,
                            None, None) is None

    def test_partial_response_through_service(self, clustered):
        """The partial flag travels: shard loss -> stats.extra ->
        QueryResponse.partial -> metrics -- and is never cached."""
        slow = TestFailureSemantics()._slow_specs(clustered)
        manager = ShardManager(slow[0], slow[1], shards=2,
                               shard_timeout_s=0.0,
                               on_failure="partial")
        service = QueryService(
            workers=1, cpq_executor=manager.service_executor()
        )
        try:
            service.register_pair(
                "default", manager.tree_p, manager.tree_q
            )
            request = ServiceCPQ(pair="default", k=5, algorithm="heap")
            first = service.execute(request)
            assert first.status == "ok"
            assert first.partial is True
            assert first.cached is False
            # Partial results must not be served from cache later.
            second = service.execute(request)
            assert second.cached is False
            resilience = service.metrics.snapshot()["resilience"]
            assert resilience["partial_responses"] == 2
        finally:
            service.close(drain=True)
            manager.close()
