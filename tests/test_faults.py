"""Fault injection and resilience tests.

Exercises the whole resilience stack end to end: the deterministic
fault-injecting page store, the buffer pool's bounded retry, checksum
detection and healing of corrupt pages, and the service layer's
circuit breaker, load shedding and stale degraded serving (see
docs/RESILIENCE.md).
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.core import k_closest_pairs
from repro.core import api as core_api
from repro.errors import (
    PageCorruptionError,
    ServiceOverloadError,
    TransientIOError,
)
from repro.rtree.bulk import bulk_load
from repro.service import (
    CircuitBreaker,
    CPQRequest,
    QueryService,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.storage.buffer import RetryPolicy
from repro.storage.faults import (
    SCHEDULES,
    FaultPlan,
    FaultyPageStore,
    unwrap_tree_store,
    wrap_tree_store,
)
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore, MemoryPageStore

#: The paper's five two-tree algorithms, all of which must survive
#: transient fault schedules with byte-identical answers.
CORE_ALGORITHMS = ("naive", "exh", "sim", "std", "heap")

NO_SLEEP = RetryPolicy(sleep=lambda _s: None)


def run_cpq(tree_p, tree_q, k, algorithm):
    return k_closest_pairs(
        tree_p, tree_q,
        request=core_api.CPQRequest(k=k, algorithm=algorithm),
    )


def make_store(pages: int = 8, page_size: int = 1024,
               plan: FaultPlan = FaultPlan()):
    """A faulty store over ``pages`` distinct in-memory page images."""
    inner = MemoryPageStore(page_size)
    for i in range(pages):
        pid = inner.allocate()
        inner.write(pid, bytes([i % 251]) * page_size)
    return FaultyPageStore(inner, plan, sleep=lambda _s: None)


@pytest.fixture(scope="module")
def tree_pair():
    rng = random.Random(0xFA17)
    points_p = [(rng.random(), rng.random()) for __ in range(400)]
    points_q = [(rng.uniform(0.3, 1.3), rng.random()) for __ in range(350)]
    return bulk_load(points_p), bulk_load(points_q)


# ---------------------------------------------------------------------------
# Fault store determinism
# ---------------------------------------------------------------------------

class TestFaultStoreDeterminism:
    def trace(self, store, reads: int = 200):
        outcomes = []
        for i in range(reads):
            try:
                data = store.read(i % len(store.inner))
                outcomes.append(("ok", data[:4]))
            except TransientIOError:
                outcomes.append(("transient", None))
        return outcomes

    def test_same_seed_same_faults(self):
        plan = FaultPlan(seed=99, p_transient=0.3, p_bitflip=0.2)
        first = self.trace(make_store(plan=plan))
        second = self.trace(make_store(plan=plan))
        assert first == second

    def test_different_seed_different_faults(self):
        first = self.trace(
            make_store(plan=FaultPlan(seed=1, p_transient=0.5))
        )
        second = self.trace(
            make_store(plan=FaultPlan(seed=2, p_transient=0.5))
        )
        assert first != second

    def test_transient_streaks_bounded(self):
        plan = FaultPlan(seed=5, p_transient=0.9, max_consecutive=2)
        store = make_store(plan=plan)
        streak = worst = 0
        for __ in range(300):
            try:
                store.read(0)
                streak = 0
            except TransientIOError:
                streak += 1
                worst = max(worst, streak)
        assert 0 < worst <= 2

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(p_transient=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_consecutive=0)

    def test_schedules_are_survivable(self):
        # Every bundled schedule must leave headroom for the default
        # retry budget: streaks shorter than max_attempts.
        policy = RetryPolicy()
        for name, plan in SCHEDULES.items():
            assert plan.max_consecutive < policy.max_attempts, name


# ---------------------------------------------------------------------------
# Buffer pool retry and miss-path accounting
# ---------------------------------------------------------------------------

class TestBufferRetry:
    def test_fail_n_then_succeed_retries(self):
        store = make_store()
        sleeps = []
        file = PagedFile(
            store, buffer_capacity=4,
            retry_policy=RetryPolicy(sleep=sleeps.append),
        )
        store.fail_reads[3] = 2
        data = file.read_page(3)
        assert data == store.inner.read(3)
        assert file.stats.read_retries == 2
        assert file.stats.read_failures == 0
        assert file.stats.disk_reads == 1
        # Exponential backoff: each wait doubles (within the cap).
        assert sleeps == [
            pytest.approx(0.001), pytest.approx(0.002)
        ]

    def test_exhausted_retries_raise_typed_error(self):
        store = make_store()
        file = PagedFile(store, buffer_capacity=4, retry_policy=NO_SLEEP)
        store.fail_reads[2] = 10 ** 6
        with pytest.raises(TransientIOError):
            file.read_page(2)
        assert file.stats.read_failures == 1
        assert file.stats.read_retries == NO_SLEEP.max_attempts - 1

    def test_failed_miss_leaves_no_phantom_frame(self):
        """A miss that raises mid-load must not half-insert a frame or
        skew the hit/miss counters (satellite regression)."""
        store = make_store()
        file = PagedFile(store, buffer_capacity=4, retry_policy=NO_SLEEP)
        store.fail_reads[1] = 10 ** 6
        with pytest.raises(TransientIOError):
            file.read_page(1)
        assert file.stats.disk_reads == 0
        assert file.stats.buffer_hits == 0
        # Nothing admitted: the next successful read is a clean miss,
        # served from the store, then a genuine hit.
        store.fail_reads[1] = 0
        assert file.read_page(1) == store.inner.read(1)
        assert file.stats.disk_reads == 1
        assert file.read_page(1) == store.inner.read(1)
        assert file.stats.buffer_hits == 1

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ---------------------------------------------------------------------------
# Short reads and checksummed pages
# ---------------------------------------------------------------------------

class TestShortRead:
    def test_truncated_file_fails_loudly(self, tmp_path):
        path = str(tmp_path / "trunc.pages")
        store = FilePageStore(path, page_size=1024)
        for __ in range(3):
            store.write(store.allocate(), b"\xAB" * 1024)
        store.flush()
        # Lose the tail of the file out from under the open store.
        os.truncate(path, 1024 + 100)
        with pytest.raises(PageCorruptionError) as excinfo:
            store.read(2)
        message = str(excinfo.value)
        assert "page 2" in message
        assert "expected 1024" in message
        assert excinfo.value.page_id == 2
        store.close()

    def test_truncated_reopen_rejected(self, tmp_path):
        path = str(tmp_path / "reopen.pages")
        store = FilePageStore(path, page_size=1024)
        store.write(store.allocate(), b"\xCD" * 1024)
        store.flush()
        store.close()
        os.truncate(path, 512)
        with pytest.raises(ValueError):
            FilePageStore(path, page_size=1024)


class TestChecksumHealing:
    def corrupt(self, page: bytes, bit: int) -> bytes:
        image = bytearray(page)
        image[bit // 8] ^= 1 << (bit % 8)
        return bytes(image)

    def test_wire_flip_heals_via_reread(self, tree_pair):
        """Corruption only in the buffered copy (a flipped bit on the
        wire) is detected by the checksum and healed by re-reading the
        intact stored page."""
        tree, __ = tree_pair
        root = tree.root_id
        clean = tree.file.store.read(root)
        expected = tree.read_node(root).entries
        tree._nodes.clear()
        tree.file.set_buffer_capacity(8)
        tree.file.stats.reset()
        try:
            # Poison the buffer frame; the store still holds clean
            # bytes, so the checksum-triggered re-read heals.
            tree.file.buffer.put(root, self.corrupt(clean, 777))
            node = tree.read_node(root)
            assert tree.stats.corrupt_reads == 1
            assert node.entries == expected
        finally:
            tree.file.set_buffer_capacity(0)
            tree._nodes.clear()

    def test_persistent_flip_raises_corruption(self, tree_pair):
        """At-rest damage survives the re-read: the checksum must
        surface it as PageCorruptionError, never a wrong node."""
        tree, __ = tree_pair
        wrapper = wrap_tree_store(tree, FaultPlan())
        try:
            wrapper.flip_bit(tree.root_id, bit_index=2049)
            with pytest.raises(PageCorruptionError):
                tree.read_node(tree.root_id)
            assert tree.stats.corrupt_reads >= 1
        finally:
            # Heal the stored image before handing the tree back.
            wrapper.flip_bit(tree.root_id, bit_index=2049)
            unwrap_tree_store(tree)
        assert tree.read_node(tree.root_id) is not None


# ---------------------------------------------------------------------------
# Byte-identical answers under injected faults (acceptance)
# ---------------------------------------------------------------------------

class TestFaultedQueriesMatchBaseline:
    @pytest.mark.parametrize("algorithm", CORE_ALGORITHMS)
    def test_transient_schedule_identical_results(
        self, tree_pair, algorithm
    ):
        tree_p, tree_q = tree_pair
        baseline = run_cpq(tree_p, tree_q, 10, algorithm)
        wrapper_p = wrap_tree_store(
            tree_p, FaultPlan(seed=7, p_transient=0.05),
            sleep=lambda _s: None,
        )
        wrapper_q = wrap_tree_store(
            tree_q, FaultPlan(seed=8, p_transient=0.05),
            sleep=lambda _s: None,
        )
        try:
            faulted = run_cpq(tree_p, tree_q, 10, algorithm)
            retries = (tree_p.stats.read_retries
                       + tree_q.stats.read_retries)
        finally:
            unwrap_tree_store(tree_p)
            unwrap_tree_store(tree_q)
        assert faulted.pairs == baseline.pairs
        injected = (wrapper_p.faults.transient_raised
                    + wrapper_q.faults.transient_raised)
        assert injected > 0, "schedule injected nothing; test is vacuous"
        # Every injected transient surfaced as a counted retry.
        assert retries == injected

    def test_mixed_schedule_identical_results(self, tree_pair):
        tree_p, tree_q = tree_pair
        baseline = run_cpq(tree_p, tree_q, 5, "heap")
        plan = SCHEDULES["mixed"]
        wrap_tree_store(tree_p, plan, sleep=lambda _s: None)
        wrap_tree_store(tree_q, plan, sleep=lambda _s: None)
        try:
            faulted = run_cpq(tree_p, tree_q, 5, "heap")
        finally:
            unwrap_tree_store(tree_p)
            unwrap_tree_store(tree_q)
        assert faulted.pairs == baseline.pairs


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def make(self, threshold=3, timeout=10.0):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=threshold, reset_timeout_s=timeout,
            clock=lambda: now[0],
        )
        return breaker, now

    def test_opens_after_consecutive_failures(self):
        breaker, __ = self.make(threshold=3)
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_success_resets_failure_run(self):
        breaker, __ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_single_probe(self):
        breaker, now = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()          # the probe
        assert not breaker.allow()      # everyone else waits
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker, now = self.make(threshold=1, timeout=5.0)
        breaker.record_failure()
        now[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 2
        now[0] = 9.0
        assert not breaker.allow()
        now[0] = 10.0
        assert breaker.allow()

    def test_success_while_open_ignored(self):
        # A slow query admitted before the breaker opened must not
        # re-close it mid-storm, bypassing the reset timeout.
        breaker, now = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        breaker.record_success()
        assert breaker.state == OPEN
        assert not breaker.allow()
        now[0] = 10.0
        assert breaker.allow()          # probe only after the timeout

    def test_release_probe_frees_slot(self):
        breaker, now = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()          # the probe
        assert not breaker.allow()
        # Probe died of a non-storage error: no verdict, slot returned.
        breaker.release_probe()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()          # a new probe may proceed

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=0.0)


# ---------------------------------------------------------------------------
# Service resilience: shedding, breaker integration, stale serving
# ---------------------------------------------------------------------------

class TestServiceResilience:
    def open_breaker(self, service, tree, pair_name="pair"):
        """Drive the pair's breaker open with unretryable faults."""
        wrapper = wrap_tree_store(tree, FaultPlan(), sleep=lambda _s: None)
        wrapper.fail_reads = {pid: 10 ** 6 for pid in range(10 ** 4)}
        tree.file.buffer.retry_policy = NO_SLEEP
        threshold = service._pairs[pair_name].breaker.failure_threshold
        for __ in range(threshold):
            service.execute(CPQRequest(pair=pair_name, k=2,
                                       use_cache=False))
        return wrapper

    def test_storage_faults_open_breaker_and_count(self, tree_pair):
        tree_p, tree_q = tree_pair
        service = QueryService(
            workers=1,
            breaker_factory=lambda: CircuitBreaker(failure_threshold=2),
        )
        service.register_pair("pair", tree_p, tree_q)
        try:
            self.open_breaker(service, tree_p)
            pair = service._pairs["pair"]
            assert pair.breaker.state == OPEN
            snapshot = service.snapshot()
            faults = snapshot["resilience"]["storage_faults"]
            assert faults.get("TransientIOError", 0) >= 2
        finally:
            unwrap_tree_store(tree_p)
            service.close()

    def test_open_breaker_serves_stale_or_unavailable(self, tree_pair):
        tree_p, tree_q = tree_pair
        service = QueryService(
            workers=1,
            breaker_factory=lambda: CircuitBreaker(failure_threshold=2),
        )
        service.register_pair("pair", tree_p, tree_q)
        try:
            good = service.execute(CPQRequest(pair="pair", k=3))
            assert good.status == STATUS_OK and not good.stale
            self.open_breaker(service, tree_p)
            # Drop the fresh entries, as a generation bump would; the
            # last-known-good stock must survive.
            service.cache.invalidate_pair("pair")
            stale = service.execute(CPQRequest(pair="pair", k=3))
            assert stale.status == STATUS_OK
            assert stale.stale and stale.cached
            assert stale.result.pairs == good.result.pairs
            # No stale stock for parameters never answered -> refuse.
            missing = service.execute(CPQRequest(pair="pair", k=31))
            assert missing.status == STATUS_UNAVAILABLE
            snapshot = service.snapshot()
            assert snapshot["resilience"]["stale_served"] == 1
            assert snapshot["resilience"]["breaker_rejections"] >= 2
        finally:
            unwrap_tree_store(tree_p)
            service.close()

    def test_nonstorage_probe_failure_does_not_wedge_breaker(
        self, tree_pair
    ):
        # Regression: a half-open probe that dies of a request-shaped
        # error (or deadline expiry) must release the probe slot.
        # Before the fix the breaker stayed half-open with the slot
        # taken forever, rejecting every future request.
        tree_p, tree_q = tree_pair
        now = [0.0]
        service = QueryService(
            workers=1,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_timeout_s=5.0,
                clock=lambda: now[0],
            ),
        )
        service.register_pair("pair", tree_p, tree_q)
        try:
            self.open_breaker(service, tree_p)
            assert service._pairs["pair"].breaker.state == OPEN
            unwrap_tree_store(tree_p)   # storage is healthy again
            now[0] = 5.0                # reset timeout elapsed
            # The probe request fails for request-shaped reasons that
            # say nothing about storage health.
            probe = service.execute(CPQRequest(
                pair="pair", k=2, algorithm="bogus", use_cache=False,
            ))
            assert probe.status == STATUS_ERROR
            # The slot was released: the next request probes, succeeds,
            # and closes the breaker.
            good = service.execute(CPQRequest(pair="pair", k=2,
                                              use_cache=False))
            assert good.status == STATUS_OK
            assert service._pairs["pair"].breaker.state == CLOSED
        finally:
            unwrap_tree_store(tree_p)
            service.close()

    def test_reregistering_pair_drops_stale_stock(self, tree_pair):
        # Regression: re-registering a name with different trees must
        # drop the generation-less last-known-good stock, or breaker-
        # open degraded serving could answer from the *old* trees.
        tree_p, tree_q = tree_pair
        service = QueryService(workers=1)
        service.register_pair("pair", tree_p, tree_q)
        try:
            request = CPQRequest(pair="pair", k=3)
            assert service.execute(request).status == STATUS_OK
            found, __ = service.cache.get_stale(
                "pair", request.cache_params()
            )
            assert found
            other = bulk_load([(float(i), float(i)) for i in range(40)])
            service.register_pair("pair", other, other)
            found, __ = service.cache.get_stale(
                "pair", request.cache_params()
            )
            assert not found
        finally:
            service.close()

    def test_shedding_at_queue_threshold(self, tree_pair):
        tree_p, tree_q = tree_pair
        release = threading.Event()
        service = QueryService(workers=1, shed_threshold=1)
        service.register_pair("pair", tree_p, tree_q)
        # Block the single worker deterministically: every read of
        # tree_p waits on the release event via a latency fault.
        wrapper = wrap_tree_store(
            tree_p, FaultPlan(p_latency=1.0),
            sleep=lambda _s: release.wait(10.0),
        )
        try:
            blocker = service.submit(CPQRequest(pair="pair", k=2,
                                                use_cache=False))
            # Wait until the single worker has dequeued the blocker
            # (and is parked inside the faulted read), so the next
            # submit is the only queued entry.
            deadline = time.monotonic() + 5.0
            while service._queue.qsize() > 0:
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.005)
            queued = service.submit(CPQRequest(pair="pair", k=3,
                                               use_cache=False))
            # Worker busy, one request queued: depth >= threshold.
            shed = service.submit(CPQRequest(pair="pair", k=4,
                                             use_cache=False))
            response = shed.result(timeout=1.0)
            assert response.status == STATUS_OVERLOADED
            assert "overloaded" in response.error
            release.set()
            assert blocker.result(timeout=30.0).status == STATUS_OK
            assert queued.result(timeout=30.0).status == STATUS_OK
            assert service.snapshot()["resilience"]["shed"] == 1
        finally:
            release.set()
            unwrap_tree_store(tree_p)
            service.close()

    def test_shed_threshold_validation(self):
        with pytest.raises(ValueError):
            QueryService(shed_threshold=0)

    def test_overload_error_is_typed(self):
        error = ServiceOverloadError(9, 8)
        assert error.queue_depth == 9
        assert error.threshold == 8
        assert "overloaded" in str(error)

    def test_read_retries_surface_in_response_and_metrics(
        self, tree_pair
    ):
        tree_p, tree_q = tree_pair
        service = QueryService(workers=1)
        service.register_pair("pair", tree_p, tree_q)
        wrapper = wrap_tree_store(
            tree_p, FaultPlan(seed=3, p_transient=0.2),
            sleep=lambda _s: None,
        )
        tree_p.file.buffer.retry_policy = NO_SLEEP
        try:
            response = service.execute(
                CPQRequest(pair="pair", k=5, use_cache=False)
            )
            assert response.status == STATUS_OK
            assert response.read_retries > 0
            assert (service.snapshot()["io"]["read_retries"]
                    == response.read_retries)
        finally:
            unwrap_tree_store(tree_p)
            service.close()
