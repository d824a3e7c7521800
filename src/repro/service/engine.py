"""Concurrent query service over registered R-tree pairs.

:class:`QueryService` turns the one-shot query functions of this
library into a servable system: requests (K-CPQ, K-NN, range) are
admitted onto a bounded queue, executed by a pool of worker threads,
answered from a generation-keyed result cache when possible, routed to
an algorithm by the cost-model planner, and observed end to end by
:class:`~repro.service.metrics.ServiceMetrics`.

Design points:

* **Admission control** -- the request queue is bounded; a submit
  against a full queue resolves immediately with a structured
  ``rejected`` response instead of blocking the caller.
* **Deadlines** -- every request may carry ``deadline_ms`` (measured
  from admission, so queue wait counts).  K-CPQ execution checks the
  deadline cooperatively once per visited node pair via the
  ``cancel_check`` hook threaded through :mod:`repro.core.engine`; an
  expired query resolves with a ``deadline_exceeded`` response and
  leaves trees and buffer pools consistent (the traversal only reads).
* **No exception escapes the pool** -- worker errors become ``error``
  responses carrying the exception text.
* **Mutations** -- every execution pins both trees' *committed
  snapshots* (:meth:`repro.rtree.tree.RTree.pin`) for its duration
  and reads through :class:`~repro.storage.snapshot.SnapshotView`
  proxies, so the whole query sees one consistent generation per
  tree.  Cache keys embed the pinned (committed) generations; a
  commit landing mid-query does not disturb the running traversal
  and is noticed by the next one, which drops the pair's stale cache
  entries and re-shapes the trees for the planner.  On trees with
  live mutation enabled (:meth:`~repro.rtree.tree.RTree.
  enable_live_mutation`) writers may therefore commit batches while
  queries are in flight; on plain trees pinning degrades to an
  unpinned peek and the old quiesce-first rule still applies.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.cost_model import TreeShape
from repro.core import api as core_api
from repro.core.api import (
    ALGORITHM_REGISTRY,
    ALGORITHMS,
    DeadlineExceeded,
    k_closest_pairs,
)
from repro.core.constraints import ColorSpec, RangeSpec
from repro.core.height import FIX_AT_ROOT
from repro.errors import (
    ServiceOverloadError,
    StorageError,
    UnsupportedCapabilityError,
)
from repro.geometry.mbr import MBR
from repro.obs.trace import NULL_TRACER
from repro.query.cpql import ParsedQuery, parse_cpql
from repro.query.knn import nearest_neighbors
from repro.query.range_query import range_query
from repro.rtree.tree import RTree
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache, cache_key
from repro.service.metrics import ServiceMetrics
from repro.service.planner import PlanDecision, Planner

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_ERROR = "error"
#: Shed at admission: queue depth reached the shedding threshold.
STATUS_OVERLOADED = "overloaded"
#: Refused at execution: the pair's circuit breaker is open and no
#: stale result was available to degrade onto.
STATUS_UNAVAILABLE = "unavailable"
#: The request itself is invalid -- most prominently a capability
#: mismatch (:class:`repro.errors.UnsupportedCapabilityError`): a
#: range window or color predicate demanded from an algorithm whose
#: registry entry does not declare it.  The network edge maps this to
#: HTTP 400.
STATUS_BAD_REQUEST = "bad_request"


class ServiceClosed(RuntimeError):
    """Raised when submitting to a closed service."""


# ---------------------------------------------------------------------------
# Requests and responses
# ---------------------------------------------------------------------------

def _as_point(values: Sequence[float]) -> Tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class CPQRequest:
    """K closest pairs between the two trees of a registered pair.

    The service-level request adds routing concerns (``pair``,
    ``algorithm="auto"``, ``deadline_ms``, ``use_cache``) on top of the
    core query parameters; :meth:`to_query` projects it onto one
    :class:`repro.core.CPQRequest`, which is what execution and the
    cache key consume.
    """

    kind: ClassVar[str] = "cpq"

    pair: str
    k: int = 1
    #: ``"auto"`` delegates to the planner; any of
    #: :data:`repro.core.api.ALGORITHMS` forces that algorithm.
    algorithm: str = "auto"
    deadline_ms: Optional[float] = None
    use_cache: bool = True
    height_strategy: str = FIX_AT_ROOT
    #: Anything ``TieBreak.parse`` accepts (criterion names, chains).
    tie_break: Optional[object] = None
    maxmax_pruning: bool = True
    #: Pin both trees' committed snapshots for the duration of the
    #: execution (the default).  A pinned query reads one consistent
    #: generation per tree even while writers commit batches; pages it
    #: can reach are not reclaimed until it releases.  ``False`` reads
    #: the live tree state unpinned -- only safe when nothing mutates
    #: concurrently.  Execution-only: not part of the cache key (the
    #: key already embeds the committed generations).
    pin_snapshot: bool = True
    #: Optional range window (:class:`repro.core.constraints.RangeSpec`
    #: or a bare ``(lo, hi)`` tuple) restricting reported pairs, and
    #: optional color predicates (:class:`~repro.core.constraints.
    #: ColorSpec`, a dict of its fields, or a bare modulus int).
    #: Capability validation happens when the request projects onto the
    #: core query: a forced algorithm without the matching flag raises
    #: :class:`~repro.errors.UnsupportedCapabilityError`, answered as
    #: ``bad_request``; ``"auto"`` plans a capable algorithm.
    range: Optional[RangeSpec] = None
    colors: Optional[ColorSpec] = None

    def __post_init__(self) -> None:
        # Normalise to the canonical frozen specs up front, so cache
        # keys, plans and wire payloads all see one identity.
        if self.range is not None and not isinstance(self.range, RangeSpec):
            lo, hi = self.range
            object.__setattr__(self, "range", RangeSpec(tuple(lo), tuple(hi)))
        if self.colors is not None and not isinstance(self.colors, ColorSpec):
            if isinstance(self.colors, dict):
                object.__setattr__(self, "colors", ColorSpec(**self.colors))
            else:
                object.__setattr__(
                    self, "colors", ColorSpec(modulus=int(self.colors))
                )

    def to_query(
        self, algorithm: Optional[str] = None
    ) -> core_api.CPQRequest:
        """The core query this request describes.

        ``algorithm`` substitutes the planner's choice for ``"auto"``.
        ``reset_stats`` is always off: the service accounts I/O itself
        and keeps buffers warm across requests.
        """
        return core_api.CPQRequest(
            k=self.k,
            algorithm=algorithm if algorithm is not None else self.algorithm,
            height_strategy=self.height_strategy,
            tie_break=self.tie_break,
            maxmax_pruning=self.maxmax_pruning,
            reset_stats=False,
            range=self.range,
            colors=self.colors,
        )

    def cache_params(self) -> Tuple:
        # The core request's own result-identity key, with one
        # substitution: "auto" requests are keyed on "auto" rather than
        # the planner's pick (decisions are deterministic per
        # generation, and the cache is invalidated on mutation).
        template = self.to_query(
            "heap" if self.algorithm == "auto" else self.algorithm
        )
        key = list(template.cache_key())
        key[1] = self.algorithm
        return (self.kind, *key)


@dataclass(frozen=True)
class KNNRequest:
    """K nearest neighbours of a point in one side of a pair."""

    kind: ClassVar[str] = "knn"

    pair: str
    point: Tuple[float, ...]
    k: int = 1
    #: Which tree of the pair to search: ``"p"`` or ``"q"``.
    side: str = "p"
    deadline_ms: Optional[float] = None
    use_cache: bool = True

    def __post_init__(self):
        object.__setattr__(self, "point", _as_point(self.point))

    def cache_params(self) -> Tuple:
        return (self.kind, self.side, self.point, self.k)


@dataclass(frozen=True)
class RangeRequest:
    """All points of one side of a pair inside a window."""

    kind: ClassVar[str] = "range"

    pair: str
    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    side: str = "p"
    deadline_ms: Optional[float] = None
    use_cache: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_point(self.lo))
        object.__setattr__(self, "hi", _as_point(self.hi))

    def cache_params(self) -> Tuple:
        return (self.kind, self.side, self.lo, self.hi)


Request = Union[CPQRequest, KNNRequest, RangeRequest]


@dataclass
class QueryResponse:
    """The structured outcome of one request (any status)."""

    status: str
    kind: str
    #: ``CPQResult`` for cpq; list of ``(distance, LeafEntry)`` for
    #: knn; list of ``LeafEntry`` for range.  ``None`` unless ``ok``.
    #: Shared with the cache on hits -- treat as immutable.
    result: Any = None
    algorithm: Optional[str] = None
    plan: Optional[PlanDecision] = None
    cached: bool = False
    #: True when this is a last-known-good cache entry served while the
    #: pair's circuit breaker was open; it may predate tree mutations.
    stale: bool = False
    #: True when a sharded execution lost one or more shards and the
    #: result covers only the surviving partitions (see
    #: ``docs/NETWORK.md``).  Always False for in-process execution
    #: and for sharded runs that recovered the lost work.
    partial: bool = False
    latency_ms: float = 0.0
    disk_reads: int = 0
    buffer_hits: int = 0
    #: Transient-read retries the buffer pool spent on this query
    #: (subject to the same concurrency caveat as ``disk_reads``).
    read_retries: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class PendingQuery:
    """Caller-side handle to an admitted (or rejected) request."""

    def __init__(self, request: Request, deadline: Optional[float]):
        self.request = request
        self.deadline = deadline
        self.admitted_at = time.monotonic()
        #: A :class:`PlanDecision` computed ahead of execution by
        #: :meth:`QueryService.submit_batch`, so a batch of "auto"
        #: queries against one pair plans once, not once per query.
        self.preplanned: Optional[PlanDecision] = None
        self._event = threading.Event()
        self._response: Optional[QueryResponse] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block until the response is ready."""
        if not self._event.wait(timeout):
            raise TimeoutError("query still pending")
        assert self._response is not None
        return self._response

    def _resolve(self, response: QueryResponse) -> None:
        self._response = response
        self._event.set()


class _RegisteredPair:
    """Service-side state of one (tree_p, tree_q) registration."""

    __slots__ = ("name", "tree_p", "tree_q", "lock", "shapes",
                 "seen_generations", "breaker")

    def __init__(self, name: str, tree_p: RTree, tree_q: RTree,
                 breaker: Optional[CircuitBreaker] = None):
        self.name = name
        self.tree_p = tree_p
        self.tree_q = tree_q
        self.lock = threading.Lock()
        #: Storage-scoped circuit breaker; tripped by StorageError
        #: executions against this pair only.
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: ``(shape_p, shape_q)`` for the planner, or None before the
        #: first CPQ / after a mutation.  A shape is itself None when
        #: the cost model cannot describe the tree.
        self.shapes: Optional[Tuple] = None
        self.seen_generations = (tree_p.generation, tree_q.generation)

    def buffer_pages(self) -> int:
        return (self.tree_p.file.buffer.capacity
                + self.tree_q.file.buffer.capacity)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class QueryService:
    """Thread-pooled query execution over registered tree pairs.

    Parameters
    ----------
    workers:
        Worker thread count.
    queue_size:
        Admission bound; submits beyond it are rejected, not queued.
    cache_size:
        Result-cache capacity (0 disables caching).
    default_deadline_ms:
        Deadline applied to requests that do not carry their own
        (milliseconds, measured from admission so queue wait counts).
    planner:
        Algorithm-selection policy; a default :class:`Planner` when
        omitted.
    metrics:
        Metrics sink shared across services if desired; a fresh
        :class:`ServiceMetrics` when omitted.
    tracer:
        A :class:`repro.obs.Tracer` to record every executed request
        as a span tree (``request`` -> ``plan`` -> ``traverse`` ->
        ``heap`` / ``io.p`` / ``io.q``) and fold per-span rollups into
        the metrics snapshot.  ``None`` (the default) disables tracing
        with zero hot-path cost.
    shed_threshold:
        Queue depth at which admission starts *shedding*: submits
        arriving while ``qsize() >= shed_threshold`` resolve
        immediately as ``overloaded`` (typed via
        :class:`repro.errors.ServiceOverloadError`) instead of joining
        the queue.  Must be <= ``queue_size`` to ever matter before
        hard rejection.  ``None`` (the default) disables shedding.
    breaker_factory:
        Builds the per-pair :class:`~repro.service.breaker.
        CircuitBreaker` at registration; defaults to
        ``CircuitBreaker()`` (5 consecutive storage failures open it
        for 30 s).  Inject a factory to tune thresholds or the clock.
    cpq_executor:
        Optional CPQ execution override, called as
        ``cpq_executor(pair_name, tree_p, tree_q, core_request,
        cancel_check, tracer)``.  Returning a
        :class:`~repro.core.result.CPQResult` substitutes for the
        in-process :func:`~repro.core.api.k_closest_pairs` call;
        returning ``None`` declines (unshardable algorithm, unknown
        pair) and execution falls through to the in-process path.
        This is how the network tier routes CPQ execution through a
        :class:`~repro.net.shard.ShardManager` while keeping the
        service's cache, planner, metrics and per-pair breaker in the
        loop.
    """

    def __init__(
        self,
        workers: int = 4,
        queue_size: int = 64,
        cache_size: int = 128,
        default_deadline_ms: Optional[float] = None,
        planner: Optional[Planner] = None,
        metrics: Optional[ServiceMetrics] = None,
        tracer=None,
        shed_threshold: Optional[int] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        cpq_executor: Optional[Callable] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if shed_threshold is not None and shed_threshold < 1:
            raise ValueError("shed_threshold must be >= 1")
        self.shed_threshold = shed_threshold
        self._breaker_factory = (
            breaker_factory if breaker_factory is not None
            else CircuitBreaker
        )
        self._cpq_executor = cpq_executor
        self.default_deadline_ms = default_deadline_ms
        self.planner = planner if planner is not None else Planner()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cache = ResultCache(cache_size)
        self._queue: "queue.Queue[Optional[PendingQuery]]" = queue.Queue(
            maxsize=queue_size
        )
        self._pairs: Dict[str, _RegisteredPair] = {}
        self._pairs_lock = threading.Lock()
        self._catalog = None
        self._catalog_open_kwargs: Dict[str, Any] = {}
        self._catalog_lock = threading.Lock()
        self._catalog_trees: List[RTree] = []
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- registration ------------------------------------------------------

    def register_pair(
        self, name: str, tree_p: RTree, tree_q: RTree
    ) -> None:
        """Make a tree pair addressable by ``request.pair == name``.

        ``tree_p`` is the "left" side of K-CPQ results and the
        ``side="p"`` target of K-NN/range requests; the trees must
        index points of the same dimension.  Re-registering a name
        replaces the pair (in-flight queries keep the trees they
        already resolved).
        """
        if tree_p.dimension != tree_q.dimension:
            raise ValueError("trees index points of different dimensions")
        with self._pairs_lock:
            replacing = name in self._pairs
            self._pairs[name] = _RegisteredPair(
                name, tree_p, tree_q, breaker=self._breaker_factory()
            )
        if replacing:
            # Cached results describe trees no longer behind the name.
            # Fresh entries could even collide (the new trees may reuse
            # the old generation numbers) and the last-known-good stock
            # is keyed without generations entirely, so drop both.
            self.cache.invalidate_pair(name, drop_stale=True)

    def pairs(self) -> List[str]:
        with self._pairs_lock:
            return sorted(self._pairs)

    def attach_catalog(
        self, catalog, *, kind: Optional[str] = None,
        buffer_capacity: int = 64, read_latency: float = 0.0,
    ) -> None:
        """Resolve unregistered pair names against a catalog.

        With a :class:`repro.catalog.Catalog` attached, a CPQ or SQL
        request addressing an unknown pair ``"a,b"`` (or a bare
        ``"a"``, the self-join) auto-registers it by opening the named
        datasets through :meth:`~repro.catalog.Catalog.open_dataset`
        -- the catalog's metadata, not hand-plumbed paths, decides
        page size and generation.  ``kind`` pins one index
        kind for every dataset; ``None`` takes each dataset's
        default.  The open keyword arguments apply to every tree
        opened this way; the service closes those trees on
        :meth:`close`.  Explicit :meth:`register_pair` registrations
        always win over catalog resolution.
        """
        self._catalog = catalog
        self._catalog_open_kwargs = {
            "kind": kind,
            "buffer_capacity": buffer_capacity,
            "read_latency": read_latency,
        }

    def _resolve_pair(self, name: str) -> None:
        """Auto-register ``name`` from the attached catalog if needed.

        Raises :class:`repro.errors.UnknownDatasetError` when a
        catalog is attached but does not know a referenced dataset;
        silently returns when no catalog is attached (the execution
        path then answers ``unknown pair`` as before).
        """
        with self._pairs_lock:
            if name in self._pairs:
                return
        if self._catalog is None:
            return
        datasets = [part.strip() for part in name.split(",")]
        if len(datasets) == 1:
            datasets = [datasets[0], datasets[0]]
        if len(datasets) != 2 or not all(datasets):
            return  # not a catalog-shaped pair name
        with self._catalog_lock:
            with self._pairs_lock:
                if name in self._pairs:
                    return
            opened: Dict[str, Any] = {}
            for dataset in datasets:
                # A self-join opens one tree and hands it to both
                # sides -- the self-CPQ algorithms insist on identity.
                if dataset not in opened:
                    opened[dataset] = self._catalog.open_dataset(
                        dataset,
                        self._catalog_open_kwargs.get("kind"),
                        buffer_capacity=self._catalog_open_kwargs.get(
                            "buffer_capacity", 64
                        ),
                        read_latency=self._catalog_open_kwargs.get(
                            "read_latency", 0.0
                        ),
                    )
            self._catalog_trees.extend(opened.values())
            self.register_pair(
                name, opened[datasets[0]], opened[datasets[1]]
            )

    # -- CPQL --------------------------------------------------------------

    def submit_sql(
        self, sql: Union[str, ParsedQuery], *, pair: Optional[str] = None,
        deadline_ms: Optional[float] = None, use_cache: bool = True,
    ) -> PendingQuery:
        """Admit one CPQL statement (see :mod:`repro.query.cpql`).

        The statement's ``FROM`` datasets name the pair; an attached
        catalog (:meth:`attach_catalog`) resolves pairs not yet
        registered.  ``pair`` overrides the derived name for services
        whose registrations do not follow the ``"a,b"`` convention.
        Syntax errors raise :class:`~repro.errors.CPQLError` and
        unknown datasets :class:`~repro.errors.UnknownDatasetError`
        *synchronously* -- the request never enters the queue; the
        CLI and the network edge map both onto their bad-request
        surfaces (exit code 2, HTTP 400).  Load and execution
        failures resolve through the returned handle exactly as for
        :meth:`submit`.
        """
        parsed = parse_cpql(sql) if isinstance(sql, str) else sql
        request = parsed.to_service_request(
            pair=pair, deadline_ms=deadline_ms, use_cache=use_cache
        )
        self._resolve_pair(request.pair)
        return self.submit(request)

    def execute_sql(
        self, sql: Union[str, ParsedQuery], *,
        timeout: Optional[float] = None, **kwargs,
    ) -> QueryResponse:
        """Run one CPQL statement and wait for its response."""
        return self.submit_sql(sql, **kwargs).result(timeout)

    # -- submission --------------------------------------------------------

    def submit(self, request: Request,
               _preplanned: Optional[PlanDecision] = None) -> PendingQuery:
        """Admit a request; never blocks and never raises for load.

        Returns a handle whose :meth:`PendingQuery.result` yields the
        structured response -- immediately resolved as ``rejected``
        when the service is saturated or closed.  ``_preplanned`` is
        :meth:`submit_batch`'s channel for a shared plan decision; it
        must be installed before enqueueing (a pool worker may pick the
        query up immediately).
        """
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        deadline = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        pending = PendingQuery(request, deadline)
        pending.preplanned = _preplanned
        self.metrics.record_submitted()
        if self._closed:
            self._finish(pending, QueryResponse(
                status=STATUS_REJECTED, kind=request.kind,
                error="service closed",
            ))
            return pending
        if self.shed_threshold is not None:
            depth = self._queue.qsize()
            if depth >= self.shed_threshold:
                self.metrics.record_shed()
                self._finish(pending, QueryResponse(
                    status=STATUS_OVERLOADED, kind=request.kind,
                    error=str(ServiceOverloadError(
                        depth, self.shed_threshold
                    )),
                ))
                return pending
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self._finish(pending, QueryResponse(
                status=STATUS_REJECTED, kind=request.kind,
                error="admission queue full",
            ))
            return pending
        self.metrics.set_queue_depth(self._queue.qsize())
        return pending

    def execute(
        self, request: Request, timeout: Optional[float] = None
    ) -> QueryResponse:
        """Submit one request and wait for its response.

        ``timeout`` (seconds) bounds the *wait*, not the query -- use
        ``request.deadline_ms`` to bound execution.  Returns the
        structured :class:`QueryResponse`; like :meth:`submit`, never
        raises for load or query failure.
        """
        return self.submit(request).result(timeout)

    def run_batch(
        self, requests: Sequence[Request],
        timeout: Optional[float] = None,
    ) -> List[QueryResponse]:
        """Submit a batch and collect responses in request order.

        All requests are admitted before any response is awaited, so
        the batch runs at full pool width; ``timeout`` (seconds)
        applies to each individual wait.
        """
        handles = [self.submit(request) for request in requests]
        return [handle.result(timeout) for handle in handles]

    def submit_batch(
        self, requests: Sequence[Request]
    ) -> List[PendingQuery]:
        """Admit a batch with amortised planning and shared warmup.

        Per-query work that repeats across a homogeneous batch is
        hoisted out of the worker pool:

        * **Planning** -- ``algorithm="auto"`` CPQ requests against the
          same pair with the same ``k`` share one
          :class:`~repro.service.planner.PlanDecision` (decisions are
          deterministic per tree generation, so re-planning per query
          only costs time).  Each execution still tallies its applied
          decision in the metrics.
        * **Buffer warmup** -- both roots of every addressed pair are
          read once before admission, so the pool's first wave of
          workers hits a warm buffer instead of racing duplicate
          root faults.

        Returns the handles in request order; collect results with
        ``[h.result() for h in handles]``.  Admission semantics match
        :meth:`submit` (rejected-on-full, never blocks).
        """
        plans: Dict[Tuple, PlanDecision] = {}
        warmed = set()
        for request in requests:
            with self._pairs_lock:
                pair = self._pairs.get(request.pair)
            if pair is None:
                continue  # submit() resolves it as an error response
            self._refresh_pair(pair)
            if pair.name not in warmed:
                warmed.add(pair.name)
                for tree in (pair.tree_p, pair.tree_q):
                    if tree.root_id is not None:
                        tree.read_node(tree.root_id)
            if request.kind != "cpq" or request.algorithm != "auto":
                continue
            key = (pair.name, request.k, request.range)
            if key not in plans:
                shape_p, shape_q = self._shapes(pair)
                plans[key] = self.planner.plan(
                    shape_p, shape_q, pair.buffer_pages(), k=request.k,
                    tracer=self.tracer, range_spec=request.range,
                )
        handles = []
        for request in requests:
            preplanned = None
            if request.kind == "cpq" and request.algorithm == "auto":
                preplanned = plans.get(
                    (request.pair, request.k, request.range)
                )
            handles.append(self.submit(request, _preplanned=preplanned))
        return handles

    # -- observability -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable metrics snapshot (the serve-stats view).

        Top-level sections: ``queries``, ``latency_ms``, ``planner``,
        ``cache``, ``io``, ``queue`` and -- when a tracer is installed
        -- the per-span-name ``spans`` rollup.  Schemas are documented
        in ``docs/SERVICE.md`` and ``docs/OBSERVABILITY.md``.
        """
        self.metrics.set_queue_depth(self._queue.qsize())
        return self.metrics.snapshot(cache_size=len(self.cache))

    # -- lifecycle ---------------------------------------------------------

    def close(self, wait: bool = True, drain: bool = False) -> None:
        """Stop accepting work; optionally drain and join the pool.

        ``drain=True`` blocks until every already-admitted query has
        *finished executing* before the worker teardown begins, so no
        in-flight caller is left holding an unresolved handle.  (The
        poison-pill teardown alone already guarantees queued work runs
        before any worker exits -- the queue is FIFO -- but only
        ``wait=True`` observes it; ``drain`` makes the guarantee
        explicit and independent of ``wait``.)  New submissions are
        rejected from the first moment of either path.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            # Every admitted PendingQuery is balanced by a task_done
            # in the worker loop; join() returns once all of them --
            # including those currently executing -- have resolved.
            self._queue.join()
        for __ in self._workers:
            self._queue.put(None)
        if wait:
            for thread in self._workers:
                thread.join()
        if wait or drain:
            # All admitted work has finished: release the trees this
            # service opened itself (catalog auto-registration).
            # Caller-registered trees stay the caller's to close.
            with self._catalog_lock:
                trees, self._catalog_trees = self._catalog_trees, []
            for tree in trees:
                close = getattr(
                    getattr(tree.file, "store", None), "close", None
                )
                if close is not None:
                    close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker internals --------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            pending = self._queue.get()
            try:
                if pending is None:
                    return
                self.metrics.set_queue_depth(self._queue.qsize())
                self._run(pending)
            finally:
                self._queue.task_done()

    def _run(self, pending: PendingQuery) -> None:
        request = pending.request
        tracer = self.tracer
        if not tracer.enabled:
            self._finish(pending, self._guarded_execute(pending))
            return
        with tracer.span(
            "request", kind=request.kind, pair=request.pair
        ) as span:
            span.annotate(queue_wait_ms=round(
                (time.monotonic() - pending.admitted_at) * 1000.0, 3
            ))
            response = self._guarded_execute(pending)
            span.annotate(status=response.status, cached=response.cached)
            if response.algorithm is not None:
                span.annotate(algorithm=response.algorithm)
        self.metrics.record_trace(span)
        self._finish(pending, response)

    def _guarded_execute(self, pending: PendingQuery) -> QueryResponse:
        """Execute one admitted request; no exception escapes."""
        request = pending.request
        try:
            self._check_deadline(pending.deadline)
            return self._execute(request, pending.deadline,
                                 preplanned=pending.preplanned)
        except DeadlineExceeded:
            return QueryResponse(
                status=STATUS_DEADLINE, kind=request.kind,
                error="deadline exceeded",
            )
        except UnsupportedCapabilityError as exc:
            # The request is malformed, not the service unhealthy: a
            # forced algorithm lacking the demanded capability.  The
            # message carries the capable algorithms.
            return QueryResponse(
                status=STATUS_BAD_REQUEST, kind=request.kind,
                error=str(exc),
            )
        except Exception as exc:  # noqa: BLE001 -- pool must survive
            return QueryResponse(
                status=STATUS_ERROR, kind=request.kind,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _finish(
        self, pending: PendingQuery, response: QueryResponse
    ) -> None:
        response.latency_ms = (
            (time.monotonic() - pending.admitted_at) * 1000.0
        )
        self.metrics.record_query(
            kind=response.kind,
            status=response.status,
            latency_ms=response.latency_ms,
            cached=response.cached,
            disk_reads=response.disk_reads,
            buffer_hits=response.buffer_hits,
            algorithm=response.algorithm,
            read_retries=response.read_retries,
        )
        pending._resolve(response)

    @staticmethod
    def _check_deadline(deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded()

    @staticmethod
    def _deadline_probe(
        deadline: Optional[float],
    ) -> Optional[Callable[[], None]]:
        if deadline is None:
            return None

        def probe() -> None:
            if time.monotonic() > deadline:
                raise DeadlineExceeded()

        return probe

    def _execute(
        self, request: Request, deadline: Optional[float],
        preplanned: Optional[PlanDecision] = None,
    ) -> QueryResponse:
        with self._pairs_lock:
            pair = self._pairs.get(request.pair)
        if pair is None:
            return QueryResponse(
                status=STATUS_ERROR, kind=request.kind,
                error=f"unknown pair {request.pair!r}",
            )
        # Pin both committed snapshots for the whole execution: cache
        # key, planner refresh and traversal all describe exactly these
        # generations, and no page either query can reach is reclaimed
        # until the pins release (see docs/STORAGE.md).
        pin = getattr(request, "pin_snapshot", True)
        snap_p = pair.tree_p.pin() if pin else pair.tree_p.committed()
        snap_q = pair.tree_q.pin() if pin else pair.tree_q.committed()
        try:
            return self._execute_pinned(
                pair, request, deadline, snap_p, snap_q, preplanned
            )
        finally:
            if pin:
                pair.tree_p.release(snap_p)
                pair.tree_q.release(snap_q)

    def _execute_pinned(
        self, pair: _RegisteredPair, request: Request,
        deadline: Optional[float], snap_p, snap_q,
        preplanned: Optional[PlanDecision] = None,
    ) -> QueryResponse:
        generation_p, generation_q = self._refresh_pair(
            pair, (snap_p.generation, snap_q.generation)
        )
        view_p = pair.tree_p.view(snap_p)
        # A self-join pair shares one view: the self-CPQ algorithms
        # demand object identity between the two sides.
        if pair.tree_p is pair.tree_q:
            view_q = view_p
        else:
            view_q = pair.tree_q.view(snap_q)

        key = None
        if request.use_cache and self.cache.capacity > 0:
            key = cache_key(
                pair.name, generation_p, generation_q,
                request.cache_params(),
            )
            hit, value = self.cache.get(key)
            if hit:
                return QueryResponse(
                    status=STATUS_OK, kind=request.kind,
                    result=value["result"],
                    algorithm=value["algorithm"],
                    plan=value["plan"],
                    cached=True,
                )
            self.metrics.record_cache_miss()

        if not pair.breaker.allow():
            # Breaker open (or half-open with the probe slot taken):
            # fail fast without touching the suspect storage.  Degrade
            # onto the last known good result when the caller accepts
            # caching, flagged ``stale`` because it may predate
            # mutations.
            self.metrics.record_breaker_rejection()
            if request.use_cache and self.cache.capacity > 0:
                found, value = self.cache.get_stale(
                    pair.name, request.cache_params()
                )
                if found:
                    self.metrics.record_stale_served()
                    return QueryResponse(
                        status=STATUS_OK, kind=request.kind,
                        result=value["result"],
                        algorithm=value["algorithm"],
                        plan=value["plan"],
                        cached=True, stale=True,
                    )
            return QueryResponse(
                status=STATUS_UNAVAILABLE, kind=request.kind,
                error=(f"circuit breaker open for pair {pair.name!r} "
                       f"and no stale result available"),
            )

        before_p = pair.tree_p.stats.snapshot()
        before_q = pair.tree_q.stats.snapshot()
        try:
            if request.kind == "cpq":
                result, algorithm, plan = self._run_cpq(
                    pair, view_p, view_q, request, deadline, preplanned
                )
            elif request.kind == "knn":
                result, algorithm, plan = self._run_knn(
                    view_p, view_q, request, deadline
                )
            else:
                result, algorithm, plan = self._run_range(
                    view_p, view_q, request, deadline
                )
        except StorageError as exc:
            # Retries are already exhausted (or corruption confirmed)
            # by the storage layer when this surfaces: count it against
            # the pair's breaker and the fault tally, then let
            # _guarded_execute shape the error response.
            pair.breaker.record_failure()
            self.metrics.record_storage_fault(type(exc).__name__)
            raise
        except BaseException:
            # Non-storage outcome (deadline expiry, request-shaped
            # error): no verdict on pair health, but if this request
            # held the half-open probe slot it must be returned or the
            # breaker wedges half-open, rejecting everything.
            pair.breaker.release_probe()
            raise
        pair.breaker.record_success()
        after_p = pair.tree_p.stats.snapshot()
        after_q = pair.tree_q.stats.snapshot()
        disk_reads = (
            (after_p.disk_reads - before_p.disk_reads)
            + (after_q.disk_reads - before_q.disk_reads)
        )
        buffer_hits = (
            (after_p.buffer_hits - before_p.buffer_hits)
            + (after_q.buffer_hits - before_q.buffer_hits)
        )
        read_retries = (
            (after_p.read_retries - before_p.read_retries)
            + (after_q.read_retries - before_q.read_retries)
        )
        # A sharded execution that lost shards and could not recover
        # their partitions flags the result partial; such a result is
        # *not* cached (it is not the true answer for the key).
        partial = bool(
            request.kind == "cpq"
            and result.stats.extra.get("net", {}).get("partial")
        )
        if partial:
            self.metrics.record_partial_response()
        # Self-healing events this query's scatter-gather burned
        # through (retries, hedges, damaged frames) roll up into the
        # resilience.net section of /stats.
        if request.kind == "cpq":
            net = result.stats.extra.get("net", {})
            for event in ("retries", "hedges", "hedge_wins",
                          "frame_errors", "dedup_dropped"):
                count = net.get(event, 0)
                if count:
                    self.metrics.record_net_event(event, count)
        if key is not None and not partial:
            self.cache.put(
                key,
                {"result": result, "algorithm": algorithm, "plan": plan},
            )
        return QueryResponse(
            status=STATUS_OK, kind=request.kind,
            result=result, algorithm=algorithm, plan=plan,
            disk_reads=disk_reads, buffer_hits=buffer_hits,
            read_retries=read_retries, partial=partial,
        )

    def _run_cpq(
        self,
        pair: _RegisteredPair,
        view_p,
        view_q,
        request: CPQRequest,
        deadline: Optional[float],
        preplanned: Optional[PlanDecision] = None,
    ):
        plan = None
        if request.algorithm == "auto":
            if preplanned is not None:
                plan = preplanned
            else:
                shape_p, shape_q = self._shapes(pair)
                plan = self.planner.plan(
                    shape_p, shape_q, pair.buffer_pages(), k=request.k,
                    tracer=self.tracer, range_spec=request.range,
                )
            algorithm = plan.algorithm
            self.metrics.record_planner_decision(algorithm)
        elif request.algorithm in ALGORITHM_REGISTRY:
            algorithm = request.algorithm
        else:
            raise ValueError(
                f"unknown algorithm {request.algorithm!r}; expected "
                f"'auto' or one of {ALGORITHMS}"
            )
        core_request = request.to_query(algorithm)
        probe = self._deadline_probe(deadline)
        result = None
        if self._cpq_executor is not None:
            result = self._cpq_executor(
                pair.name, view_p, view_q, core_request,
                probe, self.tracer,
            )
        if result is None:
            result = k_closest_pairs(
                view_p,
                view_q,
                request=core_request,
                cancel_check=probe,
                tracer=self.tracer,
            )
        return result, algorithm, plan

    def _run_knn(
        self,
        view_p,
        view_q,
        request: KNNRequest,
        deadline: Optional[float],
    ):
        tree = self._side(view_p, view_q, request.side)
        found = nearest_neighbors(tree, request.point, k=request.k)
        # The single-tree traversals have no cooperative hook; they are
        # short (O(height) node reads), so the deadline is enforced at
        # the boundaries only.
        self._check_deadline(deadline)
        return found, None, None

    def _run_range(
        self,
        view_p,
        view_q,
        request: RangeRequest,
        deadline: Optional[float],
    ):
        tree = self._side(view_p, view_q, request.side)
        found = range_query(tree, MBR(request.lo, request.hi))
        self._check_deadline(deadline)
        return found, None, None

    @staticmethod
    def _side(view_p, view_q, side: str):
        if side == "p":
            return view_p
        if side == "q":
            return view_q
        raise ValueError(f"side must be 'p' or 'q', not {side!r}")

    # -- pair state --------------------------------------------------------

    def _refresh_pair(
        self, pair: _RegisteredPair,
        generations: Optional[Tuple[int, int]] = None,
    ) -> Tuple[int, int]:
        """Observe tree generations; invalidate on mutation.

        ``generations`` carries the pinned committed generations when
        the caller already holds a snapshot pair; otherwise the trees'
        committed state is peeked.  Returns the generations the
        subsequent execution is keyed on.
        """
        if generations is None:
            generations = (
                pair.tree_p.committed().generation,
                pair.tree_q.committed().generation,
            )
        with pair.lock:
            if generations != pair.seen_generations:
                pair.seen_generations = generations
                pair.shapes = None
                self.cache.invalidate_pair(pair.name)
        return generations

    def _shapes(self, pair: _RegisteredPair) -> Tuple:
        """Planner shapes for a pair, rebuilt once per generation.

        The rebuilding scan reads every node; its I/O is attributed to
        the query that triggered it (it is real I/O the service paid).
        """
        with pair.lock:
            if pair.shapes is None:
                pair.shapes = (
                    self._shape_or_none(pair.tree_p),
                    self._shape_or_none(pair.tree_q),
                )
            return pair.shapes

    @staticmethod
    def _shape_or_none(tree: RTree) -> Optional[TreeShape]:
        if tree.root_id is None or tree.dimension != 2:
            return None
        return TreeShape.from_tree(tree)
