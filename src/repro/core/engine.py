"""Shared machinery of the CPQ algorithms.

The four pruning algorithms of the paper differ only in *policy*:

===========  =======  ==================  ==========
algorithm    prunes   tightens T from     processing order
===========  =======  ==================  ==========
NAIVE        no       --                  natural
EXH          yes      found pairs only    natural
SIM          yes      + MINMAXDIST        natural
STD          yes      + MINMAXDIST        ascending MINMINDIST (+ ties)
HEAP         yes      + MINMAXDIST        global ascending MINMINDIST
===========  =======  ==================  ==========

This module implements the shared mechanics: the query context (K-heap,
pruning bound ``T``, statistics), vectorised leaf-pair scanning,
candidate generation with the height strategies of Section 3.7, the
K > 1 bound update from MAXMAXDIST (Section 3.8), and the recursive
driver parameterised by :class:`CPQOptions`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.height import (
    EXPAND_BOTH,
    EXPAND_P,
    EXPAND_Q,
    FIX_AT_ROOT,
    expansion,
    validate_strategy,
)
from repro.core.kheap import KHeap
from repro.core.result import ClosestPair, CPQResult
from repro.core.ties import CandidateGeometry, TieBreak
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.geometry.vectorized import (
    pairwise_maxdist,
    pairwise_mindist,
    pairwise_minmaxdist,
    pairwise_point_distances,
)
from repro.obs.trace import NULL_TRACER, Span
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.stats import QueryStats


@dataclass
class CPQOptions:
    """Policy knobs distinguishing the algorithms."""

    #: Skip candidate pairs with MINMINDIST > T (all but NAIVE).
    prune: bool = True
    #: Tighten T from MINMAXDIST (K = 1) / MAXMAXDIST (K > 1) before
    #: descending (SIM, STD, HEAP).
    update_bound: bool = True
    #: Process candidates in ascending MINMINDIST order (STD, HEAP).
    sort: bool = False
    #: Tie-break chain for equal MINMINDIST (STD, HEAP); None keeps the
    #: stable sort / insertion order.
    tie_break: Optional[TieBreak] = None
    #: Height strategy for trees of different heights (Section 3.7).
    height_strategy: str = FIX_AT_ROOT
    #: For K > 1: use the MAXMAXDIST accumulation bound (the paper's
    #: "alternative, although more complicated, modification").
    maxmax_k_pruning: bool = True
    #: For range-constrained queries: evaluate MINMINDIST on the
    #: intersection of each constrained-side MBR with the query window
    #: instead of the raw MBR (the CLIPPED algorithm).  A clipped box
    #: bounds exactly the in-window points below it, so its MINMINDIST
    #: is a *tighter* valid lower bound on qualifying pair distances.
    clip_mindist: bool = False

    def __post_init__(self) -> None:
        validate_strategy(self.height_strategy)


class CPQContext:
    """Mutable state of one query execution."""

    def __init__(
        self,
        tree_p: RTree,
        tree_q: RTree,
        k: int,
        metric: MinkowskiMetric = EUCLIDEAN,
        cancel_check: Optional[Callable[[], None]] = None,
        tracer=None,
        roots=None,
        root_areas=None,
        range_spec=None,
        color_spec=None,
    ):
        if tree_p.dimension != tree_q.dimension:
            raise ValueError("trees index points of different dimensions")
        self.tree_p = tree_p
        self.tree_q = tree_q
        self.k = k
        self.metric = metric
        #: Query-family constraints (:mod:`repro.core.constraints`).
        #: When either is set the traversal filters qualifying pairs at
        #: the leaves and *suppresses* the MINMAXDIST / MAXMAXDIST
        #: bound updates -- the point those bounds guarantee may be
        #: out-of-window or wrong-colored, so only the K-heap threshold
        #: (built from qualifying pairs) may tighten T.  MINMINDIST
        #: pruning stays valid: it lower-bounds every pair, qualifying
        #: ones included.
        self.range_spec = range_spec
        self.color_spec = color_spec
        self.constrained = range_spec is not None or color_spec is not None
        if range_spec is not None:
            if range_spec.dimension != tree_p.dimension:
                raise ValueError(
                    "range window dimension does not match the trees"
                )
            self._range_lo = np.array(range_spec.lo, dtype=float)
            self._range_hi = np.array(range_spec.hi, dtype=float)
            self._range_mbr = range_spec.mbr()
        #: Cooperative cancellation: called once per visited node pair;
        #: raising from it (e.g. a service deadline) aborts the
        #: traversal, leaving trees and buffers consistent.
        self.cancel_check = cancel_check
        #: Observability hook (:mod:`repro.obs`); the no-op tracer by
        #: default, so hot paths pay one ``enabled`` test at most.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The open ``traverse`` span while one exists (see
        #: :func:`traced_traversal`); counters go through
        #: :meth:`trace_add`.
        self.trace_span: Optional[Span] = None
        if self.tracer.enabled:
            # Baselines for the per-tree I/O delta spans, captured
            # *before* the root reads below so they are attributed too.
            self._trace_io_base = (
                tree_p.stats.snapshot(), tree_q.stats.snapshot()
            )
        self.kheap = KHeap(k)
        #: Extra upper bound on the K-th best distance, tightened from
        #: MINMAXDIST / MAXMAXDIST (independent of the K-heap content).
        self.bound = math.inf
        self.stats = QueryStats()
        # Read each root exactly once; algorithms reuse these handles so
        # context construction plus execution costs two root I/Os total.
        # ``roots`` lets a caller point an inner context at already-read
        # nodes (the RCP candidate search) without re-paying the root
        # I/O; ``root_areas`` then pins the tie-key normalisation areas
        # to the *tree* roots so tie keys match the outer query.
        if roots is not None:
            self.root_p, self.root_q = roots
        else:
            self.root_p = tree_p.read_root()
            self.root_q = tree_q.read_root()
        if root_areas is not None:
            self.root_area_p, self.root_area_q = root_areas
        else:
            self.root_area_p = (
                self.root_p.mbr().area() if self.root_p else 1.0
            )
            self.root_area_q = (
                self.root_q.mbr().area() if self.root_q else 1.0
            )

    @property
    def t(self) -> float:
        """The pruning bound T: best of the K-heap top and the metric
        bound."""
        return min(self.kheap.threshold, self.bound)

    def check_cancelled(self) -> None:
        """Run the caller-supplied cancellation probe, if any."""
        if self.cancel_check is not None:
            self.cancel_check()

    def trace_add(self, key: str, amount: float = 1) -> None:
        """Accumulate a counter on the open traversal span, if any.

        Callers guard with ``ctx.tracer.enabled`` so the untraced path
        never reaches this method.
        """
        if self.trace_span is not None:
            self.trace_span.add(key, amount)

    def update_bound(self, value: float) -> None:
        if value < self.bound:
            self.bound = value

    def offer(self, entry_p, entry_q, distance: float) -> None:
        self.kheap.offer(
            ClosestPair(
                distance=float(distance),
                p=entry_p.point,
                q=entry_q.point,
                p_oid=entry_p.oid,
                q_oid=entry_q.oid,
            )
        )

    def result(self, algorithm: str) -> CPQResult:
        self.stats.merge_io(self.tree_p.stats, self.tree_q.stats)
        return CPQResult(
            pairs=self.kheap.sorted_pairs(),
            stats=self.stats,
            algorithm=algorithm,
            k=self.k,
        )


# ---------------------------------------------------------------------------
# Traversal tracing (repro.obs)
# ---------------------------------------------------------------------------

def _finish_io_span(tracer, label: str, base, after, collector) -> None:
    """Attach one ``io.<label>`` leaf carrying the tree's I/O delta.

    ``disk_reads`` / ``buffer_hits`` are delta-snapshots of the tree's
    :class:`~repro.storage.stats.IOStats` across the traversal (exact
    when the query has the trees to itself); ``observed_*`` and
    ``distinct_pages`` come from the buffer observer and are exact for
    this thread even under concurrency.
    """
    with tracer.span(label) as child:
        child.annotate(
            disk_reads=after.disk_reads - base.disk_reads,
            buffer_hits=after.buffer_hits - base.buffer_hits,
            reads=after.reads - base.reads,
        )
        # Resilience counters are annotated only when they moved, so
        # fault-free traces (and the explain golden output) stay
        # byte-stable while faulted runs show their retries.
        retries = after.read_retries - base.read_retries
        if retries:
            child.annotate(read_retries=retries)
        corrupt = after.corrupt_reads - base.corrupt_reads
        if corrupt:
            child.annotate(corrupt_reads=corrupt)
        if collector is not None and collector.reads:
            child.annotate(
                observed_reads=collector.reads,
                observed_disk_reads=collector.disk_reads,
                distinct_pages=collector.distinct_pages,
            )
    child.duration_ms = 0.0  # accounting leaf, not a timed phase


@contextmanager
def traced_traversal(ctx: CPQContext, algorithm: str, **attrs):
    """Wrap one algorithm execution in a ``traverse`` span.

    Opens the span (child of whatever span is current on this thread,
    e.g. a service ``request``), installs the buffer observers and
    per-thread I/O collectors, and on exit attaches the ``io.p`` /
    ``io.q`` leaf spans whose ``disk_reads`` sum to the query's
    :class:`~repro.storage.stats.IOStats` delta, plus the traversal
    counter rollup.  A no-op (single ``enabled`` test) when ``ctx``
    carries the null tracer.
    """
    tracer = ctx.tracer
    if not tracer.enabled:
        yield None
        return
    base_p, base_q = ctx._trace_io_base
    tracer.watch_buffer(ctx.tree_p.file.buffer, "p")
    tracer.watch_buffer(ctx.tree_q.file.buffer, "q")
    try:
        with tracer.span("traverse", algorithm=algorithm, k=ctx.k,
                         **attrs) as span:
            ctx.trace_span = span
            collectors = {"p": None, "q": None}
            try:
                with tracer.collect_io(("p", "q")) as collectors:
                    yield span
            finally:
                ctx.trace_span = None
                span.annotate(
                    node_pairs_visited=ctx.stats.node_pairs_visited,
                    distance_computations=ctx.stats.distance_computations,
                )
                _finish_io_span(tracer, "io.p", base_p,
                                ctx.tree_p.stats.snapshot(), collectors["p"])
                _finish_io_span(tracer, "io.q", base_q,
                                ctx.tree_q.stats.snapshot(), collectors["q"])
    finally:
        # Without this, repeated queries on the same trees leak the
        # buffers' on_read observers past the traversal that set them.
        tracer.unwatch_buffer(ctx.tree_p.file.buffer)
        tracer.unwatch_buffer(ctx.tree_q.file.buffer)


# ---------------------------------------------------------------------------
# Leaf-pair scanning (step CP3)
# ---------------------------------------------------------------------------

def _qualifying_mask(
    ctx: CPQContext, leaf_p: Node, leaf_q: Node
) -> np.ndarray:
    """Boolean (|P|, |Q|) mask of point pairs the constraints admit.

    Range containment is evaluated per side from the leaves' point
    arrays; colors derive from oids (``oid % modulus``), so the mask is
    a pure function of data already on the pages.
    """
    mask_p = np.ones(len(leaf_p.entries), dtype=bool)
    mask_q = np.ones(len(leaf_q.entries), dtype=bool)
    spec = ctx.range_spec
    if spec is not None:
        if spec.constrains_p:
            pts = leaf_p.points_array()
            mask_p &= np.all(
                (pts >= ctx._range_lo) & (pts <= ctx._range_hi), axis=1
            )
        if spec.constrains_q:
            pts = leaf_q.points_array()
            mask_q &= np.all(
                (pts >= ctx._range_lo) & (pts <= ctx._range_hi), axis=1
            )
    mask = mask_p[:, None] & mask_q[None, :]
    colors = ctx.color_spec
    if colors is not None:
        color_p = np.array(
            [e.oid for e in leaf_p.entries], dtype=np.int64
        ) % colors.modulus
        color_q = np.array(
            [e.oid for e in leaf_q.entries], dtype=np.int64
        ) % colors.modulus
        if colors.colors_p is not None:
            mask &= np.isin(
                color_p, np.array(colors.colors_p, dtype=np.int64)
            )[:, None]
        if colors.colors_q is not None:
            mask &= np.isin(
                color_q, np.array(colors.colors_q, dtype=np.int64)
            )[None, :]
        if colors.distinct:
            mask &= color_p[:, None] != color_q[None, :]
    return mask


def scan_leaf_pair(ctx: CPQContext, leaf_p: Node, leaf_q: Node) -> None:
    """Compute all point-pair distances of two leaves and update the
    K-heap (step CP3 of every algorithm).

    Constrained queries AND a qualifying mask into the selection, so
    only admitted pairs ever reach the K-heap.  (The mask must gate the
    selection itself, not just inflate distances: while T is still
    infinite, ``inf <= inf`` would admit a masked pair.)
    """
    distances = pairwise_point_distances(
        leaf_p.points_array(), leaf_q.points_array(), ctx.metric
    )
    ctx.stats.distance_computations += distances.size
    mask = _qualifying_mask(ctx, leaf_p, leaf_q) if ctx.constrained else None
    if ctx.k == 1:
        if mask is not None:
            if not mask.any():
                return
            distances = np.where(mask, distances, np.inf)
        flat = int(np.argmin(distances))
        i, j = divmod(flat, distances.shape[1])
        d = float(distances[i, j])
        if d <= ctx.t and math.isfinite(d):
            ctx.offer(leaf_p.entries[i], leaf_q.entries[j], d)
        return
    qualifies = distances <= ctx.t
    if mask is not None:
        qualifies &= mask
    rows, cols = np.nonzero(qualifies)
    if rows.size == 0:
        return
    values = distances[rows, cols]
    # Offer in ascending order so the K-heap threshold tightens fastest.
    order = np.argsort(values, kind="stable")
    for r in order:
        d = float(values[r])
        if d > ctx.t:
            break
        ctx.offer(leaf_p.entries[rows[r]], leaf_q.entries[cols[r]], d)


# ---------------------------------------------------------------------------
# Candidate generation (steps CP2 / CP2.1)
# ---------------------------------------------------------------------------

@dataclass
class CandidateSet:
    """The surviving child pairs of one visited node pair.

    ``idx_p`` / ``idx_q`` address entries of the expanded side(s); a
    fixed (unexpanded) side is represented by index 0 into the visited
    node itself.
    """

    node_p: Node
    node_q: Node
    expand_p: bool
    expand_q: bool
    minmin: np.ndarray  # (n_candidates,)
    idx_p: np.ndarray
    idx_q: np.ndarray
    minmax: Optional[np.ndarray] = None  # same shape, when computed

    def child_nodes(self, ctx: CPQContext, position: int):
        """Read (with I/O accounting) the node pair of one candidate."""
        if self.expand_p:
            entry = self.node_p.entries[int(self.idx_p[position])]
            node_p = ctx.tree_p.read_node(entry.child_id)
        else:
            node_p = self.node_p
        if self.expand_q:
            entry = self.node_q.entries[int(self.idx_q[position])]
            node_q = ctx.tree_q.read_node(entry.child_id)
        else:
            node_q = self.node_q
        return node_p, node_q

    def geometry(self, ctx: CPQContext, position: int) -> CandidateGeometry:
        """Geometric context of one candidate (for tie criteria)."""
        mbr_p = (
            self.node_p.entries[int(self.idx_p[position])].mbr
            if self.expand_p
            else self.node_p.mbr()
        )
        mbr_q = (
            self.node_q.entries[int(self.idx_q[position])].mbr
            if self.expand_q
            else self.node_q.mbr()
        )
        minmax = (
            float(self.minmax[position]) if self.minmax is not None else None
        )
        return CandidateGeometry(
            mbr_p=mbr_p,
            mbr_q=mbr_q,
            minmax=minmax,
            root_area_p=ctx.root_area_p,
            root_area_q=ctx.root_area_q,
        )

    def __len__(self) -> int:
        return len(self.minmin)


def _side_arrays(node: Node, expand: bool):
    if expand:
        return node.lo_array(), node.hi_array()
    mbr = node.mbr()
    return (
        np.array([mbr.lo], dtype=float),
        np.array([mbr.hi], dtype=float),
    )


def _clip_side_arrays(ctx: CPQContext, lo, hi, constrained: bool):
    """Clip one side's boxes against the query window.

    Returns ``(lo', hi', infeasible)`` where ``infeasible`` flags boxes
    disjoint from the window -- no qualifying point can lie below them.
    Unconstrained sides pass through with an all-False flag.  Rows
    flagged infeasible may carry inverted bounds; callers must mask
    them out rather than trust distances computed from them.
    """
    if not constrained:
        return lo, hi, np.zeros(len(lo), dtype=bool)
    clipped_lo = np.maximum(lo, ctx._range_lo)
    clipped_hi = np.minimum(hi, ctx._range_hi)
    infeasible = np.any(clipped_lo > clipped_hi, axis=1)
    return clipped_lo, clipped_hi, infeasible


def _guaranteed_points(tree: RTree, node: Node, expanded: bool) -> np.ndarray:
    """Minimum number of points under each candidate reference.

    A non-root node at level ``l`` holds at least ``m ** (l + 1)``
    points (minimum occupancy compounds per level).  Children of a
    visited node are never roots; a fixed side may be the root, for
    which only weaker guarantees hold.
    """
    m = tree.min_entries
    if expanded:
        # children are non-root nodes at level node.level - 1
        return np.full(len(node.entries), m ** node.level, dtype=float)
    if node.page_id == tree.root_id:
        guaranteed = 1 if node.is_leaf else 2 * m ** node.level
    else:
        guaranteed = m ** (node.level + 1)
    return np.array([guaranteed], dtype=float)


def _kcp_bound_from_maxmax(
    minmax: np.ndarray,
    maxmax: np.ndarray,
    counts: np.ndarray,
    k: int,
) -> float:
    """Upper bound on the K-th smallest pair distance (Section 3.8).

    Each candidate MBR pair guarantees one point pair within its
    MINMAXDIST (Inequality 2) and ``counts`` point pairs within its
    MAXMAXDIST (Inequality 1, right).  The point-pair populations of
    distinct candidates are disjoint, so sorting the guarantees by
    distance and accumulating counts until K are covered yields a valid
    bound on the K-th best distance.
    """
    values = np.concatenate([minmax, maxmax])
    weights = np.concatenate(
        [np.ones_like(minmax), np.maximum(counts - 1.0, 0.0)]
    )
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    position = int(np.searchsorted(cumulative, k))
    if position >= len(values):
        return math.inf
    return float(values[order][position])


def generate_candidates(
    ctx: CPQContext, node_p: Node, node_q: Node, options: CPQOptions
) -> CandidateSet:
    """Steps CP2/CP2.1: form child MBR pairs, tighten T, prune by
    MINMINDIST."""
    side = expansion(node_p, node_q, options.height_strategy)
    expand_p = side in (EXPAND_BOTH, EXPAND_P)
    expand_q = side in (EXPAND_BOTH, EXPAND_Q)
    spec = ctx.range_spec if ctx.constrained else None
    infeasible = None
    lo_p, hi_p = _side_arrays(node_p, expand_p)
    lo_q, hi_q = _side_arrays(node_q, expand_q)
    boxes_p, boxes_q = (lo_p, hi_p), (lo_q, hi_q)
    if spec is not None and options.prune:
        *clipped_p, bad_p = _clip_side_arrays(
            ctx, lo_p, hi_p, spec.constrains_p
        )
        *clipped_q, bad_q = _clip_side_arrays(
            ctx, lo_q, hi_q, spec.constrains_q
        )
        infeasible = bad_p[:, None] | bad_q[None, :]
        if options.clip_mindist:
            boxes_p, boxes_q = clipped_p, clipped_q
    minmin = pairwise_mindist(*boxes_p, *boxes_q, ctx.metric)
    minmax_matrix = None
    # Constrained queries must not tighten T from MINMAXDIST /
    # MAXMAXDIST: the point pair those bounds guarantee may lie outside
    # the window or carry an inadmissible color, so treating them as
    # upper bounds on the K-th *qualifying* distance would prune real
    # answers.  Only the K-heap threshold (built from qualifying pairs)
    # tightens T; MINMINDIST pruning below stays valid unchanged.
    if options.update_bound and not ctx.constrained:
        minmax_matrix = pairwise_minmaxdist(
            lo_p, hi_p, lo_q, hi_q, ctx.metric
        )
        if ctx.k == 1:
            ctx.update_bound(float(minmax_matrix.min()))
        elif options.maxmax_k_pruning:
            maxmax = pairwise_maxdist(lo_p, hi_p, lo_q, hi_q, ctx.metric)
            counts = (
                _guaranteed_points(ctx.tree_p, node_p, expand_p)[:, None]
                * _guaranteed_points(ctx.tree_q, node_q, expand_q)[None, :]
            )
            ctx.update_bound(
                _kcp_bound_from_maxmax(
                    minmax_matrix.ravel(),
                    maxmax.ravel(),
                    counts.ravel(),
                    ctx.k,
                )
            )

    flat = minmin.ravel()
    columns = minmin.shape[1]
    if options.prune:
        within = flat <= ctx.t
        if infeasible is not None:
            # Subtrees disjoint from the window hold no qualifying
            # point; drop them outright (an explicit mask, because
            # ``inf <= inf`` would keep them while T is infinite).
            within &= ~infeasible.ravel()
        keep = np.nonzero(within)[0]
    else:
        keep = np.arange(flat.size)
    if ctx.tracer.enabled:
        ctx.trace_add("candidates_generated", int(flat.size))
        ctx.trace_add("pairs_pruned_minmin", int(flat.size - keep.size))
    return CandidateSet(
        node_p=node_p,
        node_q=node_q,
        expand_p=expand_p,
        expand_q=expand_q,
        minmin=flat[keep],
        idx_p=keep // columns,
        idx_q=keep % columns,
        minmax=minmax_matrix.ravel()[keep] if minmax_matrix is not None else None,
    )


def order_candidates(
    ctx: CPQContext, candidates: CandidateSet, options: CPQOptions
) -> np.ndarray:
    """Processing order of a candidate set.

    Natural (index) order unless ``options.sort``; then a stable
    mergesort on MINMINDIST (the paper found MergeSort best), with the
    tie-break chain applied inside runs of equal MINMINDIST only --
    tie keys are comparatively expensive and ties are what they exist
    for.
    """
    if not options.sort:
        return np.arange(len(candidates))
    order = np.argsort(candidates.minmin, kind="stable")
    if ctx.tracer.enabled:
        ctx.trace_add("sorts", 1)
        ctx.trace_add("sorted_candidates", len(order))
    if options.tie_break is None or len(order) < 2:
        return order
    values = candidates.minmin[order]
    result: List[int] = []
    run_start = 0
    for i in range(1, len(order) + 1):
        if i < len(order) and values[i] == values[run_start]:
            continue
        run = order[run_start:i]
        if len(run) > 1:
            if ctx.tracer.enabled:
                ctx.trace_add("tie_break_keys", len(run))
            run = sorted(
                run,
                key=lambda pos: options.tie_break.key(
                    candidates.geometry(ctx, int(pos))
                ),
            )
        result.extend(int(r) for r in run)
        run_start = i
    return np.array(result, dtype=int)


# ---------------------------------------------------------------------------
# Recursive driver (NAIVE, EXH, SIM, STD)
# ---------------------------------------------------------------------------

def run_recursive(
    ctx: CPQContext,
    options: CPQOptions,
    algorithm: str,
    span_attrs: Optional[dict] = None,
) -> CPQResult:
    """Execute a recursive CPQ algorithm configured by ``options``.

    ``span_attrs`` are extra annotations the algorithm module wants on
    the ``traverse`` span (tie-break chain, height strategy, ...);
    ignored when ``ctx`` carries the no-op tracer.
    """
    if ctx.root_p is None or ctx.root_q is None:
        return ctx.result(algorithm)
    with traced_traversal(ctx, algorithm, **(span_attrs or {})):
        _visit(ctx, ctx.root_p, ctx.root_q, options)
    return ctx.result(algorithm)


def _visit(
    ctx: CPQContext, node_p: Node, node_q: Node, options: CPQOptions
) -> None:
    ctx.check_cancelled()
    ctx.stats.node_pairs_visited += 1
    if node_p.is_leaf and node_q.is_leaf:
        scan_leaf_pair(ctx, node_p, node_q)
        return
    candidates = generate_candidates(ctx, node_p, node_q, options)
    order = order_candidates(ctx, candidates, options)
    for i, position in enumerate(order):
        # T may have tightened since generation; re-check before paying
        # the I/O of the descent.
        if options.prune:
            if candidates.minmin[position] > ctx.t:
                if options.sort:
                    if ctx.tracer.enabled:
                        ctx.trace_add("pairs_repruned", len(order) - i)
                    break  # sorted ascending: the rest are no better
                if ctx.tracer.enabled:
                    ctx.trace_add("pairs_repruned", 1)
                continue
        child_p, child_q = candidates.child_nodes(ctx, int(position))
        _visit(ctx, child_p, child_q, options)
