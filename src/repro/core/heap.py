"""The Heap algorithm, HEAP (Section 3.5).

The only non-recursive algorithm: a global main-memory min-heap keyed
by MINMINDIST replaces the recursion stack.  Processing a node pair
(step CP2) tightens ``T`` from MINMAXDIST, then inserts the surviving
child *node pairs* into the heap; the main loop (CP4/CP5) repeatedly
pops the pair with the smallest MINMINDIST and stops as soon as that
value exceeds ``T`` -- every remaining pair is then prunable.

Unlike the incremental algorithms of Hjaltason & Samet, the heap holds
node/node items only (never node/object or object/object), which keeps
it small enough to live entirely in main memory (Section 3.9); the
``max_queue_size`` statistic lets experiments verify that claim.

Ties of MINMINDIST are resolved by a tie-break chain (Section 3.6,
default T1) encoded directly in the heap key.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.core.engine import (
    CPQContext,
    CPQOptions,
    generate_candidates,
    scan_leaf_pair,
    traced_traversal,
)
from repro.core.height import FIX_AT_ROOT
from repro.core.result import CPQResult
from repro.core.ties import DEFAULT_TIE_BREAK, TieBreak
from repro.rtree.node import Node

NAME = "HEAP"


def heap_algorithm(
    ctx: CPQContext,
    height_strategy: str = FIX_AT_ROOT,
    tie_break: Optional[TieBreak] = None,
    maxmax_pruning: bool = True,
    clip_mindist: bool = False,
) -> CPQResult:
    """Run the Heap algorithm on a prepared query context.

    ``maxmax_pruning`` toggles the Section 3.8 MAXMAXDIST accumulation
    bound for K > 1 (off = the simple K-heap-threshold modification).
    ``clip_mindist`` keys the heap by MINMINDIST of range-clipped MBRs
    instead of raw ones (the CLIPPED algorithm; requires a range on the
    context to differ from plain HEAP).
    """
    options = CPQOptions(
        prune=True,
        update_bound=True,
        sort=False,
        height_strategy=height_strategy,
        maxmax_k_pruning=maxmax_pruning,
        clip_mindist=clip_mindist,
    )
    ties = tie_break if tie_break is not None else DEFAULT_TIE_BREAK
    root_p = ctx.root_p
    root_q = ctx.root_q
    if root_p is None or root_q is None:
        return ctx.result(NAME)

    # Items: (MINMINDIST, tie-key tuple, sequence, page_p, page_q).
    heap: List[Tuple[float, Tuple[float, ...], int, int, int]] = []
    seq = 0

    def process_pair(node_p: Node, node_q: Node) -> None:
        """Step CP2/CP3 for one visited pair."""
        nonlocal seq
        ctx.check_cancelled()
        ctx.stats.node_pairs_visited += 1
        if node_p.is_leaf and node_q.is_leaf:
            scan_leaf_pair(ctx, node_p, node_q)
            return
        candidates = generate_candidates(ctx, node_p, node_q, options)
        for position in range(len(candidates)):
            minmin = float(candidates.minmin[position])
            if minmin > ctx.t:
                continue
            key = ties.key(candidates.geometry(ctx, position))
            if candidates.expand_p:
                entry = node_p.entries[int(candidates.idx_p[position])]
                page_p = entry.child_id
            else:
                page_p = node_p.page_id
            if candidates.expand_q:
                entry = node_q.entries[int(candidates.idx_q[position])]
                page_q = entry.child_id
            else:
                page_q = node_q.page_id
            seq += 1
            heapq.heappush(heap, (minmin, key, seq, page_p, page_q))
            ctx.stats.queue_inserts += 1
        if len(heap) > ctx.stats.max_queue_size:
            ctx.stats.max_queue_size = len(heap)

    with traced_traversal(ctx, NAME, tie_break=repr(ties),
                          height_strategy=height_strategy):
        tracer = ctx.tracer
        with tracer.span("heap") if tracer.enabled else _noop() as heap_span:
            process_pair(root_p, root_q)  # CP1/CP2 on the root pair
            pops = 0
            while heap:  # CP4
                minmin, __, __, page_p, page_q = heapq.heappop(heap)
                pops += 1
                if minmin > ctx.t:  # CP5: everything left is prunable
                    break
                node_p = ctx.tree_p.read_node(page_p)
                node_q = ctx.tree_q.read_node(page_q)
                process_pair(node_p, node_q)
            if tracer.enabled:
                # High-water mark and final size of the global queue
                # (Section 3.9's main-memory-residency argument).
                heap_span.annotate(
                    inserts=ctx.stats.queue_inserts,
                    pops=pops,
                    max_size=ctx.stats.max_queue_size,
                    leftover=len(heap),
                )
    return ctx.result(NAME)


@contextmanager
def _noop():
    yield None
