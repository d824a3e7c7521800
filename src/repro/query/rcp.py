"""RCP: range closest pairs through a memoized candidate structure.

The range closest-pair literature (Xue et al., "New bounds for range
closest-pair problems"; Shan et al.'s RCP structures) precomputes
*candidate pairs* so that repeated range-restricted queries avoid
re-traversing the trees.  This module is the practical, R-tree-backed
version of that idea: the first query for a window runs the CLIPPED
branch-and-bound traversal once with an enlarged ``K' = max(k,
RESERVE)`` and memoizes the resulting candidate list; later queries
are answered from the store when any of these hold:

* **exact** -- the canonicalised window (plus color predicates and
  metric) was seen before with a large enough ``K'``;
* **containment** -- a stored window *contains* the requested one with
  the same clip mode, and either the stored entry is ``complete`` (the
  traversal exhausted the qualifying population below ``K'``, so the
  list *is* the whole answer set) or filtering the stored candidates
  by the sub-window still leaves at least ``k`` pairs.  Both cases are
  sound: every pair qualifying in the sub-window qualifies in the
  superset window, and any qualifying pair *not* stored ranks after
  the stored list in the K-heap's canonical total order, so the first
  ``k`` filtered survivors are exactly the sub-window's answer --
  byte-identical, tie order included.

The store is keyed on the *underlying* trees (snapshot views unwrap to
their tree) through weak references, and every entry is tagged with
the generation pair observed at computation time; a mutation batch
bumps a tree's generation and the next lookup drops the stale store.
Counters land in ``result.stats.extra["rcp"]`` so tests and benchmarks
can assert reuse actually happened.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.core.engine import CPQContext
from repro.core.heap import heap_algorithm
from repro.core.result import ClosestPair, CPQResult

NAME = "RCP"

#: Candidate reserve: the traversal fetches at least this many pairs
#: even for small ``k``, so later queries with modestly larger ``k``
#: (or sub-windows) are served from the store.
RESERVE = 32


def _base_tree(tree):
    """Unwrap a :class:`~repro.storage.snapshot.SnapshotView`."""
    return getattr(tree, "tree", tree)


def _generation(tree) -> int:
    return int(getattr(tree, "generation", 0))


def _pair_qualifies(pair: ClosestPair, range_spec) -> bool:
    if range_spec.constrains_p and not range_spec.contains_point(pair.p):
        return False
    if range_spec.constrains_q and not range_spec.contains_point(pair.q):
        return False
    return True


@dataclass
class CandidateEntry:
    """One memoized window: its candidate pairs in canonical order."""

    range_spec: object
    pairs: Tuple[ClosestPair, ...]
    #: The traversal found fewer than ``kprime`` qualifying pairs, so
    #: ``pairs`` is the *entire* qualifying population of the window --
    #: reusable for any sub-window regardless of the requested ``k``.
    complete: bool
    kprime: int


class RangeCandidateIndex:
    """Per-tree-pair store of range candidate lists.

    Entries are grouped by *family* -- ``(metric order, colors)`` --
    because candidates computed under one color predicate or metric
    never answer another.  Within a family, lookups try the exact
    canonical window first, then scan for a containing window.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generations: Optional[Tuple[int, int]] = None
        self._families: Dict[tuple, Dict[tuple, CandidateEntry]] = {}
        self.hits = 0
        self.containment_hits = 0
        self.misses = 0
        self.invalidations = 0

    def _validate_generations(self, generations: Tuple[int, int]) -> None:
        if self._generations != generations:
            if self._generations is not None and self._families:
                self.invalidations += 1
            self._families = {}
            self._generations = generations

    def lookup(
        self,
        generations: Tuple[int, int],
        family: tuple,
        range_spec,
        k: int,
    ) -> Optional[Tuple[List[ClosestPair], str]]:
        """Return ``(pairs, source)`` when the store can answer.

        ``pairs`` is the full qualifying prefix for the requested
        window (callers truncate to ``k``); ``source`` is ``"exact"``
        or ``"containment"`` for the stats rollup.
        """
        with self._lock:
            self._validate_generations(generations)
            entries = self._families.get(family)
            if not entries:
                self.misses += 1
                return None
            exact = entries.get(range_spec.canonical())
            if exact is not None and (exact.complete or exact.kprime >= k):
                self.hits += 1
                return list(exact.pairs), "exact"
            for entry in entries.values():
                if not entry.range_spec.contains(range_spec):
                    continue
                filtered = [
                    p for p in entry.pairs
                    if _pair_qualifies(p, range_spec)
                ]
                if entry.complete or len(filtered) >= k:
                    self.containment_hits += 1
                    return filtered, "containment"
            self.misses += 1
            return None

    def store(
        self,
        generations: Tuple[int, int],
        family: tuple,
        entry: CandidateEntry,
    ) -> None:
        with self._lock:
            self._validate_generations(generations)
            self._families.setdefault(family, {})[
                entry.range_spec.canonical()
            ] = entry

    def stored_windows(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._families.values())

    def clear(self) -> None:
        """Drop every candidate list and reset the counters."""
        with self._lock:
            self._generations = None
            self._families = {}
            self.hits = 0
            self.containment_hits = 0
            self.misses = 0
            self.invalidations = 0


#: tree_p -> tree_q -> RangeCandidateIndex, all weakly referenced so a
#: dropped tree releases its candidate lists.
_INDEXES: "WeakKeyDictionary" = WeakKeyDictionary()
_INDEXES_LOCK = threading.Lock()


def index_for(tree_p, tree_q) -> RangeCandidateIndex:
    """The (shared) candidate index of one ordered tree pair."""
    base_p = _base_tree(tree_p)
    base_q = _base_tree(tree_q)
    with _INDEXES_LOCK:
        per_p = _INDEXES.get(base_p)
        if per_p is None:
            per_p = WeakKeyDictionary()
            _INDEXES[base_p] = per_p
        index = per_p.get(base_q)
        if index is None:
            index = RangeCandidateIndex()
            per_p[base_q] = index
        return index


def rcp_k_closest_pairs(ctx: CPQContext, request) -> CPQResult:
    """Answer a range K-CPQ through the memoized candidate structure.

    Falls back to (and memoizes) one CLIPPED traversal with
    ``K' = max(k, RESERVE)`` on a store miss.  Requires a range on the
    request -- without a window there is nothing for the structure to
    key on; use ``heap`` (or ``clipped``) directly instead.
    """
    if request.range is None:
        raise ValueError(
            "algorithm 'rcp' requires a range window; "
            "use 'heap' or 'clipped' for unconstrained queries"
        )
    if ctx.root_p is None or ctx.root_q is None:
        return ctx.result(NAME)
    index = index_for(ctx.tree_p, ctx.tree_q)
    generations = (_generation(ctx.tree_p), _generation(ctx.tree_q))
    family = (
        ctx.metric.p,
        request.colors.canonical() if request.colors is not None else None,
    )
    kprime = max(request.k, RESERVE)
    cached = index.lookup(generations, family, request.range, request.k)
    if cached is not None:
        pairs, source = cached
        complete = None
    else:
        inner = CPQContext(
            ctx.tree_p,
            ctx.tree_q,
            kprime,
            ctx.metric,
            cancel_check=ctx.cancel_check,
            tracer=ctx.tracer,
            roots=(ctx.root_p, ctx.root_q),
            root_areas=(ctx.root_area_p, ctx.root_area_q),
            range_spec=request.range,
            color_spec=request.colors,
        )
        heap_algorithm(
            inner,
            height_strategy=request.height_strategy,
            tie_break=request.tie_break,
            maxmax_pruning=request.maxmax_pruning,
            clip_mindist=True,
        )
        pairs = inner.kheap.sorted_pairs()
        complete = len(pairs) < kprime
        index.store(
            generations,
            family,
            CandidateEntry(
                range_spec=request.range,
                pairs=tuple(pairs),
                complete=complete,
                kprime=kprime,
            ),
        )
        ctx.stats.node_pairs_visited += inner.stats.node_pairs_visited
        ctx.stats.distance_computations += inner.stats.distance_computations
        ctx.stats.queue_inserts += inner.stats.queue_inserts
        ctx.stats.max_queue_size = max(
            ctx.stats.max_queue_size, inner.stats.max_queue_size
        )
        source = "computed"
    for pair in pairs[: request.k]:
        ctx.kheap.offer(pair)
    ctx.stats.extra["rcp"] = {
        "source": source,
        "kprime": kprime,
        "reserve": RESERVE,
        "stored_windows": index.stored_windows(),
        "hits": index.hits,
        "containment_hits": index.containment_hits,
        "misses": index.misses,
        "invalidations": index.invalidations,
        **({"complete": complete} if complete is not None else {}),
    }
    return ctx.result(NAME)
