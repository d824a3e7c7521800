"""Algorithm selection for the query service.

The paper's conclusion (Section 4.4) is not "always use HEAP": which
of the five algorithms wins depends on tree sizes, buffer space and K.
The planner encodes that policy using the analytical cost model of
:mod:`repro.analysis.cost_model` plus the tree heights and the buffer
capacity actually configured on the queried pair:

* trivial trees (both a single leaf) -- ``exh``: one leaf scan; the
  sorting/heap machinery is pure overhead;
* predicted workload of a handful of node pairs -- ``sim``: pruning
  pays, ordering does not;
* working set fits the LRU buffer -- ``std``: the recursive sorted
  algorithm re-reads pages, but the buffer absorbs the re-reads
  (Figure 6 shows STD converging to HEAP as B grows) and it avoids
  HEAP's global queue;
* otherwise -- ``heap``: the global best-first order minimises disk
  accesses when buffer space is scarce, the regime where the paper
  finds it strongest.

``NAIVE`` is never planned; it exists as an experimental baseline.
For trees the cost model cannot shape (empty, or not 2-dimensional)
the planner falls back to ``heap``, the paper's best general answer.

Requests carrying a range window route through a separate ranged
policy: the planner estimates the window's workspace selectivity
(:func:`~repro.analysis.cost_model.estimate_range_selectivity`) and
picks the memoized RCP candidate structure for small windows or the
CLIPPED traversal for large ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.cost_model import (
    DEFAULT_GRID_SKEW_THRESHOLD,
    IndexKindDecision,
    TreeShape,
    estimate_closest_pair_distance,
    estimate_cpq_accesses,
    estimate_range_selectivity,
    grid_occupancy_cv,
    recommend_index_kind,
)
from repro.core.api import ALGORITHM_REGISTRY, PLANNABLE_ALGORITHMS
from repro.obs.trace import NULL_TRACER

#: The algorithms this planner chooses between, from the shared
#: registry (every non-plannable entry -- NAIVE -- is excluded there).
CANDIDATES = PLANNABLE_ALGORITHMS

#: Chosen when the cost model cannot shape a tree: the paper's best
#: general answer.
FALLBACK = "heap"
assert FALLBACK in CANDIDATES


@dataclass(frozen=True)
class PlanDecision:
    """One planner verdict, with the evidence it was based on."""

    algorithm: str
    reason: str
    estimated_accesses: float
    estimated_distance: float
    buffer_pages: int
    height_p: int
    height_q: int
    k: int
    #: Estimated fraction of the workspace the query window covers
    #: (``None`` for unconstrained plans).
    range_selectivity: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "reason": self.reason,
            "estimated_accesses": self.estimated_accesses,
            "estimated_distance": self.estimated_distance,
            "buffer_pages": self.buffer_pages,
            "heights": [self.height_p, self.height_q],
            "k": self.k,
        }
        if self.range_selectivity is not None:
            out["range_selectivity"] = round(self.range_selectivity, 4)
        return out


class Planner:
    """Chooses a CPQ algorithm per request from cost-model estimates.

    ``sim_threshold`` is the predicted disk-access count below which
    candidate ordering cannot pay for itself.
    """

    def __init__(self, sim_threshold: float = 24.0,
                 rcp_selectivity_threshold: float = 0.10,
                 grid_skew_threshold: float = DEFAULT_GRID_SKEW_THRESHOLD):
        if sim_threshold < 0:
            raise ValueError("sim_threshold must be >= 0")
        if not 0.0 <= rcp_selectivity_threshold <= 1.0:
            raise ValueError(
                "rcp_selectivity_threshold must lie in [0, 1]"
            )
        if grid_skew_threshold <= 0.0:
            raise ValueError("grid_skew_threshold must be > 0")
        self.sim_threshold = sim_threshold
        #: Ranged plans: windows covering at most this workspace
        #: fraction go to the memoized RCP candidate structure (small
        #: windows produce small, highly reusable candidate lists);
        #: larger windows run the CLIPPED traversal directly.
        self.rcp_selectivity_threshold = rcp_selectivity_threshold
        #: Grid-occupancy CV above which a dataset counts as skewed and
        #: :meth:`plan_index` stops recommending the grid index.
        self.grid_skew_threshold = grid_skew_threshold

    def plan_index(
        self,
        points=None,
        *,
        n: Optional[int] = None,
        skew: Optional[float] = None,
        mutable: bool = False,
        selectivity: Optional[float] = None,
        tracer=NULL_TRACER,
    ) -> IndexKindDecision:
        """Recommend an index kind for one dataset (the catalog's
        ``kind="auto"`` path).

        Pass the raw ``points`` to have the skew statistic
        (:func:`~repro.analysis.cost_model.grid_occupancy_cv`)
        computed, or precomputed ``n`` / ``skew`` when the points are
        not at hand.  ``mutable`` marks datasets that take live
        mutation (forces ``dynamic``); ``selectivity`` is the expected
        query-window workspace fraction, when the workload is known.
        """
        if points is not None:
            n = len(points)
            if skew is None:
                skew = grid_occupancy_cv(points)
        if n is None:
            raise ValueError("plan_index needs points or n")
        if skew is None:
            skew = float("nan")
        decision = recommend_index_kind(
            n, skew, mutable=mutable, selectivity=selectivity,
            skew_threshold=self.grid_skew_threshold,
        )
        if tracer.enabled:
            with tracer.span("plan_index") as span:
                span.annotate(**decision.as_dict())
        return decision

    def plan(
        self,
        shape_p: Optional[TreeShape],
        shape_q: Optional[TreeShape],
        buffer_pages: int,
        k: int = 1,
        tracer=NULL_TRACER,
        range_spec=None,
    ) -> PlanDecision:
        """Pick an algorithm for one K-CPQ against a shaped tree pair.

        Parameters
        ----------
        shape_p, shape_q:
            Cost-model shapes of the two trees
            (:meth:`~repro.analysis.cost_model.TreeShape.from_tree`);
            ``None`` when the model cannot describe a tree (empty, or
            not 2-d), which forces the ``heap`` fallback.
        buffer_pages:
            Total LRU pages configured on the queried pair (both
            halves), compared against the predicted working set.
        k:
            Requested result cardinality; scales the predicted reach
            by ``sqrt(k)`` (uniform pair-population argument).
        tracer:
            Optional :class:`repro.obs.Tracer`; when enabled, the
            decision is recorded as a ``plan`` span carrying the full
            evidence (:meth:`PlanDecision.as_dict`).
        range_spec:
            Optional :class:`repro.core.constraints.RangeSpec`.  Ranged
            plans choose between the specialized range algorithms by
            estimated window selectivity
            (:func:`~repro.analysis.cost_model.estimate_range_selectivity`):
            at most ``rcp_selectivity_threshold`` -> ``rcp`` (memoized
            candidate structure), above it -> ``clipped`` (clipped
            best-first traversal).

        Returns
        -------
        PlanDecision
            The chosen algorithm plus the estimates it was based on
            (``estimated_accesses`` in disk accesses,
            ``estimated_distance`` in workspace units).
        """
        if not tracer.enabled:
            decision = self._decide(shape_p, shape_q, buffer_pages, k,
                                    range_spec)
        else:
            with tracer.span("plan") as span:
                decision = self._decide(shape_p, shape_q, buffer_pages, k,
                                        range_spec)
                span.annotate(**decision.as_dict())
        spec = ALGORITHM_REGISTRY[decision.algorithm]
        # Unconstrained plans stay within the paper's plannable set;
        # ranged plans may pick the specialized range algorithms.
        assert spec.plannable or spec.specialized, (
            f"planner chose unplannable {spec.name!r}"
        )
        return decision

    def _decide(
        self,
        shape_p: Optional[TreeShape],
        shape_q: Optional[TreeShape],
        buffer_pages: int,
        k: int,
        range_spec=None,
    ) -> PlanDecision:
        if shape_p is None or shape_q is None:
            return PlanDecision(
                algorithm="clipped" if range_spec is not None else FALLBACK,
                reason="cost model unavailable for this pair; "
                       "defaulting to the best general algorithm",
                estimated_accesses=math.inf,
                estimated_distance=math.nan,
                buffer_pages=buffer_pages,
                height_p=shape_p.height if shape_p else 0,
                height_q=shape_q.height if shape_q else 0,
                k=k,
            )
        height_p = shape_p.height
        height_q = shape_q.height
        if height_p == 1 and height_q == 1:
            return PlanDecision(
                algorithm="exh",
                reason="both trees are a single leaf; one leaf-pair "
                       "scan, ordering machinery is overhead",
                estimated_accesses=2.0,
                estimated_distance=math.nan,
                buffer_pages=buffer_pages,
                height_p=height_p,
                height_q=height_q,
                k=k,
            )
        distance = estimate_closest_pair_distance(shape_p, shape_q)
        # E[d_K] of a uniform pair population scales like sqrt(K) times
        # the 1-CP distance; the bound a K-CPQ converges to is d_K.
        reach = distance * math.sqrt(k)
        accesses = estimate_cpq_accesses(shape_p, shape_q, t=reach)
        if range_spec is not None:
            return self._decide_ranged(
                shape_p, shape_q, buffer_pages, k,
                range_spec, distance, accesses,
            )
        if accesses <= self.sim_threshold:
            algorithm = "sim"
            reason = (
                f"~{accesses:.0f} predicted accesses <= "
                f"{self.sim_threshold:g}; pruning pays, ordering "
                f"does not"
            )
        elif buffer_pages >= accesses:
            algorithm = "std"
            reason = (
                f"buffer of {buffer_pages} pages covers the "
                f"~{accesses:.0f}-access working set; recursive "
                f"sorted descent re-reads for free"
            )
        else:
            algorithm = "heap"
            reason = (
                f"~{accesses:.0f} predicted accesses exceed the "
                f"{buffer_pages}-page buffer; global best-first "
                f"order minimises disk I/O"
            )
        return PlanDecision(
            algorithm=algorithm,
            reason=reason,
            estimated_accesses=accesses,
            estimated_distance=distance,
            buffer_pages=buffer_pages,
            height_p=height_p,
            height_q=height_q,
            k=k,
        )

    def _decide_ranged(
        self,
        shape_p: TreeShape,
        shape_q: TreeShape,
        buffer_pages: int,
        k: int,
        range_spec,
        distance: float,
        accesses: float,
    ) -> PlanDecision:
        """Choose between the specialized range algorithms.

        Selectivity is estimated per constrained side and the largest
        taken (the side admitting more points dominates the traversal's
        qualifying population).
        """
        sides = []
        if range_spec.constrains_p:
            sides.append(estimate_range_selectivity(shape_p, range_spec))
        if range_spec.constrains_q:
            sides.append(estimate_range_selectivity(shape_q, range_spec))
        selectivity = max(sides) if sides else 1.0
        if selectivity <= self.rcp_selectivity_threshold:
            algorithm = "rcp"
            reason = (
                f"window covers ~{selectivity:.1%} of the workspace "
                f"(<= {self.rcp_selectivity_threshold:.0%}); small "
                f"candidate lists memoize well"
            )
        else:
            algorithm = "clipped"
            reason = (
                f"window covers ~{selectivity:.1%} of the workspace "
                f"(> {self.rcp_selectivity_threshold:.0%}); clipped "
                f"best-first traversal without memoization"
            )
        return PlanDecision(
            algorithm=algorithm,
            reason=reason,
            estimated_accesses=accesses,
            estimated_distance=distance,
            buffer_pages=buffer_pages,
            height_p=shape_p.height,
            height_q=shape_q.height,
            k=k,
            range_selectivity=selectivity,
        )
