"""The Sorted Distances recursive algorithm, STD (Section 3.4).

Improves SIM by visiting the surviving child pairs in ascending order
of MINMINDIST: pairs with smaller MINMINDIST are more likely to contain
the closest pair, so processing them first tightens ``T`` sooner and
prunes more of the remaining pairs.  Sorting uses a stable mergesort
(the paper compared six sorting methods and chose MergeSort); equal
MINMINDIST values are resolved by a tie-break chain (Section 3.6,
default T1 -- the experimental winner of Figure 2).
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import CPQContext, CPQOptions, run_recursive
from repro.core.height import FIX_AT_ROOT
from repro.core.result import CPQResult
from repro.core.ties import DEFAULT_TIE_BREAK, TieBreak

NAME = "STD"


def sorted_distances(
    ctx: CPQContext,
    height_strategy: str = FIX_AT_ROOT,
    tie_break: Optional[TieBreak] = None,
    maxmax_pruning: bool = True,
) -> CPQResult:
    """Run the Sorted Distances algorithm on a prepared query context.

    ``maxmax_pruning`` toggles the Section 3.8 MAXMAXDIST accumulation
    bound for K > 1 (off = the simple K-heap-threshold modification).
    """
    options = CPQOptions(
        prune=True,
        update_bound=True,
        sort=True,
        tie_break=tie_break if tie_break is not None else DEFAULT_TIE_BREAK,
        height_strategy=height_strategy,
        maxmax_k_pruning=maxmax_pruning,
    )
    return run_recursive(
        ctx, options, NAME,
        span_attrs={
            "tie_break": repr(options.tie_break),
            "height_strategy": height_strategy,
            "maxmax_k_pruning": maxmax_pruning,
        } if ctx.tracer.enabled else None,
    )
