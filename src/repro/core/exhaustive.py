"""The Exhaustive algorithm, EXH (Section 3.2).

Improves Naive with the left part of Inequality 1: a pair of subtrees
is descended only if MINMINDIST of their MBRs does not exceed the best
distance ``T`` found so far (the K-heap top once full, for K > 1).
Candidates are processed in natural (index) order and ``T`` is updated
from discovered point pairs only.
"""

from __future__ import annotations

from repro.core.engine import CPQContext, CPQOptions, run_recursive
from repro.core.height import FIX_AT_ROOT
from repro.core.result import CPQResult

NAME = "EXH"


def exhaustive(
    ctx: CPQContext,
    height_strategy: str = FIX_AT_ROOT,
) -> CPQResult:
    """Run the Exhaustive algorithm on a prepared query context."""
    options = CPQOptions(
        prune=True,
        update_bound=False,
        sort=False,
        height_strategy=height_strategy,
    )
    return run_recursive(ctx, options, NAME)
