"""The Naive algorithm (Section 3.1).

Recursively visits *every* pair of subtrees and computes every point
pair distance; no pruning at all.  Exponentially expensive -- the paper
excludes it from the experiments -- but it is the ground truth the test
suite compares everything against on small inputs.
"""

from __future__ import annotations

from repro.core.engine import CPQContext, CPQOptions, run_recursive
from repro.core.height import FIX_AT_ROOT
from repro.core.result import CPQResult

NAME = "NAIVE"


def naive(
    ctx: CPQContext,
    height_strategy: str = FIX_AT_ROOT,
) -> CPQResult:
    """Run the Naive algorithm on a prepared query context."""
    options = CPQOptions(
        prune=False,
        update_bound=False,
        sort=False,
        height_strategy=height_strategy,
    )
    return run_recursive(ctx, options, NAME)
