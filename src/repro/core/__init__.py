"""The paper's contribution: K closest pair query (K-CPQ) algorithms.

Five algorithms discover the K closest pairs between two R-tree-indexed
point sets (Section 3 of the paper):

* :mod:`~repro.core.naive` -- recursive, no pruning (baseline only).
* :mod:`~repro.core.exhaustive` -- EXH: prunes subtree pairs whose
  MINMINDIST exceeds the best distance ``T`` (Inequality 1, left).
* :mod:`~repro.core.simple` -- SIM: additionally tightens ``T`` from
  MINMAXDIST before descending (Inequality 2).
* :mod:`~repro.core.sorted_distances` -- STD: SIM plus processing
  candidate pairs in ascending MINMINDIST order (merge-sorted), with
  the T1-T5 tie-break criteria of Section 3.6.
* :mod:`~repro.core.heap` -- HEAP: the iterative algorithm; a global
  main-memory min-heap of internal-node pairs replaces recursion.

:func:`~repro.core.api.k_closest_pairs` is the public entry point.
"""

from repro.core.api import (
    ALGORITHM_REGISTRY,
    ALGORITHMS,
    COLOR_ALGORITHMS,
    CORE_ALGORITHMS,
    PLANNABLE_ALGORITHMS,
    RANGE_ALGORITHMS,
    AlgorithmSpec,
    CPQRequest,
    DeadlineExceeded,
    closest_pair,
    k_closest_pairs,
)
from repro.core.constraints import ColorSpec, RangeSpec
from repro.core.height import FIX_AT_LEAVES, FIX_AT_ROOT
from repro.core.kheap import KHeap
from repro.core.result import ClosestPair, CPQResult
from repro.core.ties import TIE_CRITERIA, TieCriterion

__all__ = [
    "k_closest_pairs",
    "closest_pair",
    "CPQRequest",
    "AlgorithmSpec",
    "ALGORITHM_REGISTRY",
    "ALGORITHMS",
    "CORE_ALGORITHMS",
    "PLANNABLE_ALGORITHMS",
    "RANGE_ALGORITHMS",
    "COLOR_ALGORITHMS",
    "RangeSpec",
    "ColorSpec",
    "DeadlineExceeded",
    "ClosestPair",
    "CPQResult",
    "KHeap",
    "TieCriterion",
    "TIE_CRITERIA",
    "FIX_AT_ROOT",
    "FIX_AT_LEAVES",
]
