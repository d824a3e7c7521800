"""An analytical cost model for closest pair queries.

Extends the spatial-join analysis of Theodoridis, Stefanakis & Sellis
(ICDE'98) to CPQs.  A best-case CPQ algorithm (STD/HEAP with a quickly
tightened bound ``T``) must process every node pair whose MINMINDIST
does not exceed the final ``T`` -- the distance of the K-th closest
pair.  The model therefore predicts

    accesses  =  2 + sum over levels j of
                 2 * n_P(j) * n_Q(j) * Pr[within T along x] *
                                       Pr[within T along y]

where ``n_X(j)`` is the node count of tree X at level j and the
per-axis proximity probability treats node centres as uniform in
their workspace (the standard uniformity assumption of R-tree
analysis).  The two ingredients are:

* :func:`interval_proximity_probability` -- the exact probability that
  two random intervals lie within a given reach of each other;
* :func:`estimate_closest_pair_distance` -- the expected 1-CP distance
  of two uniform sets (or the workspace gap when they are disjoint).

All of this is approximate by design (uniformity, axis independence,
an L-infinity reach standing in for the Euclidean ball); the paper's
conclusions live on orders of magnitude and crossover locations, and
the validation benchmark checks the model at that granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.datasets.workspace import Workspace
from repro.rtree.tree import RTree


def _cdf_difference(t: float, a: float, b: float, c: float, d: float) -> float:
    """P(U - V <= t) for U ~ Uniform[a, b], V ~ Uniform[c, d]."""
    if b < a or d < c:
        raise ValueError("invalid interval bounds")
    if b == a and d == c:
        return 1.0 if a - c <= t else 0.0
    if b == a:
        # P(a - V <= t) = P(V >= a - t)
        return _clamped_fraction(a - t, c, d, lower_tail=False)
    if d == c:
        # P(U <= c + t)
        return _clamped_fraction(c + t, a, b, lower_tail=True)
    # Integrate P(U <= v + t) over v in [c, d]:
    #   f(v) = (min(b, max(a, v + t)) - a) / (b - a)
    # piecewise linear with breakpoints at v = a - t and v = b - t.
    lo = a - t
    hi = b - t
    total = 0.0
    # Region v <= lo: f = 0 (contributes nothing).
    # Region lo <= v <= hi: f = (v + t - a) / (b - a).
    seg_lo = max(c, lo)
    seg_hi = min(d, hi)
    if seg_hi > seg_lo:
        # integral of a linear ramp
        f_lo = (seg_lo + t - a) / (b - a)
        f_hi = (seg_hi + t - a) / (b - a)
        total += 0.5 * (f_lo + f_hi) * (seg_hi - seg_lo)
    # Region v >= hi: f = 1.
    seg_lo = max(c, hi)
    if d > seg_lo:
        total += d - seg_lo
    return total / (d - c)


def _clamped_fraction(
    threshold: float, lo: float, hi: float, lower_tail: bool
) -> float:
    """P(X <= threshold) or P(X >= threshold) for X ~ Uniform[lo, hi]."""
    if hi == lo:
        at_or_below = 1.0 if lo <= threshold else 0.0
        return at_or_below if lower_tail else (
            1.0 if lo >= threshold else 0.0
        )
    fraction = (threshold - lo) / (hi - lo)
    fraction = min(1.0, max(0.0, fraction))
    return fraction if lower_tail else 1.0 - fraction


def interval_proximity_probability(
    center_range_a: Tuple[float, float],
    length_a: float,
    center_range_b: Tuple[float, float],
    length_b: float,
    reach: float,
) -> float:
    """Probability two random intervals are within ``reach``.

    Interval A has length ``length_a`` and a centre uniform in
    ``center_range_a`` (likewise B).  They are "within reach" when the
    gap between them along the axis is at most ``reach``, i.e. when
    ``|centre_A - centre_B| <= (length_a + length_b) / 2 + reach``.
    Exact under the uniform-centre assumption.

    Parameters
    ----------
    center_range_a, center_range_b:
        ``(lo, hi)`` bounds of each interval centre's uniform
        distribution, in workspace units.
    length_a, length_b:
        Fixed interval lengths (average node extents along the axis),
        workspace units, ``>= 0``.
    reach:
        Maximum allowed gap between the intervals (the pruning bound
        ``T`` projected on this axis), workspace units, ``>= 0``.

    Returns
    -------
    float
        A probability in ``[0, 1]``.
    """
    if reach < 0:
        raise ValueError("reach must be >= 0")
    if length_a < 0 or length_b < 0:
        raise ValueError("interval lengths must be >= 0")
    a, b = center_range_a
    c, d = center_range_b
    radius = (length_a + length_b) / 2.0 + reach
    if a == b and c == d:
        # Two point masses: the subtraction of CDFs below would lose
        # the boundary case |difference| == radius.
        return 1.0 if abs(a - c) <= radius else 0.0
    return _cdf_difference(radius, a, b, c, d) - _cdf_difference(
        -radius, a, b, c, d
    )


@dataclass(frozen=True)
class LevelShape:
    """Aggregate geometry of one tree level."""

    level: int
    node_count: int
    avg_width: float
    avg_height: float


@dataclass
class TreeShape:
    """What the cost model needs to know about one R-tree."""

    levels: List[LevelShape]  # index 0 = leaf level
    workspace: Workspace
    point_count: int

    @property
    def height(self) -> int:
        return len(self.levels)

    @classmethod
    def from_tree(
        cls, tree: RTree, workspace: Optional[Workspace] = None
    ) -> "TreeShape":
        """Measure an actual tree (exact node counts and extents)."""
        if tree.root_id is None:
            raise ValueError("cannot shape an empty tree")
        counts = [0] * tree.height
        widths = [0.0] * tree.height
        heights = [0.0] * tree.height
        for node in tree.iter_nodes():
            mbr = node.mbr()
            counts[node.level] += 1
            widths[node.level] += mbr.side(0)
            heights[node.level] += mbr.side(1)
        if workspace is None:
            root_mbr = tree.read_root().mbr()
            workspace = Workspace(
                root_mbr.lo[0], root_mbr.lo[1],
                max(root_mbr.hi[0], root_mbr.lo[0] + 1e-12),
                max(root_mbr.hi[1], root_mbr.lo[1] + 1e-12),
            )
        levels = [
            LevelShape(j, counts[j], widths[j] / counts[j],
                       heights[j] / counts[j])
            for j in range(tree.height)
        ]
        return cls(levels, workspace, len(tree))

    @classmethod
    def uniform(
        cls,
        n: int,
        workspace: Workspace,
        fanout: float = 14.0,
        height: Optional[int] = None,
    ) -> "TreeShape":
        """Predict the shape of a tree over uniform data analytically.

        Nodes at level j: ``ceil(n / fanout^(j+1))``; each covers an
        approximately square share of the workspace area.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if fanout <= 1:
            raise ValueError("fanout must be > 1")
        if height is None:
            height = max(1, math.ceil(math.log(max(n, 2), fanout)))
        area = workspace.area
        levels = []
        for j in range(height):
            count = max(1, math.ceil(n / fanout ** (j + 1)))
            side = math.sqrt(area / count)
            levels.append(
                LevelShape(
                    j,
                    count,
                    min(side, workspace.width),
                    min(side, workspace.height),
                )
            )
        return cls(levels, workspace, n)


def estimate_closest_pair_distance(
    shape_p: TreeShape, shape_q: TreeShape
) -> float:
    """Expected 1-CP distance between the two (uniform) point sets.

    For overlapping workspaces with ``n`` cross pairs inside the shared
    region of area ``A``: the minimum of ``n`` approximately-uniform
    pair distances has E[d*] ~ sqrt(A / (pi * n)).  For disjoint
    workspaces the answer is dominated by the workspace gap.

    This is the model's guess at the bound ``T`` a well-pruned
    algorithm converges to (the quantity the paper's Inequality 2
    tightens during the descent, Section 3.2).

    Parameters
    ----------
    shape_p, shape_q:
        The two tree shapes; only their workspaces and point counts
        are used here.

    Returns
    -------
    float
        Euclidean distance in workspace units.  Uniformity makes this
        an underestimate on clustered data (see the worked example in
        ``docs/OBSERVABILITY.md``).
    """
    wp = shape_p.workspace
    wq = shape_q.workspace
    ox = min(wp.xmax, wq.xmax) - max(wp.xmin, wq.xmin)
    oy = min(wp.ymax, wq.ymax) - max(wp.ymin, wq.ymin)
    gap_x = max(0.0, -ox)
    gap_y = max(0.0, -oy)
    if gap_x > 0 or gap_y > 0:
        return math.hypot(gap_x, gap_y)
    shared = ox * oy
    in_region_p = shape_p.point_count * shared / wp.area
    in_region_q = shape_q.point_count * shared / wq.area
    pairs = max(1.0, in_region_p * in_region_q)
    return math.sqrt(shared / (math.pi * pairs))


#: Measured CPU cost of one entry pair in each pairwise expansion
#: kernel, in nanoseconds (``benchmarks/bench_kernels.py``, M = 21
#: nodes, d = 2, Euclidean; re-run it after kernel changes and update
#: these).  Keys are the :data:`repro.geometry.vectorized.KERNEL_STATS`
#: kernel names.
KERNEL_NS_PER_PAIR = {
    "minmin": 112.0,
    "minmax": 616.0,
    "maxmax": 88.0,
    "points": 54.0,
}


def estimate_cpu_ms(kernels: dict) -> float:
    """Predicted CPU milliseconds spent in the pairwise kernels.

    Folds a kernel tally -- the ``"kernels"`` section of the service
    metrics snapshot, i.e. ``{name: {"pairs": ...}}`` from
    :meth:`repro.geometry.vectorized.KernelStats.snapshot` -- through
    the :data:`KERNEL_NS_PER_PAIR` calibration table.  This is the
    CPU-side complement of :func:`estimate_cpq_accesses` (which prices
    only I/O): comparing the two tells an operator whether a workload
    is disk- or compute-bound, and comparing this estimate against the
    measured latency rollups recalibrates the table.

    Unknown kernel names are priced at the most expensive known rate
    rather than dropped, so the estimate stays an upper-ish bound when
    new kernels land before their calibration does.
    """
    fallback = max(KERNEL_NS_PER_PAIR.values())
    total_ns = 0.0
    for name, tally in kernels.items():
        pairs = tally["pairs"] if isinstance(tally, dict) else tally
        total_ns += pairs * KERNEL_NS_PER_PAIR.get(name, fallback)
    return total_ns / 1e6


def _center_range(lo: float, hi: float, side: float) -> Tuple[float, float]:
    half = min(side, hi - lo) / 2.0
    return lo + half, max(lo + half, hi - half)


def estimate_cpq_accesses(
    shape_p: TreeShape,
    shape_q: TreeShape,
    t: Optional[float] = None,
) -> float:
    """Predicted disk accesses of a well-pruned 1-CP query.

    A best-case algorithm (STD/HEAP, Section 3 of the paper) must
    visit every node pair whose MINMINDIST does not exceed the final
    pruning bound; this sums, level by level, the expected number of
    such pairs times two reads per pair.

    Parameters
    ----------
    shape_p, shape_q:
        Tree shapes from :meth:`TreeShape.from_tree` (measured) or
        :meth:`TreeShape.uniform` (analytic).
    t:
        The pruning bound the algorithm converges to, in workspace
        units; defaults to :func:`estimate_closest_pair_distance`.
        Pass ``E[d_1] * sqrt(k)`` to approximate a K-CPQ (the scaling
        the service planner uses).

    Returns
    -------
    float
        Expected node fetches (the paper's disk-access unit, i.e.
        buffer misses with a cold buffer).  Each qualifying node pair
        costs two accesses (one per side); the two roots are always
        read.  Compare against measurements with
        ``benchmarks/test_cost_model.py``.
    """
    if t is None:
        t = estimate_closest_pair_distance(shape_p, shape_q)
    wp = shape_p.workspace
    wq = shape_q.workspace
    total = 2.0  # the roots
    # Pair levels from the leaves upwards, excluding each root (which
    # is read once, not once per pair).
    depth = min(shape_p.height, shape_q.height)
    for j in range(depth):
        lp = shape_p.levels[j]
        lq = shape_q.levels[j]
        if lp.node_count <= 1 and lq.node_count <= 1:
            continue  # root-vs-root is covered by the constant term
        px = interval_proximity_probability(
            _center_range(wp.xmin, wp.xmax, lp.avg_width),
            lp.avg_width,
            _center_range(wq.xmin, wq.xmax, lq.avg_width),
            lq.avg_width,
            t,
        )
        py = interval_proximity_probability(
            _center_range(wp.ymin, wp.ymax, lp.avg_height),
            lp.avg_height,
            _center_range(wq.ymin, wq.ymax, lq.avg_height),
            lq.avg_height,
            t,
        )
        total += 2.0 * lp.node_count * lq.node_count * px * py
    return total


def estimate_range_selectivity(shape: TreeShape, range_spec) -> float:
    """Fraction of a tree's workspace a query window covers.

    Under the model's uniformity assumption this is also the fraction
    of the tree's points that satisfy the window -- the *selectivity*
    of a range-constrained CPQ on that side.  The window is clipped to
    the workspace first (the part outside holds no points), so the
    result is always in ``[0, 1]``.

    Parameters
    ----------
    shape:
        The tree's cost-model shape; only its workspace is used.
    range_spec:
        A :class:`repro.core.constraints.RangeSpec` (or anything with
        2-d ``lo`` / ``hi`` corner tuples).

    Returns
    -------
    float
        Covered workspace fraction; the service planner routes low
        values to the RCP candidate structure and the rest to the
        CLIPPED traversal.
    """
    ws = shape.workspace
    lo, hi = range_spec.lo, range_spec.hi
    if len(lo) != 2:
        return 1.0  # the cost model is 2-d; do not pretend otherwise
    ox = min(ws.xmax, hi[0]) - max(ws.xmin, lo[0])
    oy = min(ws.ymax, hi[1]) - max(ws.ymin, lo[1])
    if ox <= 0.0 or oy <= 0.0 or ws.area <= 0.0:
        return 0.0
    return min(1.0, (ox * oy) / ws.area)


# ---------------------------------------------------------------------------
# Index-kind recommendation (the catalog's planner dimension)
# ---------------------------------------------------------------------------

#: Index kinds the catalog can build and the planner chooses between.
#: ``str`` = Sort-Tile-Recursive packed (repro.rtree.bulk), ``grid`` =
#: uniform-grid packed (repro.rtree.grid), ``dynamic`` = one-at-a-time
#: R* insertion (updatable in place).
INDEX_KINDS = ("str", "grid", "dynamic")

#: Coefficient of variation of grid-cell occupancy above which data
#: counts as skewed: uniform points at ~one leaf per cell sit well
#: below (Poisson counts give CV ~ 1/sqrt(occupancy)), clustered real
#: data (SEQUOIA-like) sits well above.
DEFAULT_GRID_SKEW_THRESHOLD = 0.75


@dataclass(frozen=True)
class IndexKindDecision:
    """One index-kind verdict, with the evidence it was based on."""

    kind: str
    reason: str
    #: Occupancy CV of the probe grid (NaN when not computed).
    skew: float
    #: Point count the decision describes.
    n: int
    #: Query-window selectivity the decision accounted for (None for
    #: unconstrained workloads).
    selectivity: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "reason": self.reason,
            "skew": round(self.skew, 4) if self.skew == self.skew
            else None,
            "n": self.n,
        }
        if self.selectivity is not None:
            out["selectivity"] = round(self.selectivity, 4)
        return out


def grid_occupancy_cv(
    points, cells_per_axis: Optional[int] = None, dimension: int = 2
) -> float:
    """Skew statistic: coefficient of variation of grid occupancy.

    Overlays a ``cells_per_axis``-per-axis uniform grid on the points'
    bounding box and returns ``std / mean`` of the per-cell counts
    over **all** cells of the box (empty ones included -- emptiness is
    exactly what clustering produces).  Uniform data at a few points
    per cell scores well under 1; clustered data scores above, growing
    with the clustering.  The default resolution targets ~8 expected
    points per cell so the Poisson noise floor (``1/sqrt(8)`` ~ 0.35)
    stays clearly below :data:`DEFAULT_GRID_SKEW_THRESHOLD`.
    """
    n = len(points)
    if n == 0:
        return float("nan")
    if cells_per_axis is None:
        cells_per_axis = max(
            2, int(round((n / 8.0) ** (1.0 / dimension)))
        )
    from repro.rtree.grid import grid_occupancy

    counts = grid_occupancy(points, cells_per_axis, dimension=dimension)
    total_cells = cells_per_axis ** dimension
    mean = n / total_cells
    if mean <= 0:
        return float("nan")
    sum_sq = sum(c * c for c in counts.values())
    variance = sum_sq / total_cells - mean * mean
    if variance < 0.0:
        variance = 0.0
    return math.sqrt(variance) / mean


def recommend_index_kind(
    n: int,
    skew: float,
    mutable: bool = False,
    selectivity: Optional[float] = None,
    skew_threshold: float = DEFAULT_GRID_SKEW_THRESHOLD,
    selectivity_threshold: float = 0.05,
) -> IndexKindDecision:
    """Pick an index kind for a dataset's shape and workload.

    The policy mirrors what ``benchmarks/bench_catalog.py`` measures:

    * a **mutable** dataset needs ``dynamic`` -- packed indexes are
      read-optimised snapshots that would need a rebuild per batch;
    * **low skew** (uniform-ish data) -> ``grid``: one arithmetic pass
      builds leaves as tight as STR's;
    * **skewed** data -> ``str``: sort-tile recursion adapts tile
      boundaries to the data, where a uniform grid leaves elongated,
      overlapping leaves;
    * a tight expected query window (``selectivity`` at most
      ``selectivity_threshold``) also prefers ``str`` -- clipped
      traversals prune best against data-partitioned MBRs.
    """
    if mutable:
        return IndexKindDecision(
            kind="dynamic",
            reason="dataset takes live mutation; packed indexes are "
                   "read-only snapshots needing a rebuild per batch",
            skew=skew, n=n, selectivity=selectivity,
        )
    if selectivity is not None and selectivity <= selectivity_threshold:
        return IndexKindDecision(
            kind="str",
            reason=f"expected query windows cover ~{selectivity:.1%} "
                   f"of the workspace (<= {selectivity_threshold:.0%}); "
                   f"data-partitioned STR leaves prune tight windows "
                   f"best",
            skew=skew, n=n, selectivity=selectivity,
        )
    if skew == skew and skew <= skew_threshold:  # NaN-safe
        return IndexKindDecision(
            kind="grid",
            reason=f"grid-occupancy CV {skew:.2f} <= "
                   f"{skew_threshold:g}: near-uniform data packs into "
                   f"tight grid leaves in one arithmetic pass",
            skew=skew, n=n, selectivity=selectivity,
        )
    return IndexKindDecision(
        kind="str",
        reason=(
            f"grid-occupancy CV {skew:.2f} > {skew_threshold:g}: "
            f"skewed data needs sort-tile leaf boundaries"
            if skew == skew else
            "no skew statistic available; STR is the safe default"
        ),
        skew=skew, n=n, selectivity=selectivity,
    )
