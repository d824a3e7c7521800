"""NumPy batch versions of the Section 2.3 metrics.

The CPQ algorithms repeatedly evaluate metrics between *every* pair of
entries of two R-tree nodes (up to M x M = 441 pairs per node pair with
the paper's 1 KiB pages).  These helpers compute whole matrices of
MINMINDIST / MAXMAXDIST / MINMAXDIST values in a handful of vectorised
operations, which is what keeps the pure-Python reproduction fast
enough for paper-scale experiments.

All functions take rectangle arrays ``lo`` / ``hi`` of shape ``(n, k)``
and return an ``(n, m)`` matrix for the cross product of the two sides.
Points are passed as degenerate rectangles or as ``(n, k)`` coordinate
arrays where noted.

Every public kernel tallies its invocation into :data:`KERNEL_STATS`
(calls and entry pairs evaluated), which the service metrics snapshot
exposes for cost-model recalibration.

The MINMAXDIST kernel uses a branch-free closed form of Definition 3
for finite-``p`` Minkowski metrics instead of enumerating the 2k x 2k
face pairs.  Fixing a face means pinning one dimension of one rectangle
to a bound; only the pinned dimensions change their per-dimension
MAXDIST contribution, so with ``S`` the powered MAXDIST sum the face
minimum is the best of

* ``S - Mx_j^p + pAB_j^p`` when both faces pin the *same* dimension
  ``j`` (``pAB_j`` is the closest bound-to-bound gap), and
* ``S + (pA_j^p - Mx_j^p) + (pB_l^p - Mx_l^p)`` over ``j != l`` when
  they pin different dimensions (``pA_j`` / ``pB_l`` are the best
  pinned-bound MAXDIST deltas of the respective sides).

The cross-dimension minimum is found without materialising the
``k x k`` grid by combining each ``j`` with the best ``l != j`` via the
two smallest values of the ``B``-side deltas.
"""

from __future__ import annotations

import math
import threading
from typing import Dict

import numpy as np

from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric


class KernelStats:
    """Process-wide tally of pairwise-kernel invocations.

    Tracks, per kernel name, how many times it ran and how many entry
    pairs it evaluated, exposed in the service metrics snapshot
    (``snapshot()["kernels"]``) so the cost model can be recalibrated
    against real pair counts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, list] = {}

    def record(self, kernel: str, pairs: int) -> None:
        """Count one invocation of ``kernel`` covering ``pairs`` pairs."""
        with self._lock:
            cell = self._counts.setdefault(kernel, [0, 0])
            cell[0] += 1
            cell[1] += int(pairs)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Return ``{kernel: {"calls": c, "pairs": p}}``."""
        with self._lock:
            return {
                name: {"calls": cell[0], "pairs": cell[1]}
                for name, cell in sorted(self._counts.items())
            }

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


#: Shared tally used by all kernels in this module.
KERNEL_STATS = KernelStats()


def _combine(deltas: np.ndarray, metric: MinkowskiMetric) -> np.ndarray:
    """Aggregate a (..., k) delta array into (...) distances."""
    p = metric.p
    if p == 2.0:
        return np.sqrt(np.sum(deltas * deltas, axis=-1))
    if p == 1.0:
        return np.sum(deltas, axis=-1)
    if p == math.inf:
        return np.max(deltas, axis=-1)
    return np.sum(deltas ** p, axis=-1) ** (1.0 / p)


def _power(deltas: np.ndarray, p: float) -> np.ndarray:
    """Per-dimension power term of a finite-``p`` Minkowski metric."""
    if p == 2.0:
        return deltas * deltas
    if p == 1.0:
        return deltas
    return deltas ** p


def _finish(powered: np.ndarray, p: float) -> np.ndarray:
    """Invert :func:`_power` sums into distances (finite ``p`` only)."""
    if p == 2.0:
        return np.sqrt(powered)
    if p == 1.0:
        return powered
    return powered ** (1.0 / p)


def pairwise_point_distances(
    points_a: np.ndarray,
    points_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """All distances between two point arrays; shape ``(n, m)``."""
    deltas = np.abs(points_a[:, None, :] - points_b[None, :, :])
    out = _combine(deltas, metric)
    KERNEL_STATS.record("points", out.size)
    return out


def pairwise_mindist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MINMINDIST matrix between two rectangle arrays; shape ``(n, m)``."""
    gap_ab = lo_a[:, None, :] - hi_b[None, :, :]
    gap_ba = lo_b[None, :, :] - hi_a[:, None, :]
    deltas = np.maximum(np.maximum(gap_ab, gap_ba), 0.0)
    out = _combine(deltas, metric)
    KERNEL_STATS.record("minmin", out.size)
    return out


def _maxdist_matrix(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric,
) -> np.ndarray:
    deltas = np.maximum(
        np.abs(hi_a[:, None, :] - lo_b[None, :, :]),
        np.abs(hi_b[None, :, :] - lo_a[:, None, :]),
    )
    return _combine(deltas, metric)


def pairwise_maxdist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MAXMAXDIST matrix between two rectangle arrays; shape ``(n, m)``."""
    out = _maxdist_matrix(lo_a, hi_a, lo_b, hi_b, metric)
    KERNEL_STATS.record("maxmax", out.size)
    return out


def _minmaxdist_faces(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric,
) -> np.ndarray:
    """Literal Definition 3: min over 2k x 2k face pairs of MAXDIST.

    Kept as the Chebyshev (``p = inf``) path, where the powered-sum
    decomposition of the branch-free form does not apply.
    """
    n, k = lo_a.shape
    m = lo_b.shape[0]
    best = np.full((n, m), np.inf)
    bounds_a = (lo_a, hi_a)
    bounds_b = (lo_b, hi_b)
    for da in range(k):
        for side_a in range(2):
            face_lo_a = lo_a.copy()
            face_hi_a = hi_a.copy()
            face_lo_a[:, da] = face_hi_a[:, da] = bounds_a[side_a][:, da]
            for db in range(k):
                for side_b in range(2):
                    face_lo_b = lo_b.copy()
                    face_hi_b = hi_b.copy()
                    face_lo_b[:, db] = face_hi_b[:, db] = (
                        bounds_b[side_b][:, db]
                    )
                    d = _maxdist_matrix(
                        face_lo_a, face_hi_a, face_lo_b, face_hi_b, metric
                    )
                    np.minimum(best, d, out=best)
    return best


def _minmaxdist_powered(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    p: float,
) -> np.ndarray:
    """Branch-free powered MINMAXDIST (see module docstring)."""
    k = lo_a.shape[1]
    a_lo = lo_a[:, None, :]
    a_hi = hi_a[:, None, :]
    b_lo = lo_b[None, :, :]
    b_hi = hi_b[None, :, :]

    # Per-dimension MAXDIST delta and its powered running sum S.
    mx = np.maximum(np.abs(a_hi - b_lo), np.abs(b_hi - a_lo))
    mxp = _power(mx, p)
    total = mxp[..., 0].copy()
    for j in range(1, k):
        total += mxp[..., j]

    # Best pinned-bound deltas: pa pins side A to one bound, pb pins
    # side B, pab pins both (same dimension).
    pa = np.minimum(
        np.maximum(np.abs(a_lo - b_lo), np.abs(b_hi - a_lo)),
        np.maximum(np.abs(a_hi - b_lo), np.abs(b_hi - a_hi)),
    )
    pb = np.minimum(
        np.maximum(np.abs(b_lo - a_lo), np.abs(a_hi - b_lo)),
        np.maximum(np.abs(b_hi - a_lo), np.abs(a_hi - b_hi)),
    )
    pab = np.minimum(
        np.minimum(np.abs(a_lo - b_lo), np.abs(a_lo - b_hi)),
        np.minimum(np.abs(a_hi - b_lo), np.abs(a_hi - b_hi)),
    )
    pabp = _power(pab, p)

    # Both faces pin the same dimension j.
    best = np.min((total[..., None] - mxp) + pabp, axis=-1)

    # Faces pin different dimensions j (side A) and l != j (side B):
    # for each j, the best l is either the global minimum of the B-side
    # deltas or, when that minimum sits at j itself, the runner-up.
    if k > 1:
        u = _power(pa, p) - mxp
        v = _power(pb, p) - mxp
        v_sorted = np.sort(v, axis=-1)
        v_best = v_sorted[..., 0]
        v_second = v_sorted[..., 1]
        v_arg = np.argmin(v, axis=-1)
        dims = np.arange(k)
        v_excl = np.where(
            v_arg[..., None] == dims, v_second[..., None], v_best[..., None]
        )
        cross = np.min(u + v_excl, axis=-1)
        best = np.minimum(best, total + cross)
    return best


def pairwise_minmaxdist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MINMAXDIST matrix between two rectangle arrays; shape ``(n, m)``.

    For finite ``p`` this evaluates the branch-free closed form of the
    face-pair minimum (module docstring); for the Chebyshev metric it
    falls back to literal face enumeration.  ``repro.geometry.metrics``
    mirrors the same arithmetic, so its scalar oracle produces
    bit-identical values for p in {1, 2, inf}; other p agree to the
    last ulp (NumPy's array power and CPython's scalar ``pow`` may
    round differently).
    """
    if metric.p == math.inf:
        out = _minmaxdist_faces(lo_a, hi_a, lo_b, hi_b, metric)
    else:
        out = _finish(
            _minmaxdist_powered(lo_a, hi_a, lo_b, hi_b, metric.p), metric.p
        )
    KERNEL_STATS.record("minmax", out.size)
    return out


def batch_mindist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """Elementwise MINMINDIST of N rectangle *pairs*; shape ``(n,)``.

    Unlike :func:`pairwise_mindist` (the ``(n, m)`` cross product of
    two sides), this evaluates row ``i`` of side A against row ``i`` of
    side B only -- the shape needed to order an already-formed list of
    candidate pairs, e.g. the subtree-pair frontier of the shard
    tier.  Same arithmetic as the pairwise kernel, so values are
    bit-identical to the corresponding matrix entries.
    """
    gap_ab = lo_a - hi_b
    gap_ba = lo_b - hi_a
    deltas = np.maximum(np.maximum(gap_ab, gap_ba), 0.0)
    out = _combine(deltas, metric)
    KERNEL_STATS.record("minmin_batch", out.size)
    return out


def batch_mindist_argsort(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
):
    """Ascending stable MINMINDIST order of N rectangle pairs.

    Returns ``(order, values)`` where ``values`` is the elementwise
    MINMINDIST vector of :func:`batch_mindist` and ``order`` a stable
    mergesort argsort of it -- equal distances keep their input
    (deterministic) order, matching the paper's stable candidate
    sorting.
    """
    values = batch_mindist(lo_a, hi_a, lo_b, hi_b, metric)
    order = np.argsort(values, kind="stable")
    return order, values


def point_rect_mindist(
    points: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MINDIST from each point to each rectangle; shape ``(n, m)``."""
    below = lo[None, :, :] - points[:, None, :]
    above = points[:, None, :] - hi[None, :, :]
    deltas = np.maximum(np.maximum(below, above), 0.0)
    return _combine(deltas, metric)
