"""The scalar oracle and the vectorised kernels must agree *bitwise*.

The scalar helpers in :mod:`repro.geometry.metrics` mirror the NumPy
kernels of :mod:`repro.geometry.vectorized` operation for operation
(same accumulation order, same parenthesisation), so their outputs are
equal as bit patterns, not merely to a tolerance.  The tests here use
Hypothesis-generated rectangle/point batches in d = 2 and d = 3 under
Euclidean, Manhattan and Chebyshev metrics, compared with ``==``.  For
a *general* Minkowski ``p`` the base power operation itself differs
between NumPy's array ``**`` and CPython's scalar ``pow`` by up to 1
ulp, so there the contract is ULP-level closeness, not bit equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.mbr import MBR
from repro.geometry.metrics import maxdist, mindist, minmaxdist
from repro.geometry.minkowski import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    MinkowskiMetric,
)
from repro.geometry.vectorized import (
    pairwise_maxdist,
    pairwise_mindist,
    pairwise_minmaxdist,
    pairwise_point_distances,
)

coord = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
)
metrics = st.sampled_from(
    [EUCLIDEAN, MANHATTAN, CHEBYSHEV, MinkowskiMetric(3.0)]
)
dimensions = st.sampled_from([2, 3])

#: p in {1, 2, inf} involves no ``x ** p``: bit-identical scalar and
#: vectorised results.  Other p go through pow, where NumPy and CPython
#: may differ in the last ulp.
EXACT_METRICS = (EUCLIDEAN, MANHATTAN, CHEBYSHEV)


def assert_matches(vectorized, scalar, metric):
    if metric in EXACT_METRICS:
        assert vectorized == scalar
    else:
        assert vectorized == pytest.approx(scalar, rel=1e-12, abs=1e-300)


@st.composite
def rect_batch(draw, dimension, max_rects=4):
    n = draw(st.integers(min_value=1, max_value=max_rects))
    los, his = [], []
    for __ in range(n):
        a = [draw(coord) for __ in range(dimension)]
        b = [draw(coord) for __ in range(dimension)]
        los.append([min(x, y) for x, y in zip(a, b)])
        his.append([max(x, y) for x, y in zip(a, b)])
    return np.array(los), np.array(his)


@st.composite
def two_rect_batches(draw):
    dimension = draw(dimensions)
    return draw(rect_batch(dimension)), draw(rect_batch(dimension))


@st.composite
def two_point_batches(draw):
    dimension = draw(dimensions)
    points = st.lists(
        st.tuples(*[coord] * dimension), min_size=1, max_size=5
    )
    return (
        np.array(draw(points), dtype=np.float64),
        np.array(draw(points), dtype=np.float64),
    )


def as_mbrs(lo, hi):
    return [MBR(tuple(l), tuple(h)) for l, h in zip(lo, hi)]


@pytest.mark.parametrize(
    "scalar_fn,vector_fn",
    [
        (mindist, pairwise_mindist),
        (maxdist, pairwise_maxdist),
        (minmaxdist, pairwise_minmaxdist),
    ],
    ids=["minmin", "maxmax", "minmax"],
)
@given(batches=two_rect_batches(), metric=metrics)
@settings(max_examples=150, deadline=None)
def test_rect_kernels_bitwise_equal(scalar_fn, vector_fn, batches, metric):
    (lo_a, hi_a), (lo_b, hi_b) = batches
    matrix = vector_fn(lo_a, hi_a, lo_b, hi_b, metric)
    for i, a in enumerate(as_mbrs(lo_a, hi_a)):
        for j, b in enumerate(as_mbrs(lo_b, hi_b)):
            assert_matches(matrix[i, j], scalar_fn(a, b, metric), metric)


@given(batches=two_point_batches(), metric=metrics)
@settings(max_examples=150, deadline=None)
def test_point_kernel_bitwise_equal(batches, metric):
    points_a, points_b = batches
    matrix = pairwise_point_distances(points_a, points_b, metric)
    for i, a in enumerate(points_a):
        for j, b in enumerate(points_b):
            assert_matches(
                matrix[i, j], metric.distance(tuple(a), tuple(b)), metric
            )
