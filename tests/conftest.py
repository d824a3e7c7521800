"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.geometry.minkowski import EUCLIDEAN
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.page import PageLayout

# A small profile keeps hypothesis fast enough for the full suite
# while still exercising hundreds of generated cases overall.
settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def brute_force_pairs(points_p, points_q, k):
    """Ground truth: the k smallest distances between two point lists."""
    distances = sorted(
        math.dist(p, q) for p in points_p for q in points_q
    )
    return distances[:k]


def brute_force_tuples(point_sets, k, graph="chain", metric=EUCLIDEAN):
    """Ground truth for multi-way closest tuples: the k smallest
    aggregate distances over every tuple of ``point_sets``.

    Per-edge distance matrices come from the scalar ``metric``; the
    aggregate over all tuples is a broadcast sum, one slice per point of
    the first set (so memory stays at one slice), and each slice keeps
    only its k smallest values.
    """
    m = len(point_sets)
    if graph == "chain":
        edges = [(i, i + 1) for i in range(m - 1)]
    else:
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    sizes = [len(points) for points in point_sets]
    matrices = {
        (a, b): np.array([
            [metric.distance(x, y) for y in point_sets[b]]
            for x in point_sets[a]
        ])
        for a, b in edges
    }
    best = []
    for i in range(sizes[0]):
        total = np.zeros(sizes[1:])
        for a, b in edges:
            # Axis j of the slice indexes point set j + 1.
            shape = [1] * (m - 1)
            shape[b - 1] = sizes[b]
            if a == 0:
                term = matrices[a, b][i]
            else:
                shape[a - 1] = sizes[a]
                term = matrices[a, b]
            total = total + term.reshape(shape)
        flat = total.ravel()
        keep = min(k, flat.size)
        best.append(np.partition(flat, keep - 1)[:keep])
    return sorted(np.concatenate(best).tolist())[:k]


def random_points(n, rng, xspan=(0.0, 1.0), yspan=(0.0, 1.0)):
    return [
        (rng.uniform(*xspan), rng.uniform(*yspan)) for __ in range(n)
    ]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_layout():
    """A tiny page layout (M = 4) that forces deep trees quickly."""
    # 16-byte header + 4 x 48-byte entries
    return PageLayout(page_size=16 + 4 * 48)


@pytest.fixture
def small_tree(small_layout):
    return RTree(RTreeConfig(layout=small_layout))


@pytest.fixture(scope="module")
def medium_trees():
    """A pair of moderately sized bulk-loaded trees (module-scoped)."""
    rng_local = random.Random(42)
    points_p = [
        (rng_local.random(), rng_local.random()) for __ in range(800)
    ]
    points_q = [
        (rng_local.uniform(0.4, 1.4), rng_local.random())
        for __ in range(700)
    ]
    return (
        points_p,
        points_q,
        bulk_load(points_p),
        bulk_load(points_q),
    )
