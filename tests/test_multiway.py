"""Tests for multi-way closest tuples (the future-work extension)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.multiway import multiway_closest_tuples
from repro.geometry.minkowski import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.page import PageLayout
from tests.conftest import brute_force_tuples

coord = st.floats(min_value=0, max_value=10, allow_nan=False)
small_sets = st.lists(st.tuples(coord, coord), min_size=1, max_size=8)


class TestCorrectness:
    @pytest.mark.parametrize("graph", ["chain", "clique"])
    @given(small_sets, small_sets, small_sets, st.integers(1, 4))
    @settings(max_examples=15)
    def test_three_way_matches_brute_force(
        self, graph, pts_a, pts_b, pts_c, k
    ):
        sets = [pts_a, pts_b, pts_c]
        k = min(k, len(pts_a) * len(pts_b) * len(pts_c))
        trees = [bulk_load(points) for points in sets]
        result = multiway_closest_tuples(trees, k=k, graph=graph)
        expected = brute_force_tuples(sets, k, graph)
        assert result.distances() == pytest.approx(expected, abs=1e-9)

    def test_two_way_chain_equals_pairwise_cpq(self):
        from repro.core import CPQRequest, k_closest_pairs

        rng = random.Random(2)
        pts_p = [(rng.random(), rng.random()) for __ in range(120)]
        pts_q = [(rng.uniform(0.4, 1.4), rng.random()) for __ in range(110)]
        tree_p = bulk_load(pts_p)
        tree_q = bulk_load(pts_q)
        multi = multiway_closest_tuples([tree_p, tree_q], k=8)
        pairwise = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=8, algorithm="heap"),
        )
        assert multi.distances() == pytest.approx(
            pairwise.distances(), abs=1e-9
        )

    def test_deep_trees_four_way(self):
        rng = random.Random(3)
        config = RTreeConfig(layout=PageLayout(page_size=16 + 4 * 48))
        sets = [
            [(rng.random() + shift, rng.random()) for __ in range(60)]
            for shift in (0.0, 0.3, 0.6, 0.9)
        ]
        trees = [bulk_load(points, config=config) for points in sets]
        result = multiway_closest_tuples(trees, k=3, graph="chain")
        expected = brute_force_tuples(sets, 3, "chain")
        assert result.distances() == pytest.approx(expected, abs=1e-9)

    def test_different_heights(self):
        rng = random.Random(4)
        config = RTreeConfig(layout=PageLayout(page_size=16 + 4 * 48))
        small = [(rng.random(), rng.random()) for __ in range(6)]
        large = [(rng.random(), rng.random()) for __ in range(400)]
        mid = [(rng.random(), rng.random()) for __ in range(60)]
        sets = [small, large, mid]
        trees = [bulk_load(points, config=config) for points in sets]
        heights = {tree.height for tree in trees}
        assert len(heights) > 1
        result = multiway_closest_tuples(trees, k=2, graph="clique")
        expected = brute_force_tuples(sets, 2, "clique")
        assert result.distances() == pytest.approx(expected, abs=1e-9)

    def test_other_metric(self):
        rng = random.Random(5)
        sets = [
            [(rng.random(), rng.random()) for __ in range(25)]
            for __ in range(3)
        ]
        trees = [bulk_load(points) for points in sets]
        result = multiway_closest_tuples(
            trees, k=2, graph="chain", metric=MANHATTAN
        )
        expected = brute_force_tuples(sets, 2, "chain", MANHATTAN)
        assert result.distances() == pytest.approx(expected, abs=1e-9)


class TestOracle:
    @pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, CHEBYSHEV])
    @pytest.mark.parametrize("graph", ["chain", "clique"])
    @given(st.lists(small_sets, min_size=2, max_size=4),
           st.integers(1, 6))
    @settings(max_examples=15)
    def test_broadcast_oracle_equals_enumeration(
        self, metric, graph, sets, k
    ):
        """The broadcast oracle adds the same edge distances in the
        same order as enumerating every tuple, so results are equal."""
        m = len(sets)
        if graph == "chain":
            edges = [(i, i + 1) for i in range(m - 1)]
        else:
            edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        enumerated = sorted(
            sum(metric.distance(combo[a], combo[b]) for a, b in edges)
            for combo in itertools.product(*sets)
        )[:k]
        assert brute_force_tuples(sets, k, graph, metric) == enumerated


class TestResultShape:
    def test_tuples_carry_points_and_oids(self):
        sets = [[(0.0, 0.0)], [(1.0, 0.0)], [(2.0, 0.0)]]
        trees = [bulk_load(points) for points in sets]
        result = multiway_closest_tuples(trees, k=1)
        assert len(result.tuples) == 1
        top = result.tuples[0]
        assert top.points == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        assert top.oids == (0, 0, 0)
        assert top.distance == pytest.approx(2.0)

    def test_clique_counts_all_edges(self):
        sets = [[(0.0, 0.0)], [(1.0, 0.0)], [(2.0, 0.0)]]
        trees = [bulk_load(points) for points in sets]
        result = multiway_closest_tuples(trees, k=1, graph="clique")
        # chain edges (1 + 1) plus the closing edge (2).
        assert result.tuples[0].distance == pytest.approx(4.0)

    def test_stats_populated(self):
        rng = random.Random(7)
        sets = [
            [(rng.random(), rng.random()) for __ in range(300)]
            for __ in range(3)
        ]
        trees = [bulk_load(points) for points in sets]
        result = multiway_closest_tuples(trees, k=4)
        assert result.stats.disk_accesses > 0
        assert result.stats.node_pairs_visited > 0
        assert result.stats.max_queue_size > 0

    def test_k_exceeding_tuple_count(self):
        sets = [[(0.0, 0.0), (1.0, 1.0)], [(0.5, 0.5)]]
        trees = [bulk_load(points) for points in sets]
        result = multiway_closest_tuples(trees, k=99)
        assert len(result.tuples) == 2


class TestValidation:
    def test_needs_two_trees(self):
        with pytest.raises(ValueError, match="at least two"):
            multiway_closest_tuples([bulk_load([(0.0, 0.0)])])

    def test_unknown_graph(self):
        trees = [bulk_load([(0.0, 0.0)]), bulk_load([(1.0, 1.0)])]
        with pytest.raises(ValueError, match="graph"):
            multiway_closest_tuples(trees, graph="star")

    def test_bad_k(self):
        trees = [bulk_load([(0.0, 0.0)]), bulk_load([(1.0, 1.0)])]
        with pytest.raises(ValueError, match="k must be"):
            multiway_closest_tuples(trees, k=0)

    def test_dimension_mismatch(self):
        t2 = bulk_load([(0.0, 0.0)])
        t3 = RTree(RTreeConfig(layout=PageLayout(dimension=3)))
        t3.insert((0.0, 0.0, 0.0), 0)
        with pytest.raises(ValueError, match="dimension"):
            multiway_closest_tuples([t2, t3])

    def test_empty_tree_gives_empty_result(self):
        trees = [bulk_load([(0.0, 0.0)]), RTree()]
        assert multiway_closest_tuples(trees).tuples == []
