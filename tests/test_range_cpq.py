"""The range/colored query family: exact parity with filtered truth.

The contract (RCP literature semantics on the paper's K-CPQ engine):
a constrained query returns *byte-identical* pairs -- values AND tie
order -- to filtering the unconstrained answer down to the qualifying
pairs.  The KHeap's canonical total order makes the retained set a
pure function of the offered qualifying-pair set, so the reference is
computed by running the engine unconstrained at ``k = |P| x |Q|`` and
filtering; any deviation means a constrained traversal pruned a
qualifying pair or leaked a non-qualifying one.

Covered here: every ``supports_range`` algorithm on SEQUOIA-like
clustered data and on the adversarial all-equal-distance set (where
tie order is the whole answer), in process and over a real socket
at 2 shards; the RCP candidate
structure's exact/containment reuse; and the service/wire behaviour
(``bad_request`` status, HTTP 400, v2 envelope round trip).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import (
    COLOR_ALGORITHMS,
    RANGE_ALGORITHMS,
    CPQRequest,
    k_closest_pairs,
)
from repro.core.constraints import ColorSpec, RangeSpec
from repro.rtree.bulk import bulk_load

WINDOW = RangeSpec((0.25, 0.25), (0.7, 0.7))


def reference_pairs(tree_p, tree_q, k, range_spec=None, colors=None):
    """Filter the unconstrained answer down to qualifying pairs."""
    total = len(tree_p) * len(tree_q)
    everything = k_closest_pairs(
        tree_p, tree_q, request=CPQRequest(k=total, algorithm="heap")
    )
    kept = []
    for pair in everything.pairs:
        if range_spec is not None:
            if range_spec.constrains_p and not range_spec.contains_point(
                    pair.p):
                continue
            if range_spec.constrains_q and not range_spec.contains_point(
                    pair.q):
                continue
        if colors is not None and not colors.admits_pair(
                pair.p_oid, pair.q_oid):
            continue
        kept.append(pair)
    return kept[:k]


@pytest.fixture(scope="module")
def sequoia_trees():
    from repro.datasets import sequoia_like

    points_p = [tuple(p) for p in sequoia_like(400, seed=2000)]
    points_q = [tuple(p) for p in sequoia_like(400, seed=2024)]
    return bulk_load(points_p), bulk_load(points_q)


@pytest.fixture(scope="module")
def adversarial_trees():
    """Every candidate pair at distance 1.0 and half of each set on
    the window boundary: qualification and tie order do all the work."""
    tree_p = bulk_load([(0.25, 0.25)] * 30 + [(0.0, 0.25)] * 30)
    tree_q = bulk_load([(0.25, 1.25)] * 30 + [(0.0, 1.25)] * 30)
    return tree_p, tree_q


class TestRangeParity:
    @pytest.mark.parametrize("algorithm", RANGE_ALGORITHMS)
    def test_sequoia_byte_parity(self, sequoia_trees, algorithm):
        tree_p, tree_q = sequoia_trees
        expected = reference_pairs(tree_p, tree_q, 10,
                                   range_spec=WINDOW)
        result = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=10, algorithm=algorithm, range=WINDOW),
        )
        assert result.pairs == expected

    @pytest.mark.parametrize("algorithm", RANGE_ALGORITHMS)
    def test_all_equal_distance_ties(self, adversarial_trees, algorithm):
        tree_p, tree_q = adversarial_trees
        window = RangeSpec((0.0, 0.0), (1.0, 2.0), mode="both")
        expected = reference_pairs(tree_p, tree_q, 15,
                                   range_spec=window)
        result = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=15, algorithm=algorithm, range=window),
        )
        assert [p.distance for p in result.pairs] == [1.0] * 15
        assert result.pairs == expected

    @pytest.mark.parametrize("mode", ["p", "q"])
    def test_single_side_modes(self, sequoia_trees, mode):
        tree_p, tree_q = sequoia_trees
        window = RangeSpec((0.3, 0.3), (0.6, 0.6), mode=mode)
        expected = reference_pairs(tree_p, tree_q, 8, range_spec=window)
        result = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=8, algorithm="clipped", range=window),
        )
        assert result.pairs == expected

    def test_empty_window_returns_nothing(self, sequoia_trees):
        tree_p, tree_q = sequoia_trees
        result = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(
                k=5, algorithm="clipped",
                range=((10.0, 10.0), (11.0, 11.0)),
            ),
        )
        assert result.pairs == []

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.8), st.floats(0.0, 0.8),
        st.floats(0.05, 0.5), st.floats(0.05, 0.5),
        st.integers(1, 8),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_windows_property(self, seed, x0, y0, w, h, k):
        rng = random.Random(seed)
        points_p = [(rng.random(), rng.random()) for __ in range(60)]
        points_q = [(rng.random(), rng.random()) for __ in range(60)]
        tree_p, tree_q = bulk_load(points_p), bulk_load(points_q)
        window = RangeSpec((x0, y0), (x0 + w, y0 + h))
        expected = reference_pairs(tree_p, tree_q, k, range_spec=window)
        for algorithm in RANGE_ALGORITHMS:
            result = k_closest_pairs(
                tree_p,
                tree_q,
                request=CPQRequest(
                    k=k, algorithm=algorithm, range=window,
                ),
            )
            assert result.pairs == expected, algorithm


class TestColoredParity:
    @pytest.mark.parametrize("algorithm", COLOR_ALGORITHMS)
    def test_distinct_categories(self, sequoia_trees, algorithm):
        tree_p, tree_q = sequoia_trees
        colors = ColorSpec(modulus=3, distinct=True)
        kwargs = dict(k=10, algorithm=algorithm, colors=colors)
        if algorithm == "rcp":
            kwargs["range"] = RangeSpec((0.0, 0.0), (1.0, 1.0))
        expected = reference_pairs(
            tree_p, tree_q, 10,
            range_spec=kwargs.get("range"), colors=colors,
        )
        result = k_closest_pairs(
            tree_p, tree_q, request=CPQRequest(**kwargs)
        )
        assert result.pairs == expected

    def test_ties_across_categories(self, adversarial_trees):
        # All distances equal AND every color class populated: the
        # answer is decided purely by qualification + canonical order.
        tree_p, tree_q = adversarial_trees
        colors = ColorSpec(modulus=4, colors_p=(0, 1), distinct=True)
        expected = reference_pairs(tree_p, tree_q, 12, colors=colors)
        for algorithm in ("naive", "heap", "clipped"):
            result = k_closest_pairs(
                tree_p,
                tree_q,
                request=CPQRequest(
                    k=12, algorithm=algorithm, colors=colors,
                ),
            )
            assert [p.distance for p in result.pairs] == [1.0] * 12
            assert result.pairs == expected, algorithm

    def test_range_and_colors_combined(self, sequoia_trees):
        tree_p, tree_q = sequoia_trees
        colors = ColorSpec(modulus=2, distinct=True)
        expected = reference_pairs(
            tree_p, tree_q, 6, range_spec=WINDOW, colors=colors
        )
        result = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(
                k=6, algorithm="clipped", range=WINDOW, colors=colors,
            ),
        )
        assert result.pairs == expected


class TestRCPReuse:
    def test_exact_repeat_reuses_candidates(self, sequoia_trees):
        tree_p, tree_q = sequoia_trees
        window = RangeSpec((0.2, 0.2), (0.65, 0.65))
        request = CPQRequest(k=5, algorithm="rcp", range=window)
        first = k_closest_pairs(tree_p, tree_q, request=request)
        assert first.stats.extra["rcp"]["source"] == "computed"
        again = k_closest_pairs(tree_p, tree_q, request=request)
        assert again.stats.extra["rcp"]["source"] == "exact"
        assert again.stats.node_pairs_visited == 0
        assert again.pairs == first.pairs

    def test_reversed_corner_window_is_exact_hit(self, sequoia_trees):
        tree_p, tree_q = sequoia_trees
        k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(
                k=5, algorithm="rcp", range=((0.1, 0.1), (0.5, 0.5)),
            ),
        )
        flipped = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(
                k=5, algorithm="rcp", range=((0.5, 0.5), (0.1, 0.1)),
            ),
        )
        assert flipped.stats.extra["rcp"]["source"] == "exact"

    def test_subwindow_containment_reuse(self, sequoia_trees):
        tree_p, tree_q = sequoia_trees
        k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(
                k=4, algorithm="rcp", range=((0.0, 0.0), (0.9, 0.9)),
            ),
        )
        inner_window = RangeSpec((0.3, 0.3), (0.55, 0.55))
        inner = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=4, algorithm="rcp",
                               range=inner_window),
        )
        if inner.stats.extra["rcp"]["source"] == "containment":
            assert inner.stats.node_pairs_visited == 0
        # Reused or not, the answer must be the filtered truth.
        assert inner.pairs == reference_pairs(
            tree_p, tree_q, 4, range_spec=inner_window
        )

    def test_rcp_requires_window(self, sequoia_trees):
        tree_p, tree_q = sequoia_trees
        with pytest.raises(ValueError, match="requires a range"):
            k_closest_pairs(
                tree_p, tree_q,
                request=CPQRequest(k=3, algorithm="rcp"),
            )


class TestServiceAndSocket:
    def test_service_rejects_incapable_algorithm(self, sequoia_trees):
        from repro.service import (
            CPQRequest as ServiceCPQ,
            STATUS_BAD_REQUEST,
            QueryService,
        )

        tree_p, tree_q = sequoia_trees
        service = QueryService(workers=1)
        service.register_pair("pair", tree_p, tree_q)
        with service:
            response = service.execute(ServiceCPQ(
                pair="pair", k=3, algorithm="incremental",
                range=((0.0, 0.0), (1.0, 1.0)),
            ))
            assert response.status == STATUS_BAD_REQUEST
            assert "does not support range" in response.error

    def test_ranged_query_through_service_cache(self, sequoia_trees):
        from repro.service import CPQRequest as ServiceCPQ, QueryService

        tree_p, tree_q = sequoia_trees
        service = QueryService(workers=1, cache_size=16)
        service.register_pair("pair", tree_p, tree_q)
        with service:
            spec = dict(pair="pair", k=4, algorithm="clipped")
            first = service.execute(ServiceCPQ(
                range=((0.2, 0.2), (0.7, 0.7)), **spec
            ))
            assert first.status == "ok"
            # Same window, corner-reversed: must be served from cache.
            flipped = service.execute(ServiceCPQ(
                range=((0.7, 0.7), (0.2, 0.2)), **spec
            ))
            assert flipped.cached
            assert flipped.result.pairs == first.result.pairs
            # A different window must NOT hit the cache.
            other = service.execute(ServiceCPQ(
                range=((0.1, 0.1), (0.7, 0.7)), **spec
            ))
            assert not other.cached

    def test_two_shard_socket_byte_parity(self, tmp_path):
        from repro.net import NetClient, NetServer, ShardManager, tree_spec
        from repro.service import CPQRequest as ServiceCPQ, QueryService
        from repro.storage.paged_file import PagedFile
        from repro.storage.store import FilePageStore

        def file_tree(name, points):
            store = FilePageStore(str(tmp_path / name), page_size=1024)
            return bulk_load(points, file=PagedFile(store,
                                                    page_size=1024))

        rng = random.Random(17)
        points_p = [(rng.random(), rng.random()) for __ in range(200)]
        points_q = [(rng.random(), rng.random()) for __ in range(200)]
        tree_p = file_tree("p.pages", points_p)
        tree_q = file_tree("q.pages", points_q)
        window = RangeSpec((0.2, 0.2), (0.75, 0.75))
        colors = ColorSpec(modulus=2, distinct=True)
        serial = {
            algorithm: k_closest_pairs(
                tree_p,
                tree_q,
                request=CPQRequest(
                    k=8, algorithm=algorithm, range=window,
                    colors=colors,
                ),
            )
            for algorithm in ("naive", "exh", "sim", "std", "heap",
                              "clipped")
        }
        expected = reference_pairs(tree_p, tree_q, 8,
                                   range_spec=window, colors=colors)
        manager = ShardManager(tree_spec(tree_p), tree_spec(tree_q),
                               shards=2)
        service = QueryService(
            workers=2, cpq_executor=manager.service_executor()
        )
        service.register_pair("default", manager.tree_p, manager.tree_q)
        server = NetServer(service, manager=manager).start_in_thread()
        try:
            with NetClient("127.0.0.1", server.port) as client:
                for algorithm, direct in serial.items():
                    assert direct.pairs == expected, algorithm
                    response = client.query(ServiceCPQ(
                        pair="default", k=8, algorithm=algorithm,
                        range=window, colors=colors, use_cache=False,
                    ))
                    assert response.status == "ok", response.error
                    # Pairs AND tie order survive the socket, the v2
                    # JSON envelope, and the scatter-gather.
                    assert response.result.pairs == direct.pairs
        finally:
            server.close()

    def test_capability_error_is_http_400(self, tmp_path):
        import http.client
        import json

        from repro.net import NetServer
        from repro.service import QueryService

        tree_p = bulk_load([(0.1, 0.1), (0.4, 0.9)])
        tree_q = bulk_load([(0.2, 0.3), (0.8, 0.8)])
        service = QueryService(workers=1)
        service.register_pair("default", tree_p, tree_q)
        server = NetServer(service).start_in_thread()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            body = json.dumps({
                "v": 3, "op": "cpq", "pair": "default", "k": 2,
                "algorithm": "incremental",
                "range": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            })
            conn.request("POST", "/v1/query", body=body,
                         headers={"Content-Type": "application/json"})
            http_response = conn.getresponse()
            payload = json.loads(http_response.read())
            assert http_response.status == 400
            assert payload["status"] == "bad_request"
            assert "does not support range" in payload["error"]
            conn.close()
        finally:
            server.close()
