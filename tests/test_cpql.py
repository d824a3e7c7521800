"""CPQL: grammar, error positions, and compilation parity.

The language adds nothing the programmatic API lacks -- so the
headline assertions here are *equivalences*: a parsed statement
compiled to a request returns byte-identical pairs and tie order to
the hand-built request, in-process, through the CLI renderer, and
over a real 2-shard socket speaking the wire-v3 ``sql`` envelope.
Around that: parser round-trips, reserved-word handling, and the
property that every syntax error carries a caret position inside the
source string.
"""

import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.catalog import Catalog
from repro.core.api import ALGORITHMS
from repro.core.constraints import ColorSpec, RangeSpec
from repro.errors import CPQLError
from repro.net import NetClient, NetServer, ShardManager, wire
from repro.query.cpql import KEYWORDS, ParsedQuery, parse, tokenize
from repro.service import CPQRequest, QueryService


def _points(n, seed):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for __ in range(n)]


class TestParser:
    def test_minimal_statement(self):
        parsed = parse("SELECT CLOSEST PAIRS FROM parks, schools")
        assert parsed == ParsedQuery("parks", "schools")
        assert parsed.k == 1
        assert parsed.algorithm == "auto"
        assert parsed.pair_name == "parks,schools"

    def test_single_dataset_is_self_join(self):
        parsed = parse("SELECT CLOSEST PAIRS K 3 FROM towns")
        assert parsed.dataset_p == parsed.dataset_q == "towns"
        assert parsed.pair_name == "towns,towns"

    def test_keywords_case_insensitive(self):
        parsed = parse("select closest pairs k 7 from a, b using heap")
        assert parsed.k == 7
        assert parsed.algorithm == "heap"

    def test_range_predicate(self):
        parsed = parse(
            "SELECT CLOSEST PAIRS FROM a, b "
            "WHERE RANGE (0.1, 0.2, 0.6, 0.7)"
        )
        assert parsed.range_spec == RangeSpec(
            lo=(0.1, 0.2), hi=(0.6, 0.7)
        )
        assert parsed.range_spec.mode == "both"

    def test_range_on_side(self):
        parsed = parse(
            "SELECT CLOSEST PAIRS FROM a, b "
            "WHERE RANGE (0, 0, 1, 1) ON P"
        )
        assert parsed.range_spec.mode == "p"

    def test_colors_distinct_defaults_modulus_two(self):
        parsed = parse(
            "SELECT CLOSEST PAIRS FROM a, b WHERE COLORS DISTINCT"
        )
        assert parsed.colors == ColorSpec(modulus=2, distinct=True)

    def test_colors_full_form(self):
        parsed = parse(
            "SELECT CLOSEST PAIRS FROM a, b "
            "WHERE COLORS MOD 4 DISTINCT P (1, 3) Q (0, 2)"
        )
        assert parsed.colors == ColorSpec(
            modulus=4, colors_p=(1, 3), colors_q=(0, 2), distinct=True
        )

    def test_both_predicates_joined_by_and(self):
        parsed = parse(
            "SELECT CLOSEST PAIRS K 10 FROM a, b "
            "WHERE RANGE (0, 0, 1, 1) AND COLORS MOD 3 "
            "USING heap"
        )
        assert parsed.range_spec is not None
        assert parsed.colors is not None
        assert parsed.algorithm == "heap"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_accepted(self, algorithm):
        parsed = parse(
            f"SELECT CLOSEST PAIRS FROM a, a USING {algorithm}"
        )
        assert parsed.algorithm == algorithm

    def test_scientific_notation_coordinates(self):
        parsed = parse(
            "SELECT CLOSEST PAIRS FROM a, b "
            "WHERE RANGE (1e-3, -2.5E2, .5, 1.0)"
        )
        assert parsed.range_spec.lo == (0.001, -250.0)

    def test_dataset_names_with_dots_and_dashes(self):
        parsed = parse("SELECT CLOSEST PAIRS FROM us-east.parks, b")
        assert parsed.dataset_p == "us-east.parks"


class TestErrors:
    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("", "expected SELECT"),
            ("SELECT", "expected CLOSEST"),
            ("SELECT CLOSEST PAIRS", "expected FROM"),
            ("SELECT CLOSEST PAIRS K 0 FROM a", "K must be >= 1"),
            ("SELECT CLOSEST PAIRS FROM", "expected a dataset name"),
            ("SELECT CLOSEST PAIRS FROM SELECT", "expected a dataset"),
            ("SELECT CLOSEST PAIRS FROM a, b WHERE", "RANGE or COLORS"),
            ("SELECT CLOSEST PAIRS FROM a WHERE RANGE (1, 2, 3)",
             "even number"),
            ("SELECT CLOSEST PAIRS FROM a WHERE COLORS", "MOD n"),
            ("SELECT CLOSEST PAIRS FROM a USING quantum",
             "unknown algorithm"),
            ("SELECT CLOSEST PAIRS FROM a, b extra", "end of query"),
            ("SELECT CLOSEST PAIRS FROM a WHERE RANGE (0,0,1,1) "
             "AND RANGE (0,0,1,1)", "duplicate RANGE"),
            ("SELECT CLOSEST PAIRS FROM a WHERE COLORS MOD 2 "
             "AND COLORS DISTINCT", "duplicate COLORS"),
        ],
    )
    def test_error_messages(self, source, fragment):
        with pytest.raises(CPQLError, match=fragment):
            parse(source)

    def test_stray_character_position(self):
        source = "SELECT CLOSEST PAIRS FROM a; DROP"
        with pytest.raises(CPQLError) as info:
            parse(source)
        assert info.value.position == source.index(";")

    def test_caret_points_at_offence(self):
        source = "SELECT CLOSEST PAIRS FROM a USING quantum"
        with pytest.raises(CPQLError) as info:
            parse(source)
        caret = info.value.caret()
        assert source in caret
        lines = caret.splitlines()
        assert lines[-1].index("^") == source.index("quantum")

    def test_semantic_error_from_color_spec(self):
        # Residue 5 does not exist mod 4: the ColorSpec's ValueError
        # surfaces as a CPQLError carrying the query.
        with pytest.raises(CPQLError, match="lie in"):
            parse(
                "SELECT CLOSEST PAIRS FROM a, b "
                "WHERE COLORS MOD 4 P (5)"
            )

    def test_non_string_rejected(self):
        with pytest.raises(CPQLError, match="must be a string"):
            parse(42)

    @given(st.text(max_size=80))
    def test_any_input_errors_with_position_in_source(self, source):
        try:
            parse(source)
        except CPQLError as exc:
            assert 0 <= exc.position <= len(source)
        # Parsing successfully is fine too -- the property under test
        # is only that failures point inside the source.

    @given(st.text(
        alphabet=st.sampled_from(
            list("SELECTCLOSEPAIRSFROMWHERE()0123456789,. ")
        ),
        max_size=60,
    ))
    def test_near_miss_inputs_never_crash(self, source):
        try:
            parse(source)
        except CPQLError:
            pass


class TestTokenizer:
    def test_positions_are_source_offsets(self):
        source = "SELECT  CLOSEST\n PAIRS"
        tokens = tokenize(source)
        assert [t.position for t in tokens[:-1]] == [
            source.index("SELECT"), source.index("CLOSEST"),
            source.index("PAIRS"),
        ]
        assert tokens[-1].kind == "end"
        assert tokens[-1].position == len(source)

    def test_keywords_sorted_and_upper(self):
        assert list(KEYWORDS) == sorted(KEYWORDS)
        assert all(k == k.upper() for k in KEYWORDS)


class TestCompilation:
    def test_service_request_equivalence(self):
        parsed = parse(
            "SELECT CLOSEST PAIRS K 5 FROM parks, schools "
            "WHERE RANGE (0.1, 0.1, 0.9, 0.9) AND COLORS DISTINCT "
            "USING heap"
        )
        compiled = parsed.to_service_request(use_cache=False)
        built = CPQRequest(
            pair="parks,schools", k=5, algorithm="heap",
            range=((0.1, 0.1), (0.9, 0.9)), colors=2, use_cache=False,
        )
        assert compiled.pair == built.pair
        assert compiled.k == built.k
        assert compiled.algorithm == built.algorithm
        assert compiled.range == built.range
        assert compiled.colors == ColorSpec(modulus=2, distinct=True)
        assert compiled.cache_params() == built.cache_params()

    def test_core_request_needs_concrete_algorithm(self):
        parsed = parse("SELECT CLOSEST PAIRS FROM a, b")
        with pytest.raises(ValueError, match="planner"):
            parsed.to_core_request()
        assert parsed.to_core_request(algorithm="heap").algorithm == \
            "heap"

    def test_capability_mismatch_surfaces_at_compile(self):
        # 'incremental' cannot honour a range constraint; compiling to
        # a core request fails exactly like the programmatic
        # constructor (the service defers the same check to execution
        # and answers bad_request -- see the CLI exit-code test).
        parsed = parse(
            "SELECT CLOSEST PAIRS FROM a, b "
            "WHERE RANGE (0, 0, 1, 1) USING incremental"
        )
        with pytest.raises(ValueError, match="range"):
            parsed.to_core_request()


@pytest.fixture(scope="module")
def sql_stack(tmp_path_factory):
    """Catalog-registered datasets behind a 2-shard socket stack."""
    tmp = tmp_path_factory.mktemp("cpql-e2e")
    catalog = Catalog(str(tmp))
    catalog.register_dataset("parks", _points(220, seed=1), kind="str")
    catalog.register_dataset("schools", _points(200, seed=2),
                             kind="str")
    manager = ShardManager(
        catalog.tree_spec("parks"), catalog.tree_spec("schools"),
        shards=2, pair="parks,schools",
    )
    service = QueryService(
        workers=4, cpq_executor=manager.service_executor()
    )
    service.register_pair(
        "parks,schools", manager.tree_p, manager.tree_q
    )
    service.attach_catalog(catalog)
    server = NetServer(service, manager=manager).start_in_thread()
    yield server, catalog
    server.close()


class TestInProcessParity:
    def test_sql_equals_programmatic(self, sql_stack, tmp_path):
        __, catalog = sql_stack
        service = QueryService(workers=1, cache_size=0)
        service.attach_catalog(catalog)
        try:
            via_sql = service.execute_sql(
                "SELECT CLOSEST PAIRS K 8 FROM parks, schools "
                "USING heap",
                use_cache=False,
            )
            via_api = service.submit(CPQRequest(
                pair="parks,schools", k=8, algorithm="heap",
                use_cache=False,
            )).result()
            assert via_sql.ok and via_api.ok
            # Byte-identical pairs, including tie order.
            assert via_sql.result.pairs == via_api.result.pairs
        finally:
            service.close()

    def test_constrained_sql_equals_programmatic(self, sql_stack):
        __, catalog = sql_stack
        service = QueryService(workers=1, cache_size=0)
        service.attach_catalog(catalog)
        try:
            via_sql = service.execute_sql(
                "SELECT CLOSEST PAIRS K 6 FROM parks, schools "
                "WHERE RANGE (0.2, 0.2, 0.8, 0.8) USING rcp",
                use_cache=False,
            )
            via_api = service.submit(CPQRequest(
                pair="parks,schools", k=6, algorithm="rcp",
                range=((0.2, 0.2), (0.8, 0.8)), use_cache=False,
            )).result()
            assert via_sql.ok, via_sql.error
            assert via_sql.result.pairs == via_api.result.pairs
        finally:
            service.close()


class TestSocketParity:
    def test_sql_over_socket_equals_programmatic(self, sql_stack):
        server, __ = sql_stack
        with NetClient("127.0.0.1", server.port) as client:
            via_sql = client.sql(
                "SELECT CLOSEST PAIRS K 8 FROM parks, schools "
                "USING heap",
                use_cache=False,
            )
            via_api = client.query(CPQRequest(
                pair="parks,schools", k=8, algorithm="heap",
                use_cache=False,
            ))
            assert via_sql.status == "ok", via_sql.error
            assert via_sql.result.pairs == via_api.result.pairs
            assert via_sql.result.stats.extra["net"]["shards"] == 2

    def test_syntax_error_maps_to_400_with_position(self, sql_stack):
        server, __ = sql_stack
        with NetClient("127.0.0.1", server.port) as client:
            with pytest.raises(wire.WireError, match="position"):
                client.sql("SELECT CLOSEST GARBAGE FROM a")

    def test_unknown_dataset_maps_to_400(self, sql_stack):
        server, __ = sql_stack
        with NetClient("127.0.0.1", server.port) as client:
            with pytest.raises(wire.WireError, match="missing"):
                client.sql("SELECT CLOSEST PAIRS FROM missing, also")

    def test_sql_op_rejected_on_v2_envelope(self, sql_stack):
        import http.client

        server, __ = sql_stack
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request(
                "POST", "/v1/sql",
                body=json.dumps({
                    "v": 2, "op": "sql",
                    "sql": "SELECT CLOSEST PAIRS FROM parks",
                }),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            obj = json.loads(response.read())
            assert response.status == 400
            assert "wire version" in obj["error"]
        finally:
            conn.close()


class TestWireSQL:
    def test_sql_request_round_trip(self):
        request = wire.SQLRequest(
            sql="SELECT CLOSEST PAIRS K 2 FROM a, b",
            deadline_ms=50.0, use_cache=False,
        )
        envelope = wire.encode_request(request)
        assert envelope["v"] == wire.WIRE_VERSION
        assert envelope["op"] == "sql"
        decoded = wire.loads_request(wire.dumps_request(request))
        assert isinstance(decoded, wire.SQLRequest)
        assert decoded.sql == request.sql
        assert decoded.deadline_ms == request.deadline_ms
        assert decoded.use_cache is False

    def test_empty_sql_rejected(self):
        with pytest.raises(wire.WireError, match="sql"):
            wire.decode_request(
                {"v": wire.WIRE_VERSION, "op": "sql", "sql": ""}
            )


class TestCLI:
    @pytest.fixture()
    def cli_catalog(self, tmp_path):
        from repro.cli import main

        points = tmp_path / "pts.csv"
        rng = random.Random(33)
        rows = ["x,y"] + [
            f"{rng.random()},{rng.random()}" for __ in range(150)
        ]
        points.write_text("\n".join(rows) + "\n")
        assert main([
            "catalog", "register", "parks", str(points),
            "--catalog", str(tmp_path), "--kind", "str",
        ]) == 0
        assert main([
            "catalog", "register", "schools", str(points),
            "--catalog", str(tmp_path), "--kind", "str",
        ]) == 0
        return tmp_path

    def test_sql_matches_query_command(self, cli_catalog, capsys):
        from repro.cli import main

        assert main([
            "query", "parks", "schools", "--catalog",
            str(cli_catalog), "--k", "5", "--algorithm", "heap",
        ]) == 0
        query_pairs = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert main([
            "sql",
            "SELECT CLOSEST PAIRS K 5 FROM parks, schools USING heap",
            "--catalog", str(cli_catalog),
        ]) == 0
        sql_pairs = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert sql_pairs == query_pairs

    def test_bad_statement_exits_2_with_caret(self, cli_catalog,
                                              capsys):
        from repro.cli import main

        assert main([
            "sql", "SELECT CLOSEST NONSENSE",
            "--catalog", str(cli_catalog),
        ]) == 2
        err = capsys.readouterr().err
        assert "CPQL" in err and "^" in err

    def test_unknown_dataset_exits_2(self, cli_catalog, capsys):
        from repro.cli import main

        assert main([
            "sql", "SELECT CLOSEST PAIRS FROM atlantis",
            "--catalog", str(cli_catalog),
        ]) == 2
        assert "atlantis" in capsys.readouterr().err

    def test_capability_mismatch_exits_3(self, cli_catalog, capsys):
        from repro.cli import main

        assert main([
            "sql",
            "SELECT CLOSEST PAIRS FROM parks, schools "
            "WHERE RANGE (0, 0, 1, 1) USING incremental",
            "--catalog", str(cli_catalog),
        ]) == 3
        capsys.readouterr()

    def test_missing_catalog_exits_2(self, capsys):
        from repro.cli import main

        assert main(["sql", "SELECT CLOSEST PAIRS FROM a"]) == 2
        assert "--catalog" in capsys.readouterr().err

    def test_json_output(self, cli_catalog, capsys):
        from repro.cli import main

        assert main([
            "sql",
            "SELECT CLOSEST PAIRS K 3 FROM parks, schools USING heap",
            "--catalog", str(cli_catalog), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert len(payload["result"]["pairs"]) == 3
