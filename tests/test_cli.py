"""End-to-end tests of the command-line interface."""

import json
import os

import pytest

from repro.cli import main


def run_cli(*argv):
    return main(list(argv))


def register(directory, **datasets):
    """Register points files as STR-packed catalog datasets under
    ``directory``; returns the catalog path."""
    from repro.catalog import Catalog
    from repro.datasets import load_points

    catalog = Catalog(str(directory))
    for name, path in datasets.items():
        catalog.register_dataset(name, load_points(path), kind="str")
    return str(directory)


class TestGenerate:
    def test_uniform_npy(self, tmp_path, capsys):
        out = str(tmp_path / "pts.npy")
        assert run_cli(
            "generate", "--kind", "uniform", "--n", "100", "--out", out
        ) == 0
        assert os.path.exists(out)
        assert "100 uniform points" in capsys.readouterr().out

    def test_sequoia_csv(self, tmp_path, capsys):
        out = str(tmp_path / "pts.csv")
        assert run_cli(
            "generate", "--kind", "sequoia", "--n", "50", "--out", out
        ) == 0
        assert "50 sequoia points" in capsys.readouterr().out

    def test_overlap_and_grid(self, tmp_path):
        from repro.datasets import load_points

        out = str(tmp_path / "pts.npy")
        run_cli(
            "generate", "--n", "200", "--overlap", "0.0",
            "--grid", "64", "--out", out,
        )
        points = load_points(out)
        # 0% overlap shifts the workspace fully to the right of [0,1]
        assert points[:, 0].min() > 1.0


class TestBuildInfoQuery:
    @pytest.fixture
    def built(self, tmp_path):
        points_path = str(tmp_path / "p.npy")
        tree_path = str(tmp_path / "p.pages")
        run_cli("generate", "--n", "500", "--seed", "3",
                "--out", points_path)
        run_cli("build", points_path, "--tree", tree_path)
        return points_path, tree_path

    def test_build_writes_pages_and_meta(self, built, capsys):
        __, tree_path = built
        assert os.path.exists(tree_path)
        with open(tree_path + ".meta.json") as handle:
            meta = json.load(handle)
        assert meta["count"] == 500

    def test_info(self, built, capsys):
        __, tree_path = built
        assert run_cli("info", "--tree", tree_path) == 0
        out = capsys.readouterr().out
        assert "points:   500" in out
        assert "M=21" in out

    def test_query_on_points_files(self, tmp_path, capsys):
        left = str(tmp_path / "a.npy")
        right = str(tmp_path / "b.npy")
        run_cli("generate", "--n", "300", "--seed", "1", "--out", left)
        run_cli("generate", "--n", "300", "--seed", "2", "--out", right)
        catalog = register(tmp_path, a=left, b=right)
        assert run_cli(
            "query", "a", "b", "--catalog", catalog,
            "--k", "5", "--algorithm", "std",
        ) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 6  # 5 pairs + stats line
        assert "# STD:" in out

    def test_query_on_built_tree(self, built, tmp_path, capsys):
        from repro.catalog import Catalog

        points_path, tree_path = built
        other = str(tmp_path / "other.npy")
        run_cli("generate", "--n", "200", "--seed", "9", "--out", other)
        catalog = register(tmp_path, other=other)
        Catalog(catalog).adopt_pages("built", tree_path)
        assert run_cli(
            "query", "built", "other", "--catalog", catalog,
            "--k", "3", "--buffer", "32",
        ) == 0
        assert "# HEAP:" in capsys.readouterr().out

    def test_query_results_match_library(self, tmp_path, capsys):
        from repro.core import CPQRequest, k_closest_pairs
        from repro.datasets import load_points
        from repro.rtree.bulk import bulk_load

        left = str(tmp_path / "a.npy")
        right = str(tmp_path / "b.npy")
        run_cli("generate", "--n", "150", "--seed", "4", "--out", left)
        run_cli("generate", "--n", "150", "--seed", "5", "--out", right)
        catalog = register(tmp_path, a=left, b=right)
        run_cli("query", "a", "b", "--catalog", catalog, "--k", "1")
        out = capsys.readouterr().out
        expected = k_closest_pairs(
            bulk_load(load_points(left)),
            bulk_load(load_points(right)),
            request=CPQRequest(k=1),
        )
        assert f"{expected.pairs[0].distance:.9f}" in out

    def test_query_without_catalog_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exited:
            run_cli("query", str(tmp_path / "a.npy"),
                    str(tmp_path / "b.npy"))
        assert exited.value.code == 2

    def test_unregistered_name_exits_2_naming_register(self, tmp_path,
                                                       capsys):
        assert run_cli(
            "query", "a.npy", "b.npy", "--catalog", str(tmp_path),
        ) == 2
        assert "repro-cpq catalog register" in capsys.readouterr().err


class TestSubstrateCommands:
    @pytest.fixture
    def points_file(self, tmp_path):
        path = str(tmp_path / "pts.npy")
        run_cli("generate", "--n", "400", "--seed", "6", "--out", path)
        return path

    def test_knn(self, points_file, capsys):
        assert run_cli(
            "knn", points_file, "--x", "0.5", "--y", "0.5", "--k", "3"
        ) == 0
        out = capsys.readouterr().out
        assert out.count("oid=") == 3
        assert "disk accesses" in out

    def test_range(self, points_file, capsys):
        assert run_cli(
            "range", points_file, "--xmin", "0", "--ymin", "0",
            "--xmax", "1", "--ymax", "1",
        ) == 0
        out = capsys.readouterr().out
        assert "# 400 points" in out

    def test_join(self, points_file, tmp_path, capsys):
        other = str(tmp_path / "other.npy")
        run_cli("generate", "--n", "400", "--seed", "7", "--out", other)
        assert run_cli(
            "join", points_file, other, "--epsilon", "0.01",
            "--limit", "5",
        ) == 0
        out = capsys.readouterr().out
        assert "pairs within 0.01" in out


class TestFigure:
    def test_quick_figure_with_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "fig.csv")
        assert run_cli(
            "figure", "fig04", "--quick", "--csv", csv_path
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert os.path.exists(csv_path)

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            run_cli("figure", "fig99", "--quick")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_unknown_algorithm_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("query", "a", "b", "--algorithm", "quantum")
