"""CLI coverage for the service subcommands (``batch`` and ``serve``)."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.io import save_points


@pytest.fixture(scope="module")
def point_files(tmp_path_factory):
    rng = np.random.default_rng(17)
    directory = tmp_path_factory.mktemp("cli-service")
    left = directory / "left.npy"
    right = directory / "right.npy"
    save_points(str(left), rng.random((120, 2)))
    save_points(str(right), rng.random((110, 2)))
    return str(left), str(right)


def envelope(**fields):
    """One wire request envelope (``"v": 3``) for a JSONL line."""
    return {"v": 3, **fields}


def write_jsonl(path, objects):
    with open(path, "w") as handle:
        for obj in objects:
            line = obj if isinstance(obj, str) else json.dumps(obj)
            handle.write(line + "\n")


def read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_batch_mixed_requests(point_files, tmp_path, capsys):
    left, right = point_files
    requests_path = tmp_path / "requests.jsonl"
    out_path = tmp_path / "responses.jsonl"
    stats_path = tmp_path / "stats.json"
    write_jsonl(requests_path, [
        envelope(op="cpq", k=3),
        envelope(op="cpq", k=3),  # identical: second wave may hit cache
        envelope(op="cpq", k=2, algorithm="heap"),
        envelope(op="knn", point=[0.5, 0.5], k=4),
        envelope(op="range", lo=[0.2, 0.2], hi=[0.6, 0.6]),
    ])

    code = main([
        "batch", left, right, str(requests_path),
        "--workers", "2",
        "--out", str(out_path),
        "--stats-json", str(stats_path),
    ])
    captured = capsys.readouterr()
    assert code == 0

    responses = read_jsonl(out_path)
    assert len(responses) == 5
    assert all(r["status"] == "ok" for r in responses)

    cpq = responses[0]
    assert cpq["kind"] == "cpq"
    assert len(cpq["result"]["pairs"]) == 3
    distances = [p["distance"] for p in cpq["result"]["pairs"]]
    assert distances == sorted(distances)
    # Responses stay aligned with request order.
    assert responses[1]["result"]["pairs"] == cpq["result"]["pairs"]
    assert responses[2]["algorithm"] == "heap"
    assert len(responses[2]["result"]["pairs"]) == 2

    knn = responses[3]
    assert knn["kind"] == "knn"
    assert len(knn["result"]) == 4
    nn_distances = [n["distance"] for n in knn["result"]]
    assert nn_distances == sorted(nn_distances)

    rng_resp = responses[4]
    assert rng_resp["kind"] == "range"
    for entry in rng_resp["result"]:
        x, y = entry["point"]
        assert 0.2 <= x <= 0.6 and 0.2 <= y <= 0.6

    assert "# batch: 5 requests" in captured.err
    assert "# serve-stats" in captured.err
    stats = json.loads(stats_path.read_text())
    assert stats["queries"]["submitted"] == 5
    assert stats["queries"]["by_status"]["ok"] == 5
    assert stats["planner"]  # auto requests went through the planner


def test_batch_zero_deadline_reports_structured_status(
    point_files, tmp_path, capsys
):
    left, right = point_files
    requests_path = tmp_path / "requests.jsonl"
    write_jsonl(requests_path, [
        envelope(op="cpq", k=1, deadline_ms=0),
    ])
    code = main(["batch", left, right, str(requests_path),
                 "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 0
    (response,) = [json.loads(line)
                   for line in captured.out.splitlines() if line.strip()]
    assert response["status"] == "deadline_exceeded"
    assert response["result"] is None
    assert "1 deadline_exceeded" in captured.err


def test_serve_reads_stdin_jsonl(point_files, capsys, monkeypatch):
    left, right = point_files
    lines = "\n".join([
        json.dumps(envelope(op="cpq", k=1)),
        "",  # blank lines are skipped
        "not json at all",
        json.dumps(envelope(op="nope")),
        json.dumps(envelope(op="knn", point=[0.1, 0.9], k=2)),
    ]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))

    code = main(["serve", left, right, "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 0

    responses = [json.loads(line)
                 for line in captured.out.splitlines() if line.strip()]
    assert len(responses) == 4  # blank line dropped
    assert responses[0]["status"] == "ok"
    assert responses[0]["kind"] == "cpq"
    assert responses[1]["status"] == "bad_request"  # bad JSON
    assert "bad request" in responses[1]["error"]
    assert responses[2]["status"] == "bad_request"  # unknown op
    assert responses[3]["status"] == "ok"
    assert len(responses[3]["result"]) == 2
    assert "# serve-stats" in captured.err


def test_batch_distances_match_direct_query(point_files, tmp_path, capsys):
    """The service path returns the same closest pair as `repro-cpq query`
    would: cross-check against a brute-force scan of the inputs."""
    left, right = point_files
    points_p = np.load(left)
    points_q = np.load(right)
    best = min(
        math.dist(p, q) for p in points_p for q in points_q
    )

    requests_path = tmp_path / "requests.jsonl"
    write_jsonl(requests_path, [envelope(op="cpq", k=1)])
    code = main(["batch", left, right, str(requests_path)])
    captured = capsys.readouterr()
    assert code == 0
    (response,) = [json.loads(line)
                   for line in captured.out.splitlines() if line.strip()]
    assert response["result"]["pairs"][0]["distance"] == pytest.approx(best)


# Lines no wire decoder accepts: not JSON, not an object, an old
# envelope version, a missing required field, and a sql statement
# (batch and serve hold no catalog).
BAD_LINES = [
    "not json",
    "[1, 2]",
    json.dumps({"v": 2, "op": "cpq", "k": 1}),
    json.dumps(envelope(op="knn", k=1)),
    json.dumps(envelope(op="sql", sql="SELECT CLOSEST PAIRS FROM a, b")),
]


def test_batch_bad_lines_answer_in_place(point_files, tmp_path, capsys):
    left, right = point_files
    requests_path = tmp_path / "requests.jsonl"
    good = envelope(op="cpq", k=2)
    write_jsonl(requests_path, [good, *BAD_LINES, good])
    code = main(["batch", left, right, str(requests_path),
                 "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 0
    responses = [json.loads(line)
                 for line in captured.out.splitlines() if line.strip()]
    statuses = [r["status"] for r in responses]
    assert statuses == ["ok"] + ["bad_request"] * len(BAD_LINES) + ["ok"]
    assert all("bad request" in r["error"] for r in responses[1:-1])
    assert responses[0]["result"]["pairs"] == responses[-1]["result"]["pairs"]
    assert f"{len(BAD_LINES)} bad_request" in captured.err


def test_serve_survives_bad_lines(point_files, capsys, monkeypatch):
    left, right = point_files
    good = json.dumps(envelope(op="knn", point=[0.5, 0.5], k=3))
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("\n".join([*BAD_LINES, good]) + "\n"),
    )
    code = main(["serve", left, right, "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 0
    responses = [json.loads(line)
                 for line in captured.out.splitlines() if line.strip()]
    assert [r["status"] for r in responses] == (
        ["bad_request"] * len(BAD_LINES) + ["ok"]
    )
    assert len(responses[-1]["result"]) == 3
