"""Tests of the benchmark's own code: statistics, timing, checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

import pickle
import threading
import time

import numpy as np
import pytest

import repro
from perfbench import common, served_mix, service_mix, tracing
from repro import CPQRequest, k_closest_pairs
from repro.geometry.mbr import MBR
from repro.query.knn import nearest_neighbors
from repro.query.range_query import range_query
from repro.rtree.bulk import bulk_load
from repro.service import KNNRequest, QueryService, RangeRequest
from repro.service import CPQRequest as ServiceCPQ


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(1000, 99.0), (999, 95.0), (200, 95.0),
                                    (100, 90.0), (40, 75.0), (20, 50.0)])
def test_tail_is_highest_rung_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    got = common.tail(values[::-1])
    assert got["pct"] == pct
    assert got["beyond"] >= common.TAIL_MIN_BEYOND
    assert got["value"] == values[n - 1 - got["beyond"]]
    assert sum(1 for v in values if v > got["value"]) == got["beyond"]


def test_tail_with_too_few_samples_reports_the_maximum():
    got = common.tail([3.0, 1.0, 2.0])
    assert (got["value"], got["pct"], got["beyond"], got["n"]) == (3.0, 100.0, 0, 3)


# -- open-loop latency is measured from the due time ------------------------

class _SlowClient:
    def __init__(self, delay_s):
        self.delay_s = delay_s

    def query(self, request):
        time.sleep(self.delay_s)
        return request

    def close(self):
        pass


def test_latency_counts_the_wait_for_a_busy_connection():
    # Four requests due at once over two connections that each take
    # 50 ms: the last two wait for a connection, and that wait counts.
    ops = [served_mix.Op("knn", 0.0, i, ("k", i)) for i in range(4)]
    t0 = served_mix.drive(lambda: _SlowClient(0.05), ops)
    latencies = sorted(served_mix.latency_ms(op, t0) for op in ops)
    service = sorted((op.done - op.sent) * 1000.0 for op in ops)
    assert latencies[-1] >= 95.0
    assert service[-1] < latencies[-1] - 30.0
    assert all(op.sent >= t0 + op.due for op in ops)


def test_generator_waits_for_due_time():
    ops = [served_mix.Op("knn", 0.1, 0, ("k", 0))]
    t0 = served_mix.drive(lambda: _SlowClient(0.0), ops)
    assert ops[0].sent - t0 >= 0.1
    assert served_mix.latency_ms(ops[0], t0) < 50.0


def test_request_stream_is_seeded_and_holds_the_mix_per_block():
    def keys(seed):
        stream = service_mix.requests(seed, stream=2)
        return [next(stream).key for _ in range(3 * served_mix.MIX_BLOCK)]

    first = keys(5)
    assert first == keys(5)
    assert first != keys(6)
    for start in range(0, len(first), served_mix.MIX_BLOCK):
        block = [key[0] for key in first[start:start + served_mix.MIX_BLOCK]]
        assert {kind: block.count(kind) for kind in set(block)} == {
            kind: round(share * served_mix.MIX_BLOCK)
            for kind, share in served_mix.MIX}


# -- the answer check ----------------------------------------------------------

@pytest.fixture(scope="module")
def trees():
    rng = np.random.default_rng(7)
    points_p, points_q = rng.random((400, 2)), rng.random((400, 2))
    return bulk_load(points_p), bulk_load(points_q)


def test_answer_check_rejects_an_injected_wrong_answer(trees):
    tree_p, tree_q = trees
    result = k_closest_pairs(tree_p, tree_q,
                             request=CPQRequest(k=20, algorithm="heap"))
    reference = common.canon_cpq(result)
    check = common.AnswerCheck()
    assert check.compare("cpq", reference, [reference])
    wrong = list(reference)
    d, p, q, p_oid, q_oid = wrong[5]
    wrong[5] = (d, p, q, p_oid + 1, q_oid)
    assert not check.compare("cpq", tuple(wrong), [reference])
    assert (check.wrong, check.failed_kinds) == (1, ["cpq"])


def test_answer_check_rejects_a_changed_tie_order():
    pair = lambda oid: (1.0, (0.0, 0.0), (1.0, 0.0), oid, 0)  # noqa: E731
    reference = (pair(1), pair(2))
    check = common.AnswerCheck()
    assert not check.compare("cpq", (pair(2), pair(1)), [reference])


def test_answer_check_accepts_any_listed_reference():
    check = common.AnswerCheck()
    assert check.compare("knn", ((1.0, 2, (0.0, 0.0)),),
                         [((0.5, 1, (0.0, 0.0)),), ((1.0, 2, (0.0, 0.0)),)])
    assert check.wrong == 0


# -- the timing wrappers leave answers byte-identical ------------------------

def _answers(tree_p, tree_q):
    out = []
    for algorithm in ("heap", "exh", "sim", "std"):
        # Looked up at call time, as the workloads do, so the wrapper
        # installed on the package is the one called.
        out.append(common.canon_cpq(repro.k_closest_pairs(
            tree_p, tree_q, request=CPQRequest(k=25, algorithm=algorithm))))
    out.append(common.canon_knn(nearest_neighbors(tree_p, (0.5, 0.5), k=10)))
    out.append(common.canon_range(range_query(tree_q,
                                              MBR((0.2, 0.2), (0.4, 0.4)))))
    with QueryService(workers=2) as service:
        service.register_pair("pq", tree_p, tree_q)
        for request in (
            ServiceCPQ(pair="pq", k=10, range=((0.1, 0.1), (0.6, 0.6))),
            KNNRequest(pair="pq", point=(0.3, 0.7), k=5, side="q"),
            RangeRequest(pair="pq", lo=(0.0, 0.0), hi=(0.3, 0.3)),
        ):
            response = service.execute(request)
            out.append(common.canon(request.kind, response.result))
    return pickle.dumps(out)


def test_wrappers_leave_answers_byte_identical(trees, tmp_path):
    tree_p, tree_q = trees
    plain = _answers(tree_p, tree_q)
    recorder = tracing.install("test", str(tmp_path))
    try:
        with tracing.phase("measured"):
            traced = _answers(tree_p, tree_q)
    finally:
        tracing.uninstall()
    assert traced == plain
    summary, _ = recorder.snapshot()
    measured = summary["phases"]["measured"]
    assert measured["stats"]["core.k_closest_pairs"][0] == 5
    assert measured["stats"]["geometry.kernel"][0] > 0
    assert measured["counters"]["service.runs"] == 3
    # Uninstalling restores every original.
    assert _answers(tree_p, tree_q) == plain
    assert not hasattr(repro.k_closest_pairs, "__perfbench_original__")


def test_self_time_excludes_wrapped_children(tmp_path):
    recorder = tracing.Recorder("test", str(tmp_path))
    recorder.set_phase("measured")
    inner = recorder.timed("inner", "b", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = recorder.timed("outer", "a", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
    summary, _ = recorder.snapshot()
    measured = summary["phases"]["measured"]
    calls, total, self_s, errors = measured["stats"]["outer"]
    assert calls == 2 and errors == 0
    assert total >= 0.06
    assert 0.015 <= self_s < total - 0.035
    assert measured["layer_busy"]["b"] == pytest.approx(
        measured["stats"]["inner"][1])


def test_only_calls_inside_a_phase_are_recorded(tmp_path):
    recorder = tracing.Recorder("test", str(tmp_path))
    step = recorder.timed("step", "a", lambda: None)
    step()
    recorder.set_phase("setup")
    step()
    recorder.set_phase("measured")
    step()
    step()
    recorder.set_phase(None)
    step()
    summary, _ = recorder.snapshot()
    assert summary["phases"]["setup"]["stats"]["step"][0] == 1
    assert summary["phases"]["measured"]["stats"]["step"][0] == 2
    # Another process of the run maps the same gate file and sees the
    # phase the benchmark process sets.
    other = tracing.Recorder("other", str(tmp_path))
    recorder.set_phase("measured")
    assert other.gate[0] == tracing.PHASES["measured"]
    recorder.set_phase(None)
    assert other.gate[0] == 0


def test_layer_metrics_are_per_measured_operation(tmp_path):
    recorder = tracing.Recorder("bench", str(tmp_path))
    read = recorder.timed("rtree.read_node", "rtree", lambda: None)
    build = recorder.timed("rtree.bulk_load", "rtree", lambda: None)
    recorder.set_phase("setup")
    build()
    build()
    read()
    recorder.set_phase("measured")
    for _ in range(12):
        read()
    recorder.set_phase(None)
    recorder.dump()
    result = {"record": {"ops": 4, "setup_runs_s": [0.1, 0.1]}}
    layers = tracing.layer_metrics(str(tmp_path), "cpq-bigk", result)
    assert layers["rtree.read_node.calls"] == (3.0, "count/op")
    assert layers["rtree.build_s"][1] == "s"
    assert "service.requests" in result["unmeasured"]


def test_wrappers_leave_live_mutation_intact(tmp_path):
    from repro.rtree.tree import RTree
    from repro.storage.wal import WriteAheadLog

    def ingest(directory):
        tree = RTree()
        wal = WriteAheadLog(str(directory / "log.wal"), sync_mode="flush")
        tree.enable_live_mutation(wal)
        rng = np.random.default_rng(3)
        for batch in range(5):
            with tree.batch():
                for i, point in enumerate(rng.random((40, 2))):
                    tree.insert(tuple(map(float, point)), batch * 40 + i)
        wal.close()
        return tree.generation, sorted(
            (e.oid, e.point) for e in tree.iter_leaf_entries())

    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = ingest(tmp_path / "plain")
    recorder = tracing.install("test", str(tmp_path))
    try:
        with tracing.phase("measured"):
            traced = ingest(tmp_path / "traced")
    finally:
        tracing.uninstall()
    assert traced == plain
    summary, _ = recorder.snapshot()
    measured = summary["phases"]["measured"]
    assert measured["stats"]["rtree.commit"][0] == 5
    assert measured["stats"]["rtree.commit"][3] == 0
    assert measured["stats"]["storage.snapshot.publish"][0] == 5
    assert "storage.snapshot.pending_pages" in measured["maxima"]
