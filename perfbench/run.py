#!/usr/bin/env python3
"""Run one benchmark workload against ``repro`` and print its metrics.

    python3 perfbench/run.py --workload cpq-bigk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` installs the timing wrappers of
``perfbench/tracing.py`` and reports the per-layer metrics instead.
``--workload all`` runs every workload untraced and traced and prints
every metric plus the tracing overhead.  Human-readable lines go first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full run
record (host, settings, tails, per-layer detail) is written under
``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import common  # noqa: E402  (needs the path above)

WORKLOADS = {
    "cpq-bigk": "perfbench.cpq_bigk",
    "served-mix": "perfbench.served_mix",
    "service-mix": "perfbench.service_mix",
    "ingest-read": "perfbench.ingest_read",
}
#: The headline latency of each workload, compared between an untraced
#: and a traced run to give the tracing overhead.
HEADLINE = {
    "cpq-bigk": "cpq_p50_ms",
    "served-mix": "point_p50_ms",
    "service-mix": "point_p50_ms",
    "ingest-read": "point_p50_ms",
}
OUT_DIR = os.path.join(ROOT, ".perfbench")


def contract():
    """BENCHMARK.json's workloads and end-to-end and per-layer names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({w["name"] for w in spec["workloads"]},
            [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its result dict plus the run record."""
    module = importlib.import_module(WORKLOADS[workload])
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir = os.path.join(OUT_DIR, "work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_dir = os.path.join(workdir, "trace") if trace else None
    recorder = None
    host = common.host_record(ROOT)
    started = time.perf_counter()
    try:
        if trace:
            from perfbench import tracing

            os.makedirs(trace_dir)
            recorder = tracing.install("bench", trace_dir)
        result = module.run(seed, seconds, workdir, trace_dir)
        if recorder is not None:
            from perfbench import tracing

            recorder.dump()
            tracing.uninstall()
            result["layers"] = tracing.layer_metrics(
                trace_dir, workload, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_after"] = list(os.getloadavg())
    host["loadavg_before"] = host.pop("loadavg")
    result["record"].update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        wall_s=time.perf_counter() - started, host=host,
        wrong_answers=result["wrong_answers"], invalid=result["invalid"],
    )
    return result


def summary_line(result: dict, names) -> dict:
    """The last output line: ``names`` only, or, when ``names`` is None
    (a workload BENCHMARK.json does not list), every metric it has."""
    values = dict(result.get("layers") or result["metrics"])
    if names is None:
        names = list(values)
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"workload does not produce {missing}")
    return {
        "correct": (result["wrong_answers"] == 0 and result["failed"] == 0
                    and not result["invalid"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": float(values[n][0]), "unit": values[n][1]}
                    for n in names},
    }


def write_record(result: dict) -> str:
    record = result["record"]
    path = os.path.join(
        OUT_DIR, "records",
        f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    record = dict(record, metrics={k: list(v) for k, v in result["metrics"].items()},
                  layers={k: list(v) for k, v in result.get("layers", {}).items()},
                  attempted=result["attempted"], failed=result["failed"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    return path


def report(result: dict) -> None:
    """Every metric by name and unit, on standard output."""
    record = result["record"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} attempted={result['attempted']} "
          f"failed={result['failed']} wrong_answers={result['wrong_answers']}"
          f"{' INVALID' if result['invalid'] else ''}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for name, (value, unit) in sorted(result.get("layers", {}).items()):
        print(f"{name:32s} {value:14.6g} {unit}")
    for name, reason in sorted(result.get("unmeasured", {}).items()):
        print(f"{name:32s} {'unmeasured':>14s} ({reason})")


def prepare_process() -> None:
    """Fix the hash seed (re-executing once) and check for the sources.

    String hashing is randomised per process, and the dict and set
    layouts it produces moved served-mix's median latency by 15 % from
    one run of the same seed to the next (2-core host).  Every process
    of a run (this one, the server and its shards, which inherit the
    environment) uses one fixed hash seed instead.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"run.py: no program sources at "
                 f"{os.path.join(ROOT, 'src')}; run it from a full checkout")


def main(argv=None) -> int:
    prepare_process()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    listed, end_to_end, per_layer = contract()

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        report(result)
        print(f"# record: {write_record(result)}")
        names = per_layer if args.trace else end_to_end
        line = summary_line(result,
                            names if args.workload in listed else None)
        print(json.dumps(line))
        return 0

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        plain = run_one(workload, args.seed, args.seconds, False)
        traced = run_one(workload, args.seed, args.seconds, True)
        for result in (plain, traced):
            report(result)
            print(f"# record: {write_record(result)}")
        name = HEADLINE[workload]
        overhead = traced["metrics"][name][0] / plain["metrics"][name][0] - 1.0
        print(f"# {workload}: tracing overhead on {name}: {overhead:+.1%}")
        totals["correct"] &= (plain["wrong_answers"] == 0
                              and plain["failed"] == 0 and not plain["invalid"])
        totals["attempted"] += plain["attempted"]
        totals["failed"] += plain["failed"]
        for metric, (value, unit) in plain["metrics"].items():
            totals["metrics"][f"{workload}/{metric}"] = {"value": value,
                                                         "unit": unit}
        totals["metrics"][f"{workload}/trace_overhead"] = {
            "value": overhead, "unit": "ratio"}
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
