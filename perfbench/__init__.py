"""Repository benchmark: four workloads against ``repro``'s public API.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and known defects.
"""
