"""Server process of the served-mix workload.

Runs the shipped ``repro-cpq serve-net`` command with its defaults (2
shards, 4 service workers, 64-page shard buffers, result cache 128)
over two catalog datasets.  With ``--trace-dir`` the benchmark's
timing wrappers are installed first, in this process and in every
shard process it spawns, and each process writes its per-layer
aggregates into that directory when it exits.

    python3 -m perfbench.server LEFT RIGHT --catalog DIR [--trace-dir DIR]

Stop it with SIGINT; serve-net then drains and closes its shards.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left")
    parser.add_argument("right")
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    recorder = None
    if args.trace_dir:
        from perfbench import tracing

        recorder = tracing.install("server", args.trace_dir,
                                   trace_shards=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve-net", args.left, args.right,
                         "--catalog", args.catalog])
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
