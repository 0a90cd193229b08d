#!/usr/bin/env python3
"""End-to-end benchmark of streamed pre-training and keep-alive HTTP serving.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for the metric definitions):

- ``pretrain_stream`` -- MLM + MER pre-training steps streamed off a sharded
  corpus;
- ``serve_hot`` -- the six-task mix over two keep-alive connections to a
  2-worker fleet, tables repeating from a pool that fits the encode caches;
- ``serve_cold`` -- the same traffic with no table repeated within a run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs timing
probes around the program's public calls and reports per-layer metrics.
The last line of standard output is the JSON result.  The exit code is 0
only when every output was checked correct.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import BenchmarkError, emit, require_program, with_idle_layers

WORKLOADS = ("pretrain_stream", "serve_hot", "serve_cold")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measured time the run is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread per process, set before NumPy loads (the server
    # process inherits it): the trainer and each server compute on one core,
    # so the figures do not depend on how many idle cores the host lends a
    # thread pool at the moment.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    try:
        require_program()
        if args.workload == "pretrain_stream":
            import pretrain_workload as workload
        else:
            import serve_workload as workload
        values, attempted, failed, correct, notes = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            values = with_idle_layers(values)
        emit(values, bool(args.trace), attempted, failed, correct, notes)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if not correct:
        print("perfbench: output check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
