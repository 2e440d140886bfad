"""Benchmark of the downward-closure pipeline in `src/ixdcl`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload square --seed 1 --seconds 25 --trace 0

Workloads: square, counter, random (see BENCHMARK.json for why each is
there).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Progress
and every error go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (bench.ROOT / "src" / "ixdcl" / "__init__.py").is_file():
        print(f"no program to measure: {bench.ROOT / 'src' / 'ixdcl'} "
              "is missing", file=sys.stderr)
        return 2
    result = bench.run(bench.WORKLOADS[args.workload](), args.seed,
                       args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
