"""Smoke self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

On the smallest inputs (the first three grammars of the `random`
population, one round) an untraced and a traced run must each emit
exactly the metric names and units that BENCHMARK.json lists, and pass
every output check.  The same run with a planted wrong membership
verdict must fail the output check.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys

import bench


def smallest(trace):
    return bench.run(bench.Random(3), seed=1, seconds=0, trace=trace,
                     min_rounds=1)


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = smallest(trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{key}: emitted {sorted(got.items())}, "
                            f"BENCHMARK.json lists {sorted(want.items())}")
        if not result["correct"] or result["attempted"] < 1:
            problems.append(f"{key}: the run failed its checks: {result}")

    member = bench.Ix.member
    bench.Ix.member = lambda self, nfa, word: not member(self, nfa, word)
    try:
        planted = smallest(False)
    finally:
        bench.Ix.member = member
    if planted["correct"]:
        problems.append("a planted wrong membership verdict passed the check")

    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
