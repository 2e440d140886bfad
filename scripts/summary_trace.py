#!/usr/bin/env python3
"""Trace how stack summaries evolve while letters are pushed.

Runs the single-loop example by default: repeated pushes of its only
letter walk through deepen/atom/block/merge cases and reach a plateau.
"""

import argparse
from itertools import islice

from ixdcl.families import g1_grammar, g_loop_grammar, square_grammar
from ixdcl.grammar import sort_key
from ixdcl.pipeline import stages

FIXTURES = {"g1": g1_grammar, "loop": g_loop_grammar,
            "square": square_grammar}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fixture", nargs="?", default="loop",
                        choices=sorted(FIXTURES))
    parser.add_argument("--pushes", type=int, default=12)
    args = parser.parse_args()

    # the summary graph, the next stage, is built after the trace
    pipeline = stages(FIXTURES[args.fixture]())
    _, ag, monoid, factory = islice(pipeline, 4)
    letters = sorted(ag.letters, key=sort_key)

    print(f"{args.fixture}: {len(letters)} annotated letter(s), "
          f"monoid of {len(monoid.elements)} elements")
    sigma = factory.empty
    seen = {sigma: 0}
    for i in range(1, args.pushes + 1):
        letter = letters[(i - 1) % len(letters)]
        trace = []
        sigma = factory.push_letter(letter, sigma, trace=trace)
        note = ""
        if sigma in seen:
            note = f"  (same as after push {seen[sigma]})"
        else:
            seen[sigma] = i
        print(f"push {i:2d}  {sort_key(letter):<24s} case={trace[0]:<8s} "
              f"size={sigma.size:3d} depth={sigma.depth}{note}")

    graph = next(pipeline)
    print(f"summary graph: {len(graph.nodes)} nodes, "
          f"{len(graph.edges)} edges, "
          f"max size {max(s.size for s in graph.nodes)}")


if __name__ == "__main__":
    main()
