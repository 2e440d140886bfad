#!/usr/bin/env python3
"""Run the full pipeline on the bundled fixture grammars and print a
stage-by-stage statistics table."""

import argparse
import time

from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.nfa import longest_word_or_infinite
from ixdcl.pipeline import run_pipeline

COLUMNS = ["nonterminals", "productions", "universe", "letters",
           "monoid_elements", "monoid_j_length", "summary_nodes",
           "max_summary_size", "nfa_states"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family-n", type=int, default=1,
                        help="also run the lower-bound family member G_n")
    args = parser.parse_args()

    grammars = [("g1", g1_grammar()), ("loop", g_loop_grammar()),
                ("square", square_grammar()),
                (f"G_{args.family_n}", grammar_gn(args.family_n))]

    header = ["grammar"] + COLUMNS + ["longest", "time"]
    rows = []
    for name, g in grammars:
        t0 = time.perf_counter()
        result = run_pipeline(g)
        longest = longest_word_or_infinite(result.nfa)
        rows.append([name] + [str(result.stats[c]) for c in COLUMNS] +
                    [str(longest), f"{time.perf_counter() - t0:.2f}s"])

    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


if __name__ == "__main__":
    main()
