#!/usr/bin/env python3
"""Demonstrate the doubly exponential lower-bound family.

For each n, the n coupled counter DFAs accept a unique word of length
2^n - 1, and the grammar G_n generates a single word whose length grows
as a tower of exponentials (a^16 for n=1, a^65536 for n=2).
The pipeline is run for small n; the generated word length is verified
with the bounded-length oracle where feasible.
"""

import argparse
import time

from ixdcl.analysis import Analysis
from ixdcl.families import counter_intersection_words, grammar_gn
from ixdcl.oracle import OracleBudget, term_language_dp
from ixdcl.pipeline import run_pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=2)
    args = parser.parse_args()

    for n in range(1, args.max_n + 1):
        words = counter_intersection_words(n)
        print(f"n={n}: counter intersection = {len(words)} word(s), "
              f"length {len(words[0])} (= 2^{n} - 1)")

        g = grammar_gn(n)
        print(f"      G_{n}: {len(g.symbols.nonterminals)} nonterminals, "
              f"{len(g.productions)} productions, size {g.size()}")

        expected = 2 ** (2 ** (2 ** n))
        if expected <= 70000:
            an = Analysis(g)
            t0 = time.perf_counter()
            dp = term_language_dp(g, OracleBudget(expected + 1, n + 4,
                                                  10 ** 6),
                                  emptiness=an.term_empty, lengths=True)
            lengths = sorted(dp.table[(g.start, ())])
            print(f"      oracle word lengths: {lengths} "
                  f"(complete={dp.complete}, {time.perf_counter() - t0:.1f}s)")

        # G_3's closure is the one ideal (a + eps)^(2^256): its state
        # count and longest word are read from it, no state is unfolded
        t0 = time.perf_counter()
        result = run_pipeline(g)
        print(f"      pipeline: {result.stats['nfa_states']} NFA "
              f"states, longest word {result.stats['longest_word']} "
              f"({time.perf_counter() - t0:.2f}s)")


if __name__ == "__main__":
    main()
