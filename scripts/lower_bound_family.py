#!/usr/bin/env python3
r"""Demonstrate the doubly exponential lower-bound family.

For each n, the n coupled counter DFAs accept a unique word of length
2^n - 1, and the grammar G_n generates a single word whose length grows
as a tower of exponentials (a^16 for n=1, a^65536 for n=2).
The pipeline is run for small n; the generated word length is verified
with the bounded-length oracle where feasible.  G_4 needs raised caps:

    python scripts/lower_bound_family.py --max-n 4 \
        --max-summaries 400000 --max-triples 1200000
"""

import argparse
import time

from ixdcl.analysis import Analysis, CapExceeded
from ixdcl.families import counter_intersection_words, grammar_gn
from ixdcl.oracle import OracleBudget, term_language_dp
from ixdcl.pipeline import PipelineCaps, run_pipeline


def count(n):
    """n in decimal, or past 2^64 as 2^k + r: G_4's counts pass 2^65536,
    which has more digits than str() converts."""
    k = n.bit_length() - 1
    if k < 64:
        return str(n)
    r = n - (1 << k)
    return f"2^{k} + {count(r)}" if r else f"2^{k}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--max-n", type=int, default=2)
    parser.add_argument("--max-summaries", type=int,
                        default=PipelineCaps().max_summaries)
    parser.add_argument("--max-triples", type=int,
                        default=PipelineCaps().max_triples)
    args = parser.parse_args()
    caps = PipelineCaps(max_summaries=args.max_summaries,
                        max_triples=args.max_triples)

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
        try:
            result = run_pipeline(g, caps)
        except CapExceeded as exc:
            print(f"      pipeline: {exc} "
                  f"({time.perf_counter() - t0:.2f}s)")
            continue
        print(f"      pipeline: {count(result.stats['nfa_states'])} NFA "
              f"states, longest word {count(result.stats['longest_word'])} "
              f"({time.perf_counter() - t0:.2f}s)")


if __name__ == "__main__":
    main()
