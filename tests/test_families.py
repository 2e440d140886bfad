"""Benchmark grammar families and the coupled counter DFAs."""

import itertools

import pytest

from ixdcl.analysis import Analysis
from ixdcl.families import (bottom_marked_dfas, counter_dfas, counter_letters,
                            counter_intersection_words, g1_grammar,
                            grammar_gn, grammar_gn_text, hashed_counter_dfas)
from ixdcl.grammar import grammar_from_text
from ixdcl.oracle import OracleBudget, term_language_dp
from grammar_helpers import validate


def test_g1_language():
    g = g1_grammar()
    an = Analysis(g)
    dp = term_language_dp(g, OracleBudget(8, 3, 50000),
                          emptiness=an.term_empty)
    assert dp.complete
    assert dp.table[(g.start, ())] == frozenset({"ab"})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counter_intersection_is_unique(n):
    words = counter_intersection_words(n)
    assert len(words) == 1
    assert len(words[0]) == 2 ** n - 1
    # the word is the binary-counting ruler sequence
    if n >= 2:
        assert words[0][0] == "inc1"
        assert words[0].count("inc1") == 2 ** (n - 1)


def intersection_words(dfas, sigma, max_len):
    deltas = [d.delta() for d in dfas]
    out = []
    frontier = [(tuple(d.init for d in dfas), ())]
    for _ in range(max_len + 1):
        nxt = []
        for qs, word in frontier:
            if all(q in d.finals for q, d in zip(qs, dfas)):
                out.append(word)
            if len(word) < max_len:
                for a in sigma:
                    try:
                        qs2 = tuple(deltas[i][(q, a)]
                                    for i, q in enumerate(qs))
                    except KeyError:
                        continue
                    nxt.append((qs2, word + (a,)))
        frontier = nxt
    return out


def accepts(dfa, word):
    """Does the partial DFA of a check rule accept the stack word?"""
    d = dfa.delta()
    q = dfa.init
    for a in word:
        if (q, a) not in d:
            return False
        q = d[(q, a)]
    return q in dfa.finals


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hashed_counters_add_end_marker(n):
    dfas = hashed_counter_dfas(n)
    sigma = counter_letters(n) + ["end"]
    words = intersection_words(dfas, sigma, 2 ** n)
    assert len(words) == 1
    assert len(words[0]) == 2 ** n
    assert words[0][-1] == "end"
    assert words[0][:-1] == counter_intersection_words(n)[0]


def test_bottom_marked_dfas_ignore_bits():
    n = 2
    dfas = bottom_marked_dfas(n)
    base = intersection_words(hashed_counter_dfas(n),
                              counter_letters(n) + ["end"], 2 ** n)[0]
    for bits in itertools.product((0, 1), repeat=len(base)):
        marked = tuple(f"{a}_{b}" for a, b in zip(base, bits)) + ("bot",)
        for d in dfas:
            assert accepts(d, marked)
    # without the bottom marker nothing is accepted
    marked = tuple(f"{a}_0" for a in base)
    assert not any(accepts(d, marked) for d in dfas)


def test_grammar_gn_text_parses_and_validates():
    for n in (1, 2):
        g = grammar_from_text(grammar_gn_text(n))
        assert validate(g) == []


def test_grammar_g1_lower_bound_language():
    g = grammar_gn(1)
    an = Analysis(g)
    dp = term_language_dp(g, OracleBudget(20, 3, 100000),
                          emptiness=an.term_empty)
    assert dp.complete
    assert dp.table[(g.start, ())] == frozenset({"a" * 16})


def test_counter_dfa_shapes():
    for n in (1, 2, 3):
        dfas = counter_dfas(n)
        assert len(dfas) == n
        for d in dfas:
            assert len(d.states) == 2
            assert len(d.finals) == 1
