"""Productiveness analysis: actions, closures, universe, matrices, reach."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from ixdcl.analysis import Analysis, CapExceeded
from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.grammar import grammar_from_text
from ixdcl.pipeline import PipelineCaps, run_pipeline
from summary_helpers import matrix, reach
from test_summaries import RANDOM_361_TEXT, canonical

# (universe size, sha256 prefix of analysis_fingerprint)
ANALYSIS_GOLDENS = {
    "g1": (2, "57473591d4832c0f"),
    "loop": (1, "1fffee1bf0265e53"),
    "square": (2, "88ebdbd062ac16e7"),
    "G_1": (5, "b621ffd97b3fbfb6"),
    "G_2": (15, "71d53c65a3e90cfe"),
    "random": (2, "093436b50984e830"),
    "G_3": (47, "dc7857a66ec4cb76"),
}


def analysis_fingerprint(an):
    """Universe size and a digest of useful(), the universe in order, and
    per universe set X: act(f, X) and the focus matrix M[f, X] for every
    stack letter f, then the relation ~X~.  Sets are rendered sorted, so
    the digest does not depend on PYTHONHASHSEED."""
    uni = an.universe()
    letters = sorted(an.g.symbols.stack_symbols, key=str)
    lines = ["useful " + canonical(an.useful())]
    lines += ["universe " + canonical(X) for X in uni]
    for X in uni:
        for f in letters:
            lines.append(f"act {canonical(f)} {canonical(X)} "
                         f"{canonical(an.act(f, X))}")
            lines.append(f"matrix {canonical(f)} {canonical(X)} "
                         f"{canonical(matrix(an, f, X))}")
        lines.append(f"reach {canonical(X)} {canonical(reach(an, X))}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(uni), digest[:16]


def test_analysis_fingerprint_goldens():
    grammars = {"g1": g1_grammar(), "loop": g_loop_grammar(),
                "square": square_grammar(), "G_1": grammar_gn(1),
                "G_2": grammar_gn(2),
                "random": grammar_from_text(RANDOM_361_TEXT),
                "G_3": grammar_gn(3)}
    assert {name: analysis_fingerprint(Analysis(g))
            for name, g in grammars.items()} == ANALYSIS_GOLDENS


def test_useful_goldens(fixtures):
    assert fixtures["g1"].analysis.useful() == frozenset({"B", "S"})
    assert fixtures["loop"].analysis.useful() == frozenset({"A", "S"})
    sq = fixtures["square"].analysis.useful()
    assert "S" in sq and "A" not in sq and "B" not in sq


def test_is_empty():
    assert not Analysis(g1_grammar()).is_empty()
    g = grammar_from_text("start S\nterminals a\nstack f\nS -> S + f\n")
    assert Analysis(g).is_empty()


def test_act_golden_g1(g1):
    an = g1.analysis
    useful = an.useful()
    # pushing f makes A (one pending pop away from B) productive too
    assert an.act("f", useful) == frozenset({"A", "B", "S"})
    assert an.act("f", frozenset()) == frozenset({"A", "B", "S"})


def test_term_empty_folds_act_topmost_first():
    # a nonempty stack acts on the empty set, its topmost letter last:
    # U derives a under the stack f g (f on top), not under g f
    g = grammar_from_text('start S\nterminals a\nstack f g\nS -> T + g\n'
                          'T -> U + f\nU - f -> V\nV - g -> W\nW -> "a"\n')
    an = Analysis(g)
    assert not an.term_empty("U", ("f", "g"))
    assert an.term_empty("U", ("g", "f"))
    for n in range(4):
        for stack in itertools.product("fg", repeat=n):
            alive = an.useful() if not stack else frozenset()
            for f in reversed(stack):
                alive = an.act(f, alive)
            for nt in g.symbols.nonterminals:
                assert an.term_empty(nt, stack) == (nt not in alive)


def test_universe_goldens(fixtures):
    assert len(fixtures["g1"].analysis.universe()) == 2
    assert len(fixtures["loop"].analysis.universe()) == 1
    assert len(fixtures["square"].analysis.universe()) == 2
    for st_ in fixtures.values():
        uni = st_.analysis.universe()
        assert uni[0] == st_.analysis.useful()
        assert len(set(uni)) == len(uni)


def test_universe_closed_under_actions(fixtures):
    # reach(X) reads reach(act(f, X)) and relies on this closure
    analyses = [st_.analysis for st_ in fixtures.values()]
    analyses += [Analysis(g) for g in (grammar_gn(1), grammar_gn(2),
                                       grammar_from_text(RANDOM_361_TEXT))]
    for an in analyses:
        uni = set(an.universe())
        for X in list(uni):
            for f in an.g.symbols.stack_symbols:
                assert an.act(f, X) in uni


def test_cl_contains_terminal_lhs(fixtures):
    for st_ in fixtures.values():
        an = st_.analysis
        from ixdcl.grammar import TerminalRule
        terminal_lhs = {p.lhs for p in an.g.productions
                        if isinstance(p, TerminalRule)}
        for X in an.universe():
            assert terminal_lhs <= an.cl(X)
            assert X <= an.cl(X)


@given(st.sets(st.sampled_from(sorted(
    square_grammar().symbols.nonterminals)), max_size=6),
    st.sets(st.sampled_from(sorted(
        square_grammar().symbols.nonterminals)), max_size=6))
def test_act_monotone(x, y):
    an = test_act_monotone.an
    for f in sorted(an.g.symbols.stack_symbols):
        small = an.act(f, frozenset(x) & frozenset(y))
        assert small <= an.act(f, frozenset(x))
        assert small <= an.act(f, frozenset(y))


test_act_monotone.an = Analysis(square_grammar())


def test_matrix_golden_g1(g1):
    an = g1.analysis
    m = matrix(an, "f", an.useful())
    # the pop rule A - f -> B focuses A onto B under any annotation
    assert ("A", "B") in m
    assert ("A", "A") not in m


def test_matrix_entries_within_nonterminals(fixtures):
    for st_ in fixtures.values():
        an = st_.analysis
        nts = an.g.symbols.nonterminals
        for X in an.universe():
            for f in an.g.symbols.stack_symbols:
                for (a, b) in matrix(an, f, X):
                    assert a in nts and b in nts


def test_reach_reflexive_and_transitive(fixtures):
    for st_ in fixtures.values():
        an = st_.analysis
        for X in an.universe():
            r = reach(an, X)
            for a in X:
                assert (a, a) in r
            for (a, b) in r:
                for (b2, c) in r:
                    if b == b2:
                        assert (a, c) in r


def test_term_empty(g1):
    an = g1.analysis
    assert not an.term_empty("S", ())
    assert not an.term_empty("B", ())
    assert an.term_empty("A", ())       # A needs a stack to pop
    assert not an.term_empty("A", ("f",))
    assert not an.term_empty("S", ("f",))


def test_universe_cap():
    with pytest.raises(CapExceeded):
        Analysis(square_grammar(), universe_cap=1).universe()


@pytest.mark.parametrize("n, before", [(2, 314), (3, 1169)])
def test_act_keys_counted_and_capped(n, before):
    # before: the act keys made when each pass read the inner actions at
    # a snapshot taken before the binary rules had saturated
    keys = run_pipeline(grammar_gn(n)).stats["act_keys"]
    assert 0 < keys < before
    # every act key counts against max_universe, the last one included
    caps = PipelineCaps(max_universe=keys - 1)
    with pytest.raises(CapExceeded, match=f"exceeded: {keys} act keys, "
                       fr"limit {keys - 1} \(--max-universe\)"):
        run_pipeline(grammar_gn(n), caps)
