"""The brute-force derivation oracles that everything else is checked against."""

import itertools

from hypothesis import given, settings, strategies as st

from ixdcl.analysis import Analysis
from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.grammar import grammar_from_text
from ixdcl.oracle import (OracleBudget, Term, dcl_member_oracle,
                          derive_successors, is_subword, start_form, subwords,
                          term_language_dp)
from derivation_reference import (enumerate_words, round_dcl_member_oracle,
                                  round_term_language_dp, term_reachable,
                                  term_routes)
from test_acceptance import words_upto
from test_grammar import small_grammars


def test_is_subword_basic():
    assert is_subword("", "abc")
    assert is_subword("ac", "abc")
    assert is_subword("abc", "abc")
    assert not is_subword("ca", "abc")
    assert not is_subword("aa", "ab")


def test_subwords_abc():
    assert subwords("ab") == {"", "a", "b", "ab"}
    assert len(subwords("abc")) == 8


@given(st.text("ab", max_size=6), st.text("ab", max_size=4))
def test_subwords_agree_with_is_subword(w, u):
    sw = subwords(w)
    for x in sw:
        assert is_subword(x, w)
    assert (u in sw) == is_subword(u, w)


@given(st.text("ab", max_size=5), st.text("ab", max_size=5),
       st.text("ab", max_size=5))
def test_subword_order_laws(u, v, w):
    assert is_subword(u, u)
    if is_subword(u, v) and is_subword(v, w):
        assert is_subword(u, w)
    if is_subword(u, v) and is_subword(v, u):
        assert u == v


def test_enumerate_g1():
    g = g1_grammar()
    res = enumerate_words(g, OracleBudget(8, 4, 10000))
    assert res.words == {"ab"}
    assert res.complete
    # the witness is a genuine step-by-step derivation
    trace = res.witnesses["ab"]
    assert trace[0] == start_form(g)
    assert trace[-1] == ("a", "b")
    for a, b in zip(trace, trace[1:]):
        assert b in derive_successors(a, g)


def test_enumerate_loop_and_square():
    res = enumerate_words(g_loop_grammar(), OracleBudget(4, 6, 20000))
    assert res.words == {"a"}
    res = enumerate_words(square_grammar(), OracleBudget(6, 3, 500000))
    # L = { a^n b^(n^2) }: nothing else fits in 6 letters
    assert res.words == {"", "ab", "aabbbb"}
    # taller stacks were pruned without an emptiness certificate
    assert not res.complete


def test_enumeration_incomplete_without_emptiness():
    # height 0 prunes the very first push, and nothing certifies it empty
    res = enumerate_words(g1_grammar(), OracleBudget(8, 0, 10000))
    assert res.words == set()
    assert not res.complete


def test_enumeration_complete_with_emptiness_certificate():
    # the pruned square pushes above height 5 are genuinely nonempty, so
    # completeness must not be restored spuriously
    g = square_grammar()
    an = Analysis(g)
    res = enumerate_words(g, OracleBudget(6, 2, 200000),
                          emptiness=an.term_empty)
    assert not res.complete


def test_dp_matches_enumeration():
    for g in (g1_grammar(), g_loop_grammar()):
        an = Analysis(g)
        budget = OracleBudget(6, 6, 200000)
        enum = enumerate_words(g, budget)
        dp = term_language_dp(g, budget, emptiness=an.term_empty)
        assert dp.table[(g.start, ())] == frozenset(enum.words)


@settings(deadline=None)
@given(small_grammars())
def test_dp_matches_enumeration_on_generated_grammars(g):
    # the breadth-first search shares no code with the fixpoint solver,
    # and without an emptiness certificate not even the analysis: every
    # word it finds is in the DP's table, and when neither prunes
    # lossily, nor runs out of steps, the two languages are equal
    budget = OracleBudget(4, 3, 100)
    enum = enumerate_words(g, budget)
    dp = term_language_dp(g, budget)
    words = dp.table[(g.start, ())]
    assert enum.words <= words
    if enum.complete and dp.complete:
        assert enum.words == words


def assert_same_as_rounds(g, budget, words):
    """The oracle on the worklist solver gives the round-based
    reference's tables, flags, incomplete keys and closure answers, with
    and without an emptiness certificate, for words and for lengths."""
    for emptiness in (None, Analysis(g).term_empty):
        for lengths in (False, True):
            got = term_language_dp(g, budget, emptiness=emptiness,
                                   lengths=lengths)
            assert got == round_term_language_dp(g, budget, emptiness,
                                                 lengths), lengths
        for w in words:
            assert (dcl_member_oracle(g, w, budget, emptiness) ==
                    round_dcl_member_oracle(g, w, budget, emptiness)), w


def test_oracle_matches_round_reference_on_fixtures():
    for g, budget in [(g1_grammar(), OracleBudget(8, 4)),
                      (g_loop_grammar(), OracleBudget(8, 6)),
                      (square_grammar(), OracleBudget(8, 4)),
                      (grammar_gn(1), OracleBudget(20, 3))]:
        assert_same_as_rounds(g, budget, words_upto(g.symbols.terminals, 4))


@settings(deadline=None)
@given(small_grammars())
def test_oracle_matches_round_reference_on_generated_grammars(g):
    assert_same_as_rounds(g, OracleBudget(4, 3), words_upto("ab", 3))


def test_dp_square_exact():
    g = square_grammar()
    an = Analysis(g)
    dp = term_language_dp(g, OracleBudget(6, 6, 200000),
                          emptiness=an.term_empty)
    # taller stacks were pruned (lossily, since they generate longer
    # words), but every word short enough for the budget is found
    assert dp.table[(g.start, ())] == frozenset({"", "ab", "aabbbb"})


def test_dp_lengths_mode():
    g = square_grammar()
    an = Analysis(g)
    dp = term_language_dp(g, OracleBudget(16, 8, 500000),
                          emptiness=an.term_empty, lengths=True)
    assert dp.table[(g.start, ())] == frozenset({0, 2, 6, 12})


def test_dp_incomplete_keys_propagate():
    g = square_grammar()
    dp = term_language_dp(g, OracleBudget(6, 1, 200000))
    assert not dp.complete
    assert (g.start, ()) in dp.incomplete_keys


def test_dcl_member_oracle_g1():
    g = g1_grammar()
    an = Analysis(g)
    b = OracleBudget(16, 4, 100000)
    for w, expect in [("", True), ("a", True), ("b", True), ("ab", True),
                      ("ba", False), ("aa", False), ("abb", False)]:
        member, complete = dcl_member_oracle(g, w, b, emptiness=an.term_empty)
        assert complete
        assert member == expect


def test_dcl_member_oracle_square():
    g = square_grammar()
    an = Analysis(g)
    b = OracleBudget(64, 9, 500000)
    assert dcl_member_oracle(g, "aabb", b, emptiness=an.term_empty)[0]
    assert dcl_member_oracle(g, "ba", b, emptiness=an.term_empty)[0] is False


def test_dcl_member_oracle_matches_word_dp():
    # every word of length <= 4: a word under some word of the word DP's
    # table is in the closure, so a negative answer, complete or not,
    # has no word of the table above it; g1 ({ab}) and G_1 ({a^16}) are
    # finite languages inside the budget, so there the answers are exact
    budget = OracleBudget(16, 4)
    for name, g, exact in [("g1", g1_grammar(), True),
                           ("loop", g_loop_grammar(), False),
                           ("square", square_grammar(), False),
                           ("G_1", grammar_gn(1), True)]:
        an = Analysis(g)
        table = term_language_dp(g, budget, emptiness=an.term_empty).table
        words = table[(g.start, ())]
        letters = sorted(g.symbols.terminals)
        for w in map("".join, itertools.chain.from_iterable(
                itertools.product(letters, repeat=n) for n in range(5))):
            member, complete = dcl_member_oracle(g, w, budget,
                                                 emptiness=an.term_empty)
            above = any(is_subword(w, v) for v in words)
            if above:
                assert member, (name, w)
            if exact:
                assert complete and member == above, (name, w)


def test_term_reachable():
    g = g1_grammar()
    assert term_reachable(g, Term("S", ()), Term("A", ("f",)), 3)
    assert term_reachable(g, Term("S", ()), Term("B", ()), 3)
    assert not term_reachable(g, Term("B", ()), Term("S", ()), 3)


def test_term_routes_requires_reducible_context():
    # S -> L R; L -> "a"; R pushes forever: the lineage may enter L only
    # because R is... not reducible, so routing to L must fail
    g = grammar_from_text(
        "start S\nterminals a\nstack f\n"
        "S -> L R\nL -> \"a\"\nR -> R + f\nR - f -> R\n")
    assert not term_routes(g, frozenset(), Term("S", ()), Term("L", ()), 4)
    # with R allowed as surviving context the route exists
    assert term_routes(g, frozenset({"R"}), Term("S", ()), Term("L", ()), 4)
