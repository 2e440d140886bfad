"""Productiveness analysis: actions, closures, universe, matrices, reach."""

import hashlib
import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

from ixdcl.analysis import Analysis, CapExceeded
from ixdcl.grammar import grammar_from_text
from ixdcl.pipeline import PipelineCaps, run_pipeline
from analysis_reference import FocKeyedAnalysis, PerSetAnalysis
from corpus import EMPTY_TEXT, chain_text, grammar
from generated_grammars import grammar_texts
from summary_helpers import canonical, matrix, reach

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
    grammars = {name: grammar(name) for name in (
        "g1", "loop", "square", "G_1", "G_2", "random", "G_3")}
    assert {name: analysis_fingerprint(Analysis(g))
            for name, g in grammars.items()} == ANALYSIS_GOLDENS


def test_useful_goldens(fixtures):
    assert fixtures["g1"].analysis.useful() == frozenset({"B", "S"})
    assert fixtures["loop"].analysis.useful() == frozenset({"A", "S"})
    sq = fixtures["square"].analysis.useful()
    assert "S" in sq and "A" not in sq and "B" not in sq


def test_is_empty():
    assert not Analysis(grammar("g1")).is_empty()
    g = grammar_from_text(EMPTY_TEXT)
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


@pytest.fixture(scope="module")
def analyses(fixtures):
    """The fixtures' analyses and those of G_1, G_2 and the random
    grammar."""
    return [st_.analysis for st_ in fixtures.values()] + [
        Analysis(grammar(name)) for name in ("G_1", "G_2", "random")]


def test_universe_closed_under_actions(analyses):
    # the monoid's elements carry only universe sets, the sets at which
    # reach_rows reads ~X~ off the same-level focus
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
            # closed: reach_rows reads ~X~ off efoc(X) for this reason
            assert an.cl(X) == X


@given(st.sets(st.sampled_from(sorted(
    grammar("square").symbols.nonterminals)), max_size=6),
    st.sets(st.sampled_from(sorted(
        grammar("square").symbols.nonterminals)), max_size=6))
def test_act_monotone(x, y):
    an = test_act_monotone.an
    for f in sorted(an.g.symbols.stack_symbols):
        small = an.act(f, frozenset(x) & frozenset(y))
        assert small <= an.act(f, frozenset(x))
        assert small <= an.act(f, frozenset(y))


test_act_monotone.an = Analysis(grammar("square"))


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


def test_reach_reflexive_and_transitive(analyses):
    for an in analyses:
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
        Analysis(grammar("square"), universe_cap=1).universe()


@pytest.mark.parametrize("n, keys", [(2, 34), (3, 102)])
def test_cl_keys_counted_and_capped(n, keys):
    # an action is the cl key of pre_f(cl(X)), so the actions are
    # among these keys
    assert run_pipeline(grammar(f"G_{n}")).stats["cl_keys"] == keys
    # every cl key counts against max_universe, the last one included
    caps = PipelineCaps(max_universe=keys - 1)
    with pytest.raises(CapExceeded, match=f"exceeded: {keys} cl keys, "
                       fr"limit {keys - 1} \(--max-universe\)"):
        run_pipeline(grammar(f"G_{n}"), caps)


def assert_key_cap_bounds_universe(g):
    """Each universe set is the value of a cl key made before the set is
    found, so the universe has at most as many sets as there are cl keys,
    and the key cap fires first; the solver holds no act key."""
    an = Analysis(g, universe_cap=512)
    n_sets = len(an.universe())
    keys = an.keys("cl")
    assert n_sets <= keys == an.cl_keys
    for x in [an.mask(X) for X in an.universe()]:
        an.reach_rows(x)
    assert {key[0] for key in an._val} <= {"cl", "efoc"}
    with pytest.raises(CapExceeded) as exc:
        Analysis(g, universe_cap=keys - 1).universe()
    assert str(exc.value) == (f"action table cap exceeded: {keys} cl keys, "
                              f"limit {keys - 1} (--max-universe)")


@pytest.mark.parametrize("name", ["g1", "loop", "square"])
def test_key_cap_bounds_universe_on_fixtures(fixtures, name):
    assert_key_cap_bounds_universe(fixtures[name].grammar)


@pytest.mark.parametrize("name", ["parity", "same_level"])
def test_key_cap_bounds_universe_on_witnesses(name):
    assert_key_cap_bounds_universe(grammar(name))


@settings(max_examples=200, deadline=None)
@given(grammar_texts())
def test_key_cap_bounds_universe_on_generated_grammars(text):
    try:
        assert_key_cap_bounds_universe(grammar_from_text(text))
    except CapExceeded:
        event("cap exit")


def assert_actions_match_per_set_keys(g):
    """act_mask and cl agree with `PerSetAnalysis` on every universe set
    and every set the reference keyed an action at, most of them
    snapshots that are not closed, for every stack symbol."""
    an, ref = Analysis(g, universe_cap=512), PerSetAnalysis(g, 512)
    assert an.universe() == ref.universe()
    letters = sorted(g.symbols.stack_symbols, key=str)
    for x in {an.mask(X) for X in an.universe()} | ref.keyed_sets():
        X = an._set(x)
        assert an.cl(X) == ref.cl(X), X
        for f in letters:
            assert an.act_mask(f, x) == ref.act_mask(f, x), (f, X)


@pytest.mark.parametrize("name", ["g1", "loop", "square"])
def test_actions_match_per_set_keys_on_fixtures(fixtures, name):
    assert_actions_match_per_set_keys(fixtures[name].grammar)


@pytest.mark.parametrize("name", ["parity", "same_level"])
def test_actions_match_per_set_keys_on_witnesses(name):
    assert_actions_match_per_set_keys(grammar(name))


@settings(max_examples=200, deadline=None)
@given(grammar_texts())
def test_actions_match_per_set_keys_on_generated_grammars(text):
    try:
        assert_actions_match_per_set_keys(grammar_from_text(text))
    except CapExceeded:
        event("cap exit")


def assert_focus_matches_foc_keys(g):
    """focus_rows and reach_rows agree with `FocKeyedAnalysis` on every
    universe set and every cl value the solver keyed, an action's among
    them, for every stack symbol, and the solver holds no foc key."""
    an, ref = Analysis(g, universe_cap=512), FocKeyedAnalysis(g, 512)
    assert an.universe() == ref.universe()
    letters = sorted(g.symbols.stack_symbols, key=str)
    for x in [an.mask(X) for X in an.universe()]:
        for f in letters:   # the keys the monoid's letters solve
            an.focus_rows(f, x)
    acts = {v for key, v in an._val.items() if key[0] == "cl"}
    for x in {an.mask(X) for X in an.universe()} | acts:
        assert an.reach_rows(x) == ref.reach_rows(x), an._set(x)
        for f in letters:
            assert an.focus_rows(f, x) == ref.focus_rows(f, x), \
                (f, an._set(x))
    # two kinds of key: an action is a cl key, and a focus matrix has
    # no key of its own
    assert {key[0] for key in an._val} <= {"cl", "efoc"}


@pytest.mark.parametrize("name", ["g1", "loop", "square"])
def test_focus_matches_foc_keys_on_fixtures(fixtures, name):
    assert_focus_matches_foc_keys(fixtures[name].grammar)


@pytest.mark.parametrize("n", [1, 2])
def test_focus_matches_foc_keys_on_gn(n):
    assert_focus_matches_foc_keys(grammar(f"G_{n}"))


@pytest.mark.parametrize("name", ["parity", "same_level"])
def test_focus_matches_foc_keys_on_witnesses(name):
    assert_focus_matches_foc_keys(grammar(name))


@settings(max_examples=200, deadline=None)
@given(grammar_texts())
def test_focus_matches_foc_keys_on_generated_grammars(text):
    try:
        assert_focus_matches_foc_keys(grammar_from_text(text))
    except CapExceeded:
        event("cap exit")


@pytest.mark.parametrize("kids_first", [False, True])
def test_deep_chain_in_either_rule_order(kids_first):
    # listed parent first, a sweep over the binary rules in the order
    # given adds one nonterminal, so k sweeps of k-bit masks
    k = 4000
    result = run_pipeline(grammar_from_text(chain_text(k, kids_first)))
    assert len(result.analysis.useful()) == k + 1
    assert result.nfa.ideals == {(("l", "a", 2 ** k),)}
