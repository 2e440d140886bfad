"""NFA algebra, ideal arithmetic, and the downward-closure construction."""

import hashlib
import itertools
import json
import random

import pytest

from hypothesis import given, strategies as st

from ixdcl.analysis import CapExceeded
from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.grammar import grammar_from_text
from ixdcl.nfa import (CLOSURE_STATE_CAP, INFINITE, Nfa, _antichain,
                       _ideal_le, _join, _norm_ideal, _word_ideal,
                       cfg_dcl_nfa, dcl_close, determinize,
                       longest_word_or_infinite, nfa_equivalence,
                       nfa_inclusion, nfa_member)
from ixdcl.oracle import is_subword, subwords
from ixdcl.pipeline import run_pipeline
import ideal_reference as ref
from cfg_reference import cfg_dcl_bounded, numbered_cfg, trim
from nfa_reference import (add_state, longest_path, simulate,
                           word_subword_nfa)
from test_summaries import RANDOM_361_TEXT


def astar_bstar_nfa():
    n = Nfa(frozenset("ab"))
    p, q = add_state(n), add_state(n)
    n.initial, n.final = {p}, {q}
    n.add_edge(p, "a", p)
    n.add_edge(p, None, q)
    n.add_edge(q, "b", q)
    return n


def words_upto(alphabet, k):
    return {"".join(t) for n in range(k + 1)
            for t in itertools.product(alphabet, repeat=n)}


def test_nfa_member():
    n = astar_bstar_nfa()
    assert simulate(n, "")
    assert simulate(n, "aabbb")
    assert not simulate(n, "ba")


def test_word_subword_nfa():
    n = word_subword_nfa("abc")
    got = {w for w in words_upto("abc", 4) if simulate(n, w)}
    assert got == subwords("abc")


def test_dcl_close():
    n = Nfa(frozenset("ab"))
    p, q, r = (add_state(n) for _ in range(3))
    n.initial, n.final = {p}, {r}
    n.add_edge(p, "a", q)
    n.add_edge(q, "b", r)
    closed = dcl_close(n)
    assert {w for w in words_upto("ab", 3) if simulate(closed, w)} == \
        subwords("ab")


def test_determinize():
    d = determinize(astar_bstar_nfa())
    # a*b*: the subsets {p, q} and {q}, plus the empty sink
    assert d.n_states == 3
    for w in words_upto("ab", 5):
        q = d.initial
        for c in w:
            q = d.delta[(q, c)]
        assert (q in d.final) == simulate(astar_bstar_nfa(), w)


def test_determinize_cap_counts_the_start_subset():
    # the start subset {p, q} alone passes a cap of 1
    with pytest.raises(CapExceeded) as exc:
        determinize(astar_bstar_nfa(), cap=1)
    assert str(exc.value) == ("determinization cap exceeded: 2 states in "
                              "subsets, limit 1 (--max-dfa-states)")


def test_inclusion_and_equivalence():
    ab = astar_bstar_nfa()
    sub = word_subword_nfa("ab", alphabet="ab")
    ok, cex = nfa_inclusion(sub, ab)
    assert ok and cex is None
    ok, cex = nfa_inclusion(ab, sub)
    assert not ok
    assert cex in ("aa", "bb")   # a shortest violation
    eq, cex = nfa_equivalence(ab, ab)
    assert eq and cex is None
    eq, cex = nfa_equivalence(ab, sub)
    assert not eq and len(cex) == 2


def random_nfa(rng, letters="abc"):
    n = Nfa(frozenset(letters))
    states = [add_state(n) for _ in range(rng.randint(1, 4))]
    n.initial = {rng.choice(states)}
    n.final = {q for q in states if rng.random() < 0.4}
    for _ in range(rng.randint(0, 7)):
        a = rng.choice([None, *letters])
        n.add_edge(rng.choice(states), a, rng.choice(states))
    return n


def test_counterexamples_are_shortlex_least():
    # the witness is the shortest word, then the alphabetically least,
    # in the difference of the two languages
    rng = random.Random(5)
    words = sorted(words_upto("abc", 4), key=lambda w: (len(w), w))
    for _ in range(300):
        n1, n2 = random_nfa(rng), random_nfa(rng)
        in1 = {w for w in words if simulate(n1, w)}
        in2 = {w for w in words if simulate(n2, w)}
        for (ok, cex), diff in ((nfa_inclusion(n1, n2), in1 - in2),
                                (nfa_equivalence(n1, n2), in1 ^ in2)):
            assert ok == (cex is None)
            first = next((w for w in words if w in diff), None)
            if first is not None or cex is not None and len(cex) <= 4:
                assert cex == first


def test_longest_word_finite_infinite_empty():
    assert longest_path(word_subword_nfa("abcd")) == 4
    assert longest_path(astar_bstar_nfa()) == INFINITE
    empty = Nfa(frozenset("a"))
    empty.initial = {add_state(empty)}
    assert longest_path(empty) is None
    # epsilon-only cycles do not pump length
    n = Nfa(frozenset("a"))
    p, q, r = (add_state(n) for _ in range(3))
    n.initial, n.final = {p}, {r}
    n.add_edge(p, None, q)
    n.add_edge(q, None, p)
    n.add_edge(q, "a", r)
    assert longest_path(n) == 1


def test_longest_word_of_a_long_chain():
    # 20000 states in a row: no recursion on the length of the chain
    assert longest_path(word_subword_nfa("a" * 20000)) == 20000


# -- ideal arithmetic -------------------------------------------------------


A1, B1, C1 = ("l", "a", 1), ("l", "b", 1), ("l", "c", 1)


def test_norm_ideal_absorption():
    s = ("s", frozenset("ab"))
    assert _norm_ideal((A1, s)) == (s,)
    assert _norm_ideal((s, A1)) == (s,)
    assert _norm_ideal((s, ("s", frozenset("a")))) == (s,)
    assert _norm_ideal((("s", frozenset()),)) == ()
    assert _norm_ideal((C1, s)) == (C1, s)
    # runs of one letter merge by adding their counts: a^2 a^3 = a^5
    assert _norm_ideal((("l", "a", 2), ("l", "a", 3))) == (("l", "a", 5),)
    assert _join((("l", "a", 2),), (("l", "a", 3),)) == (("l", "a", 5),)
    # a star block absorbs a whole run of a letter it contains
    big = ("l", "a", 2 ** 256)
    assert _norm_ideal((big, ("s", frozenset("a")))) == \
        (("s", frozenset("a")),)


def test_ideal_le_examples():
    s_ab = ("s", frozenset("ab"))
    assert _ideal_le((A1,), (s_ab,))
    assert _ideal_le((A1, B1), (s_ab,))
    assert not _ideal_le((s_ab,), (A1, B1))
    assert _ideal_le((("s", frozenset("a")),), (s_ab,))
    assert not _ideal_le((B1, A1), (A1, B1))
    # a count carries across a run of another letter: a^3 <= a^2 b a
    a2ba = (("l", "a", 2), B1, A1)
    assert _ideal_le((("l", "a", 3),), a2ba)
    assert not _ideal_le((("l", "a", 4),), a2ba)
    assert not _ideal_le((("l", "a", 3),), (A1, B1, A1))
    # a^k under {a}*, for any k
    assert _ideal_le((("l", "a", 2 ** 256),), (("s", frozenset("a")),))


@given(st.text("ab", max_size=5), st.text("ab", max_size=5))
def test_word_ideal_le_is_subword_order(u, v):
    assert _ideal_le(_word_ideal(u), _word_ideal(v)) == is_subword(u, v)


# raw counted atoms over {a, b}; `normal` normalizes them by the reference
raw_atoms = st.lists(st.one_of(
    st.tuples(st.just("l"), st.sampled_from("ab"), st.integers(1, 4)),
    st.tuples(st.just("s"), st.sampled_from(
        [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]))),
    max_size=6).map(tuple)
normal = raw_atoms.map(lambda atoms: ref.fold(ref.norm_ideal(
    ref.unfold(atoms))))


@given(raw_atoms)
def test_norm_ideal_matches_reference(atoms):
    assert _norm_ideal(atoms) == ref.fold(ref.norm_ideal(ref.unfold(atoms)))


@given(normal, normal)
def test_join_is_full_normalization(x, y):
    assert _join(x, y) == _norm_ideal(x + y) == \
        ref.fold(ref.norm_ideal(ref.unfold(x) + ref.unfold(y)))


@given(st.lists(normal, max_size=8))
def test_counted_order_matches_reference(ideals):
    for x, y in itertools.product(ideals, repeat=2):
        le = _ideal_le(x, y)
        assert le == ref.ideal_le(ref.unfold(x), ref.unfold(y))
        # normal ideals are canonical
        if le and _ideal_le(y, x):
            assert x == y


def test_normal_ideals_are_canonical():
    # every normal ideal from up to four atoms over {a, b}, counts 1-2
    atoms = [("l", c, k) for c in "ab" for k in (1, 2)] + \
        [("s", frozenset(b)) for b in ("a", "b", "ab")]
    ideals = {_norm_ideal(seq) for n in range(5)
              for seq in itertools.product(atoms, repeat=n)}
    assert len(ideals) == 418
    for x, y in itertools.permutations(ideals, 2):
        assert not (_ideal_le(x, y) and _ideal_le(y, x)), (x, y)


@given(normal, st.text("ab", max_size=8))
def test_accepts_matches_reference(ideal, word):
    # membership folds the comparison's one-letter step over each prefix
    single = Nfa(frozenset(word), ideals=frozenset([ideal]))
    for i in range(len(word) + 1):
        letters = tuple(("l", c) for c in word[:i])
        assert nfa_member(single, word[:i]) == \
            ref.ideal_le(letters, ref.unfold(ideal))


def test_antichain_drops_dominated():
    s_ab = (("s", frozenset("ab")),)
    assert _antichain([s_ab, _word_ideal("ab"), _word_ideal("a")]) == \
        frozenset([s_ab])


# -- the closure construction ----------------------------------------------


def nfa_language_upto(nfa, alphabet, k):
    return {w for w in words_upto(alphabet, k) if nfa_member(nfa, w)}


def test_dcl_nfa_anbn():
    # S -> a S b | eps: the closure is a* b*
    cfg = numbered_cfg(["S", "T", "A", "B"], "ab",
                       [("S", (), ""),
                        ("S", ("A", "T")),
                        ("T", ("S", "B")),
                        ("A", (), "a"),
                        ("B", (), "b")])
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_equivalence(nfa, astar_bstar_nfa())[0]


def test_dcl_nfa_expansive():
    # S -> S S | a: the closure is a*
    cfg = numbered_cfg(["S"], "a", [("S", ("S", "S")), ("S", (), "a")])
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_language_upto(nfa, "a", 5) == {"a" * i for i in range(6)}


def test_dcl_nfa_finite():
    cfg = numbered_cfg(["S"], "abc", [("S", (), "abc")])
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_language_upto(nfa, "abc", 4) == subwords("abc")


def test_dcl_nfa_linear_component():
    # S -> a S | S b | c: the closure is a* (c + eps) b*
    cfg = numbered_cfg(["S", "A", "B"], "abc",
                       [("S", ("A", "S")),
                        ("S", ("S", "B")),
                        ("S", (), "c"),
                        ("A", (), "a"),
                        ("B", (), "b")])
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_language_upto(nfa, "abc", 4) == \
        cfg_dcl_bounded(cfg, 4)


def test_dcl_nfa_memo_keys_every_operand():
    # A -> a A | e, B -> a B | B b | e and C -> C b | e share their exit
    # e; A and B share U* = a*, B and C share V* = b*; X -> A A and
    # Y -> A W share their left operand.  A value memo that forgets U*,
    # V* or a right operand finds a wrong value.
    cfg = numbered_cfg(["S", "X", "Y", "W", "A", "B", "C", "a", "b", "e"],
                       "abe",
                       [("S", ("X", "Y")), ("X", ("A", "A")),
                        ("Y", ("A", "W")), ("W", ("B", "C")),
                        ("A", ("a", "A")), ("A", (), "e"),
                        ("B", ("a", "B")), ("B", ("B", "b")), ("B", (), "e"),
                        ("C", ("C", "b")), ("C", (), "e"),
                        ("a", (), "a"), ("b", (), "b"), ("e", (), "e")])
    a, b, e = ("s", frozenset("a")), ("s", frozenset("b")), ("l", "e", 1)
    # S is A A A B C = (a* e)^4 b* e b*
    assert cfg_dcl_nfa(cfg).ideals == {(a, e, a, e, a, e, a, e, b, e, b)}


# the cover of an empty language: its start triple, without a rule
EMPTY_CFG = numbered_cfg(["S"], "a", [])


def test_dcl_nfa_empty_language():
    nfa = cfg_dcl_nfa(EMPTY_CFG)
    assert nfa.ideals == frozenset()
    assert not nfa_member(nfa, "")
    assert longest_word_or_infinite(nfa) is None


def test_dcl_nfa_cap_bounds_linear_components(monkeypatch):
    # S -> a S | c | d | e: the closure a*(c + d + e) needs three ideals
    cfg = numbered_cfg(["S", "A"], "acde",
                       [("S", ("A", "S")), ("A", (), "a"),
                        ("S", (), "c"), ("S", (), "d"), ("S", (), "e")])
    # S -> c | d | e lies on no cycle and takes the same rule, U and V empty
    acyclic = numbered_cfg(["S"], "cde",
                           [("S", (), "c"), ("S", (), "d"), ("S", (), "e")])
    # S -> A B is S's one rule: (c + d)(a + e) needs four ideals
    pair = numbered_cfg(["S", "A", "B"], "acde",
                        [("S", ("A", "B")), ("A", (), "c"), ("A", (), "d"),
                         ("B", (), "a"), ("B", (), "e")])
    for c, n in ((cfg, 3), (acyclic, 3), (pair, 4)):
        monkeypatch.setattr("ixdcl.nfa.CLOSURE_IDEAL_CAP", n)
        assert len(cfg_dcl_nfa(c).ideals) == n
        monkeypatch.setattr("ixdcl.nfa.CLOSURE_IDEAL_CAP", n - 1)
        with pytest.raises(CapExceeded, match=rf"closure expression cap "
                           rf"exceeded: {n} ideals, limit {n - 1} "
                           r"\(CLOSURE_IDEAL_CAP\)"):
            cfg_dcl_nfa(c)


def doubling_cfg(k):
    # S_i -> S_{i-1} S_{i-1}, S_0 -> a: the single word a^(2^k)
    rules = [("S0", (), "a")] + [
        (f"S{i}", (f"S{i - 1}", f"S{i - 1}")) for i in range(1, k + 1)]
    return numbered_cfg([f"S{i}" for i in range(k, -1, -1)], "a", rules)


def test_dcl_nfa_counts_runs():
    nfa = cfg_dcl_nfa(doubling_cfg(4))
    assert nfa.ideals == frozenset([(("l", "a", 16),)])
    assert nfa.n_states == 18
    assert longest_word_or_infinite(nfa) == 16


def test_dcl_nfa_state_cap():
    # the closure is built and answers from its ideals; only reading its
    # export passes the state cap
    k = (CLOSURE_STATE_CAP - 2).bit_length()
    assert 2 + 2 ** k > CLOSURE_STATE_CAP
    for n in (k, 256):
        nfa = cfg_dcl_nfa(doubling_cfg(n))
        assert nfa.n_states == 2 + 2 ** n
        assert longest_word_or_infinite(nfa) == 2 ** n
        for read in (nfa.to_dict, lambda: next(iter(nfa.transitions)),
                     lambda: len(nfa.transitions)):
            with pytest.raises(CapExceeded, match="closure NFA state cap"):
                read()


def test_g2_pipeline_builds_no_edges(monkeypatch):
    def unfold(ideals):
        raise AssertionError("the closure's edges were built")

    monkeypatch.setattr("ixdcl.nfa._unfold", unfold)
    result = run_pipeline(grammar_gn(2))
    nfa, stats = result.nfa, result.stats
    assert stats["nfa_states"] == nfa.n_states == 65538
    assert stats["nfa_transitions"] == len(nfa.transitions) == 131073
    assert stats["longest_word"] == longest_word_or_infinite(nfa) == 65536
    assert nfa_member(nfa, "a" * 4)
    assert nfa_equivalence(nfa, nfa) == (True, None)
    # a failing comparison steps through the ideals too
    g1 = run_pipeline(grammar_gn(1)).nfa
    assert nfa_inclusion(nfa, g1) == (False, "a" * 17)


def test_doubling_comparison_steps_through_the_ideals():
    # a^1024 against a^512: the search visits one product state per
    # prefix of the witness, and cap bounds those states
    big, small = (cfg_dcl_nfa(doubling_cfg(k)) for k in (10, 9))
    assert nfa_inclusion(big, small) == (False, "a" * 513)
    assert nfa_equivalence(big, small) == (False, "a" * 513)
    big, small = (cfg_dcl_nfa(doubling_cfg(k)) for k in (256, 255))
    assert nfa_inclusion(small, big) == (True, None)
    with pytest.raises(CapExceeded, match="comparison cap"):
        nfa_inclusion(big, small, cap=1000)


def random_cfg(rng):
    """A random CFG, not trimmed: `cfg_dcl_nfa` reads `trim` of it."""
    n = rng.randint(1, 4)
    nts = [f"N{i}" for i in range(n)]
    rules = []
    for _ in range(rng.randint(1, 8)):
        lhs = rng.choice(nts)
        k = rng.random()
        if k < 0.4:
            w = "".join(rng.choice("ab")
                        for _ in range(rng.randint(0, 3)))
            rules.append((lhs, (), w))
        elif k < 0.8:
            rules.append((lhs, (rng.choice(nts), rng.choice(nts))))
        else:
            rules.append((lhs, (rng.choice(nts),)))
    return numbered_cfg(nts, "ab", rules)


def test_dcl_nfa_random_cfgs_match_exact_closure():
    rng = random.Random(1)
    allw = words_upto("ab", 8)
    for _ in range(150):   # about 2 s
        cfg = trim(random_cfg(rng))
        nfa = cfg_dcl_nfa(cfg)
        expect = cfg_dcl_bounded(cfg, 8)
        got = {w for w in allw if nfa_member(nfa, w)}
        assert got == expect


def test_ideal_comparison_matches_dfa_search():
    # with ideals on both sides a holding inclusion or equivalence is
    # answered from them, a failing one steps through them; verdict and
    # witness are those of the DFA search, also against a plain copy
    rng = random.Random(5)
    held = [0, 0]
    for _ in range(200):
        a, b = (cfg_dcl_nfa(trim(random_cfg(rng))) for _ in range(2))
        plain = [Nfa(n.alphabet, n.n_states, n.transitions, n.initial,
                     n.final) for n in (a, b)]
        for i, compare in enumerate((nfa_inclusion, nfa_equivalence)):
            got = compare(a, b)
            assert got == compare(*plain), (a.ideals, b.ideals)
            assert got == compare(a, plain[1]) == compare(plain[0], b), \
                (a.ideals, b.ideals)
            held[i] += got[0] and a.ideals != frozenset()
    assert held[0] > held[1] > 0


def test_dcl_nfa_is_deterministic(fixtures):
    for st_ in fixtures.values():
        a = cfg_dcl_nfa(st_.cfg).to_dict()
        b = cfg_dcl_nfa(st_.cfg).to_dict()
        assert a == b


def test_fixture_nfa_longest(fixtures):
    assert longest_word_or_infinite(fixtures["g1"].nfa) == 2
    assert longest_word_or_infinite(fixtures["loop"].nfa) == 1
    assert longest_word_or_infinite(fixtures["square"].nfa) == INFINITE


def test_square_nfa_is_astar_bstar(square):
    assert nfa_equivalence(square.nfa, astar_bstar_nfa())[0]


def test_ideal_queries_match_simulation(fixtures, gn_nfas):
    # the same NFA's edges are simulated state by state
    rng = random.Random(3)
    nfas = ([st_.nfa for st_ in fixtures.values()] + list(gn_nfas.values())
            + [cfg_dcl_nfa(EMPTY_CFG)]
            + [cfg_dcl_nfa(trim(random_cfg(rng))) for _ in range(200)])
    for nfa in nfas:
        assert nfa.ideals is not None
        assert longest_word_or_infinite(nfa) == longest_path(nfa)
        for w in words_upto(sorted(nfa.alphabet), 4):
            assert nfa_member(nfa, w) == simulate(nfa, w), (nfa, w)


def test_g2_closure_is_the_subwords_of_a_65536(gn_nfas):
    nfa = gn_nfas[2]
    assert nfa_member(nfa, "a" * 65536)
    assert not nfa_member(nfa, "a" * 65537)
    assert longest_word_or_infinite(nfa) == 65536
    assert "ideals" not in nfa.to_dict()


# (states, transitions, longest word, sha256 prefix of the to_dict JSON)
CLOSURE_GOLDENS = {
    "g1": (4, 5, 2, "7e229ec5cd4c78ea"),
    "loop": (3, 3, 1, "2d6f0ab0c99a644b"),
    "square": (4, 5, INFINITE, "1b3c58aba4a53955"),
    "G_1": (18, 33, 16, "e581654addaa4a3c"),
    "G_2": (65538, 131073, 65536, "c14597fb36b23ce7"),
    "random": (4, 5, 2, "7f323025ac04824a"),
}


def closure_fingerprint(nfa):
    digest = hashlib.sha256(
        json.dumps(nfa.to_dict(), sort_keys=True).encode()).hexdigest()
    return (nfa.n_states, len(nfa.transitions),
            longest_word_or_infinite(nfa), digest[:16])


def test_closure_nfa_goldens(gn_nfas):
    nfas = {name: run_pipeline(g).nfa for name, g in (
        ("g1", g1_grammar()), ("loop", g_loop_grammar()),
        ("square", square_grammar()),
        ("random", grammar_from_text(RANDOM_361_TEXT)))}
    nfas["G_1"], nfas["G_2"] = gn_nfas[1], gn_nfas[2]
    assert {name: closure_fingerprint(nfa)
            for name, nfa in nfas.items()} == CLOSURE_GOLDENS
