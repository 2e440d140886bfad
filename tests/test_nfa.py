"""NFA algebra, ideal arithmetic, and the downward-closure construction."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from hypothesis import given, strategies as st

from ixdcl.analysis import CapExceeded
from ixdcl.cfg import Cfg, CfgBinary, CfgTerminal, CfgUnary, trim_cfg
from ixdcl.families import g1_grammar, g_loop_grammar, square_grammar
from ixdcl.grammar import grammar_from_text
from ixdcl.nfa import (CLOSURE_STATE_CAP, INFINITE, Nfa, _accepts, _antichain,
                       _ideal_key, _ideal_le, _join, _norm_ideal, _word_ideal,
                       cfg_dcl_nfa, dcl_close, determinize,
                       longest_word_or_infinite, nfa_equivalence,
                       nfa_from_dict, nfa_inclusion, nfa_member,
                       word_subword_nfa)
from ixdcl.oracle import is_subword, subwords
from ixdcl.pipeline import run_pipeline
import ideal_reference as ref
from cfg_reference import cfg_dcl_bounded
from test_summaries import RANDOM_361_TEXT


def astar_bstar_nfa():
    n = Nfa(frozenset("ab"))
    p, q = n.add_state(), n.add_state()
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
    assert nfa_member(n, "")
    assert nfa_member(n, "aabbb")
    assert not nfa_member(n, "ba")


def test_word_subword_nfa():
    n = word_subword_nfa("abc")
    got = {w for w in words_upto("abc", 4) if nfa_member(n, w)}
    assert got == subwords("abc")


def test_dcl_close():
    n = Nfa(frozenset("ab"))
    p, q, r = (n.add_state() for _ in range(3))
    n.initial, n.final = {p}, {r}
    n.add_edge(p, "a", q)
    n.add_edge(q, "b", r)
    closed = dcl_close(n)
    assert {w for w in words_upto("ab", 3) if nfa_member(closed, w)} == \
        subwords("ab")


def test_determinize():
    d = determinize(astar_bstar_nfa())
    # a*b*: the subsets {p, q} and {q}, plus the empty sink
    assert d.n_states == 3
    for w in words_upto("ab", 5):
        q = d.initial
        for c in w:
            q = d.delta[(q, c)]
        assert (q in d.final) == nfa_member(astar_bstar_nfa(), w)


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


def test_longest_word_finite_infinite_empty():
    assert longest_word_or_infinite(word_subword_nfa("abcd")) == 4
    assert longest_word_or_infinite(astar_bstar_nfa()) == INFINITE
    empty = Nfa(frozenset("a"))
    empty.initial = {empty.add_state()}
    assert longest_word_or_infinite(empty) is None
    # epsilon-only cycles do not pump length
    n = Nfa(frozenset("a"))
    p, q, r = (n.add_state() for _ in range(3))
    n.initial, n.final = {p}, {r}
    n.add_edge(p, None, q)
    n.add_edge(q, None, p)
    n.add_edge(q, "a", r)
    assert longest_word_or_infinite(n) == 1


def test_longest_word_of_a_long_chain():
    # 20000 states in a row: no recursion on the length of the chain
    assert longest_word_or_infinite(word_subword_nfa("a" * 20000)) == 20000


def test_edits_clear_the_ideals():
    n = word_subword_nfa("ab")
    n.ideals = frozenset([_word_ideal("ab")])
    n.add_edge(0, "b", 0)
    assert n.ideals is None
    assert nfa_member(n, "bbab")


def test_to_dict_round_trip():
    n = astar_bstar_nfa()
    again = nfa_from_dict(n.to_dict())
    assert nfa_equivalence(n, again)[0]
    # serialization is deterministic
    assert n.to_dict() == nfa_from_dict(n.to_dict()).to_dict()


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
        assert _ideal_le(x, y) == ref.ideal_le(ref.unfold(x), ref.unfold(y))
    assert sorted(set(ideals), key=_ideal_key) == \
        sorted(set(ideals), key=lambda i: ref.ideal_key(ref.unfold(i)))


@given(normal, st.text("ab", max_size=8))
def test_accepts_matches_reference(ideal, word):
    letters = tuple(("l", c) for c in word)
    assert _accepts(ideal, word) == ref.ideal_le(letters, ref.unfold(ideal))


def test_antichain_drops_dominated():
    s_ab = (("s", frozenset("ab")),)
    assert _antichain([s_ab, _word_ideal("ab"), _word_ideal("a")]) == \
        frozenset([s_ab])


# -- the closure construction ----------------------------------------------


def nfa_language_upto(nfa, alphabet, k):
    return {w for w in words_upto(alphabet, k) if nfa_member(nfa, w)}


def test_dcl_nfa_anbn():
    # S -> a S b | eps: the closure is a* b*
    cfg = Cfg(["S", "T", "A", "B"], frozenset("ab"), "S",
              (CfgTerminal("S", ""),
               CfgBinary("S", "A", "T"),
               CfgBinary("T", "S", "B"),
               CfgTerminal("A", "a"),
               CfgTerminal("B", "b")))
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_equivalence(nfa, astar_bstar_nfa())[0]


def test_dcl_nfa_expansive():
    # S -> S S | a: the closure is a*
    cfg = Cfg(["S"], frozenset("a"), "S",
              (CfgBinary("S", "S", "S"), CfgTerminal("S", "a")))
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_language_upto(nfa, "a", 5) == {"a" * i for i in range(6)}


def test_dcl_nfa_finite():
    cfg = Cfg(["S"], frozenset("abc"), "S", (CfgTerminal("S", "abc"),))
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_language_upto(nfa, "abc", 4) == subwords("abc")


def test_dcl_nfa_linear_component():
    # S -> a S | S b | c: the closure is a* (c + eps) b*
    cfg = Cfg(["S", "A", "B"], frozenset("abc"), "S",
              (CfgBinary("S", "A", "S"),
               CfgBinary("S", "S", "B"),
               CfgTerminal("S", "c"),
               CfgTerminal("A", "a"),
               CfgTerminal("B", "b")))
    nfa = cfg_dcl_nfa(cfg)
    assert nfa_language_upto(nfa, "abc", 4) == \
        cfg_dcl_bounded(cfg, 4)


EMPTY_CFG = Cfg(["S"], frozenset("a"), "S", (CfgUnary("S", "S", ""),))


def test_dcl_nfa_empty_language():
    nfa = cfg_dcl_nfa(EMPTY_CFG)
    assert nfa.ideals == frozenset()
    assert not nfa_member(nfa, "")
    assert longest_word_or_infinite(nfa) is None


def test_dcl_nfa_cap_bounds_linear_components():
    # S -> a S | c | d | e: the closure a*(c + d + e) needs three ideals
    cfg = Cfg(["S", "A"], frozenset("acde"), "S",
              (CfgBinary("S", "A", "S"), CfgTerminal("A", "a"),
               CfgTerminal("S", "c"), CfgTerminal("S", "d"),
               CfgTerminal("S", "e")))
    assert len(cfg_dcl_nfa(cfg, cap=3).ideals) == 3
    with pytest.raises(CapExceeded):
        cfg_dcl_nfa(cfg, cap=2)
    # S -> c | d | e lies on no cycle and takes the same rule, U and V empty
    acyclic = Cfg(["S"], frozenset("cde"), "S",
                  (CfgTerminal("S", "c"), CfgTerminal("S", "d"),
                   CfgTerminal("S", "e")))
    assert len(cfg_dcl_nfa(acyclic, cap=3).ideals) == 3
    with pytest.raises(CapExceeded):
        cfg_dcl_nfa(acyclic, cap=2)


def doubling_cfg(k):
    # S_i -> S_{i-1} S_{i-1}, S_0 -> a: the single word a^(2^k)
    rules = [CfgTerminal("S0", "a")] + [
        CfgBinary(f"S{i}", f"S{i - 1}", f"S{i - 1}") for i in range(1, k + 1)]
    return Cfg([f"S{i}" for i in range(k + 1)], frozenset("a"), f"S{k}",
               tuple(rules))


def test_dcl_nfa_counts_runs():
    nfa = cfg_dcl_nfa(doubling_cfg(4))
    assert nfa.ideals == frozenset([(("l", "a", 16),)])
    assert nfa.n_states == 18
    assert longest_word_or_infinite(nfa) == 16


def test_dcl_nfa_state_cap():
    k = (CLOSURE_STATE_CAP - 2).bit_length()
    assert 2 + 2 ** k > CLOSURE_STATE_CAP
    for n in (k, 256):
        with pytest.raises(CapExceeded, match="closure NFA state cap"):
            cfg_dcl_nfa(doubling_cfg(n))


def random_cfg(rng, max_nts=4, max_rules=8, letters="ab"):
    n = rng.randint(1, max_nts)
    nts = [f"N{i}" for i in range(n)]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        lhs = rng.choice(nts)
        k = rng.random()
        if k < 0.4:
            w = "".join(rng.choice(letters)
                        for _ in range(rng.randint(0, 3)))
            rules.append(CfgTerminal(lhs, w))
        elif k < 0.8:
            rules.append(CfgBinary(lhs, rng.choice(nts), rng.choice(nts)))
        else:
            rules.append(CfgUnary(lhs, rng.choice(nts), "push"))
    return Cfg(nts, frozenset(letters), "N0", tuple(rules))


def test_dcl_nfa_random_cfgs_match_exact_closure():
    rng = random.Random(1)
    allw = words_upto("ab", 8)
    for _ in range(150):   # about 2 s
        cfg = random_cfg(rng)
        nfa = cfg_dcl_nfa(cfg)
        expect = cfg_dcl_bounded(cfg, 8)
        got = {w for w in allw if nfa_member(nfa, w)}
        assert got == expect


def test_dcl_nfa_dead_rule_does_not_join_components():
    # N0 reaches N3 only through the dead rule N0 -> N2 N3, so b never
    # enters N0's closure, although {N0, N3} is one component of the
    # untrimmed graph
    n0, n1, n2, n3 = "N0", "N1", "N2", "N3"
    cfg = Cfg([n0, n1, n2, n3], frozenset("abc"), n0,
              (CfgTerminal(n0, ""), CfgTerminal(n0, "aca"),
               CfgBinary(n0, n0, n0), CfgBinary(n0, n2, n3),
               CfgBinary(n0, n2, n2), CfgTerminal(n3, "b"),
               CfgBinary(n3, n3, n0), CfgUnary(n2, n1),
               CfgBinary(n1, n1, n2)))
    nfa = cfg_dcl_nfa(cfg)
    assert nfa.ideals == frozenset([(("s", frozenset("ac")),)])
    assert nfa.alphabet == frozenset("abc")


def test_dcl_nfa_untrimmed_matches_trimmed():
    rng = random.Random(7)
    for _ in range(2000):
        cfg = random_cfg(rng, max_nts=6, max_rules=10, letters="abc")
        a, b = cfg_dcl_nfa(cfg), cfg_dcl_nfa(trim_cfg(cfg))
        assert a.to_dict() == b.to_dict(), cfg
        assert a.ideals == b.ideals, cfg


def test_dcl_nfa_is_deterministic(fixtures):
    for st_ in fixtures.values():
        a = cfg_dcl_nfa(st_.cfg_trimmed).to_dict()
        b = cfg_dcl_nfa(st_.cfg_trimmed).to_dict()
        assert a == b


def test_fixture_nfa_longest(fixtures):
    assert longest_word_or_infinite(fixtures["g1"].nfa) == 2
    assert longest_word_or_infinite(fixtures["loop"].nfa) == 1
    assert longest_word_or_infinite(fixtures["square"].nfa) == INFINITE


def test_square_nfa_is_astar_bstar(square):
    assert nfa_equivalence(square.nfa, astar_bstar_nfa())[0]


def test_ideal_queries_match_simulation(fixtures, gn_nfas):
    # the same NFA with its ideals dropped is simulated state by state
    rng = random.Random(3)
    nfas = ([st_.nfa for st_ in fixtures.values()] + list(gn_nfas.values())
            + [cfg_dcl_nfa(EMPTY_CFG)]
            + [cfg_dcl_nfa(random_cfg(rng)) for _ in range(200)])
    for nfa in nfas:
        assert nfa.ideals is not None
        plain = dataclasses.replace(nfa, ideals=None)
        assert longest_word_or_infinite(nfa) == \
            longest_word_or_infinite(plain)
        for w in words_upto(sorted(nfa.alphabet), 4):
            assert nfa_member(nfa, w) == nfa_member(plain, w), (nfa, w)


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
