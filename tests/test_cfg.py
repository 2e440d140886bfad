"""The context-free cover over (annotated nonterminal, summary) triples."""

import random

import pytest

from ixdcl.analysis import CapExceeded
from ixdcl.cfg import Cfg, CfgRule, build_cfg, trim_cfg
from ixdcl.oracle import OracleBudget, subwords, term_language_dp
from cfg_reference import cfg_bounded_words, cfg_dcl_bounded
from test_nfa import random_cfg


def test_cfg_goldens(fixtures):
    shapes = {"g1": (3, 3, 3, 3), "loop": (20, 50, 20, 50),
              "square": (1977, 2121, 1977, 2121)}
    for name, st_ in fixtures.items():
        assert (len(st_.cfg.nonterminals), len(st_.cfg.rules),
                len(st_.cfg_trimmed.nonterminals),
                len(st_.cfg_trimmed.rules)) == shapes[name]


def test_cfg_triple_cap(square):
    cfg = build_cfg(square.annotated, square.graph, cap=1977)
    assert len(cfg.nonterminals) == 1977
    with pytest.raises(CapExceeded, match="cfg triple cap"):
        build_cfg(square.annotated, square.graph, cap=1976)


def test_cfg_start_triple(fixtures):
    for st_ in fixtures.values():
        assert st_.cfg.start == (st_.annotated.grammar.start,
                                 st_.graph.nodes[0])


def test_cfg_rule_sanity(fixtures):
    for st_ in fixtures.values():
        nts = set(st_.cfg.nonterminals)
        for r in st_.cfg.rules:
            assert r.lhs in nts
            assert all(k in nts for k in r.kids)
            assert len(r.kids) in (0, 1, 2)
            if len(r.kids) == 2:
                # binary rules keep the summary of the parent
                assert all(k[1] is r.lhs[1] for k in r.kids)
            if r.kids:
                assert r.word == ""


def test_cfg_push_pop_follow_graph(fixtures):
    for st_ in fixtures.values():
        gr = st_.graph
        for r in st_.cfg.rules:
            if len(r.kids) == 1:
                (_, sigma), ((_, other),) = r.lhs, r.kids
                assert any(gr.push(letter, sigma) is other or
                           other in gr.pop(letter, sigma)
                           for letter in gr.letters)


def test_bounded_words_goldens(fixtures):
    assert cfg_bounded_words(fixtures["g1"].cfg_trimmed, 6) == \
        frozenset({"ab"})
    assert cfg_bounded_words(fixtures["loop"].cfg_trimmed, 6) == \
        frozenset({"a"})
    assert cfg_bounded_words(fixtures["square"].cfg_trimmed, 6) == \
        frozenset({"", "ab", "aabbbb"})


def test_cover_contains_indexed_language(fixtures):
    # every short word of the indexed grammar is a word of the cover
    for st_ in fixtures.values():
        dp = term_language_dp(st_.grammar, OracleBudget(6, 6, 500000),
                              emptiness=st_.analysis.term_empty)
        words = cfg_bounded_words(st_.cfg_trimmed, 6)
        for w in dp.table[(st_.grammar.start, ())]:
            assert w in words


def test_dcl_bounded_matches_subword_closure(fixtures):
    # for these fixtures the cover's words up to length 6 determine the
    # closure up to length 6 exactly
    expect = {
        "g1": {u for u in subwords("ab")},
        "loop": {"", "a"},
    }
    for name, want in expect.items():
        got = cfg_dcl_bounded(fixtures[name].cfg_trimmed, 6)
        assert got == frozenset(want)
    sq = cfg_dcl_bounded(fixtures["square"].cfg_trimmed, 6)
    # a^n b^(n^2): short subwords are exactly a^i b^j with j <= roughly
    # the square of the available a-budget; frozen golden
    assert len(sq) == 28
    assert {"", "a", "b", "ab", "aabbbb", "aaaaaa", "bbbbbb"} <= sq
    assert "ba" not in sq and all(not w.count("ba") for w in sq)


def test_trim_removes_dead_nonterminals():
    cfg = Cfg(["S", "Dead", "Loop", "Unreach"], frozenset("a"), "S",
              (CfgRule("S", (), "a"),
               CfgRule("S", ("S", "Dead")),      # Dead is unproductive
               CfgRule("Loop", ("Loop",)),       # Loop never terminates
               CfgRule("Unreach", (), "a")))     # productive, unreachable
    out = trim_cfg(cfg)
    assert out.nonterminals == ["S"]
    assert out.rules == (CfgRule("S", (), "a"),)


def test_trim_empty_language():
    cfg = Cfg(["S"], frozenset("a"), "S", (CfgRule("S", ("S",)),))
    out = trim_cfg(cfg)
    assert out.rules == ()
    assert cfg_bounded_words(out, 5) == frozenset()


def round_robin_trim(cfg):
    """Reference trim: the productive pass rescans every rule each round
    until nothing changes."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for r in cfg.rules:
            if r.lhs in productive:
                continue
            if all(k in productive for k in r.kids):
                productive.add(r.lhs)
                changed = True
    live_rules = [r for r in cfg.rules if r.lhs in productive and
                  all(k in productive for k in r.kids)]
    reachable = set()
    if cfg.start in productive:
        queue = [cfg.start]
        reachable.add(cfg.start)
        while queue:
            nt = queue.pop()
            for r in live_rules:
                if r.lhs != nt:
                    continue
                for k in r.kids:
                    if k not in reachable:
                        reachable.add(k)
                        queue.append(k)
    rules = tuple(r for r in live_rules if r.lhs in reachable)
    nts = [n for n in cfg.nonterminals if n in reachable]
    return Cfg(nts, cfg.terminals, cfg.start, rules)


def test_trim_matches_round_robin(fixtures):
    cfgs = [st_.cfg for st_ in fixtures.values()]
    rng = random.Random(1)
    cfgs += [random_cfg(rng) for _ in range(200)]
    for cfg in cfgs:
        assert trim_cfg(cfg) == round_robin_trim(cfg)
