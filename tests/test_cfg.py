"""The context-free cover over (annotated nonterminal, summary) triples."""

import random

from ixdcl.cfg import Cfg, CfgBinary, CfgTerminal, CfgUnary, trim_cfg
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


def test_cfg_start_triple(fixtures):
    for st_ in fixtures.values():
        assert st_.cfg.start == (st_.annotated.grammar.start,
                                 st_.graph.nodes[0])


def test_cfg_rule_sanity(fixtures):
    for st_ in fixtures.values():
        nts = set(st_.cfg.nonterminals)
        for r in st_.cfg.rules:
            assert r.lhs in nts
            if isinstance(r, CfgBinary):
                assert r.left in nts and r.right in nts
                # binary rules keep the summary of the parent
                assert r.left[1] is r.lhs[1] and r.right[1] is r.lhs[1]
            elif isinstance(r, CfgUnary):
                assert r.rhs in nts
                assert r.tag in ("push", "pop")
            else:
                assert isinstance(r, CfgTerminal)


def test_cfg_push_pop_follow_graph(fixtures):
    for st_ in fixtures.values():
        gr = st_.graph
        for r in st_.cfg.rules:
            if isinstance(r, CfgUnary) and r.tag == "push":
                (_, sigma), (_, tgt) = r.lhs, r.rhs
                assert any(gr.push(letter, sigma) is tgt
                           for letter in gr.letters)
            elif isinstance(r, CfgUnary) and r.tag == "pop":
                (_, sigma), (_, src) = r.lhs, r.rhs
                assert any(src in gr.pop(letter, sigma)
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
              (CfgTerminal("S", "a"),
               CfgBinary("S", "S", "Dead"),      # Dead is unproductive
               CfgUnary("Loop", "Loop", ""),     # Loop never terminates
               CfgTerminal("Unreach", "a")))     # productive, unreachable
    out = trim_cfg(cfg)
    assert out.nonterminals == ["S"]
    assert out.rules == (CfgTerminal("S", "a"),)


def test_trim_empty_language():
    cfg = Cfg(["S"], frozenset("a"), "S", (CfgUnary("S", "S", ""),))
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
            if isinstance(r, CfgTerminal):
                ok = True
            elif isinstance(r, CfgBinary):
                ok = r.left in productive and r.right in productive
            else:
                ok = r.rhs in productive
            if ok:
                productive.add(r.lhs)
                changed = True
    live_rules = [r for r in cfg.rules if r.lhs in productive and
                  (isinstance(r, CfgTerminal) or
                   (isinstance(r, CfgBinary) and r.left in productive
                    and r.right in productive) or
                   (isinstance(r, CfgUnary) and r.rhs in productive))]
    reachable = set()
    if cfg.start in productive:
        queue = [cfg.start]
        reachable.add(cfg.start)
        while queue:
            nt = queue.pop()
            for r in live_rules:
                if r.lhs != nt:
                    continue
                kids = ([r.left, r.right] if isinstance(r, CfgBinary)
                        else [r.rhs] if isinstance(r, CfgUnary) else [])
                for k in kids:
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
