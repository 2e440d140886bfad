"""The context-free cover over (annotated nonterminal, summary) triples."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ixdcl.analysis import CapExceeded
from ixdcl.cfg import build_cfg, sccs, trim_cfg
from ixdcl.grammar import BinaryRule, PopRule, PushRule, grammar_from_text
from ixdcl.nfa import cfg_dcl_nfa
from ixdcl.oracle import OracleBudget, subwords, term_language_dp
from ixdcl.pipeline import stages
from cfg_reference import (assert_cover_is_trim, cfg_bounded_words,
                           cfg_dcl_bounded, full_cover, named_rules,
                           numbered_cfg, trim)
from test_grammar import generated_stages, small_grammars
from test_nfa import random_cfg
from test_summaries import RANDOM_361_TEXT


def test_cfg_goldens(fixtures):
    shapes = {"g1": (3, 3, 3, 3), "loop": (20, 50, 20, 50),
              "square": (1277, 1421, 1277, 1421)}
    for name, st_ in fixtures.items():
        trimmed = trim_cfg(st_.cfg)
        assert (len(st_.cfg.nonterminals), st_.cfg.n_rules(),
                len(trimmed.nonterminals),
                trimmed.n_rules()) == shapes[name]


def test_cfg_triple_cap(square):
    cfg = build_cfg(square.annotated, square.graph, cap=1277)
    assert len(cfg.nonterminals) == 1277
    with pytest.raises(CapExceeded, match="cfg triple cap"):
        build_cfg(square.annotated, square.graph, cap=1276)


def assert_same_closure_as_full_cover(ag, graph, cfg, nfa):
    """The cover with one triple per stack-blind nonterminal has the
    full cover's short words and closure; both are trim as built."""
    full = full_cover(ag, graph)
    assert_cover_is_trim(full)
    assert cfg_bounded_words(full, 6) == cfg_bounded_words(cfg, 6)
    assert cfg_dcl_nfa(full).ideals == nfa.ideals
    return full


def test_cover_matches_full_cover(fixtures):
    for st_ in fixtures.values():
        full = assert_same_closure_as_full_cover(
            st_.annotated, st_.graph, st_.cfg, st_.nfa)
        assert len(full.nonterminals) >= len(st_.cfg.nonterminals)
    full = full_cover(fixtures["square"].annotated, fixtures["square"].graph)
    assert (len(full.nonterminals), full.n_rules()) == (1977, 2121)
    for text in (RANDOM_361_TEXT, POP_BELOW_BINARY_TEXT):
        _, ag, _, _, graph, cfg, nfa = stages(grammar_from_text(text))
        assert_same_closure_as_full_cover(ag, graph, cfg, nfa)


# B has no push or pop rule, but its binary rule reaches A's pop, so it
# needs the pushed summary: at the empty one the closure would be empty
POP_BELOW_BINARY_TEXT = """\
start S
terminals a
stack f
S -> B + f
B -> A A
A - f -> a
"""


@settings(deadline=None)
@given(small_grammars())
def test_cover_matches_full_cover_on_generated_grammars(g):
    out = generated_stages(g)
    if out is not None:
        _, ag, _, _, graph, cfg, nfa = out
        assert_same_closure_as_full_cover(ag, graph, cfg, nfa)


def test_cfg_start_triple(fixtures):
    for st_ in fixtures.values():
        assert st_.cfg.nonterminals[0] == (st_.annotated.grammar.start,
                                           st_.graph.nodes[0])


def test_numbered_cover_invariants(fixtures):
    # one list of right-hand sides per triple, kids numbered below the
    # count; the reference trim keeps the start at 0 and the survivors in
    # order, and renumbers every kid to the same triple (the random CFGs
    # lose nonterminals to it, the fixtures' covers none)
    rng = random.Random(2)
    pairs = [(st_.cfg, trim(st_.cfg)) for st_ in fixtures.values()]
    pairs += [(cfg, trim(cfg))
              for cfg in (random_cfg(rng) for _ in range(200))]
    for full, trimmed in pairs:
        for cfg in (full, trimmed):
            n = len(cfg.nonterminals)
            assert len(cfg.rules) == n
            assert len(set(cfg.nonterminals)) == n
            for rs in cfg.rules:
                for r in rs:
                    assert isinstance(r, str) or (
                        isinstance(r, tuple) and len(r) in (1, 2)
                        and all(0 <= k < n for k in r))
        if trimmed.nonterminals:
            assert trimmed.nonterminals[0] == full.nonterminals[0]
        old = {t: i for i, t in enumerate(full.nonterminals)}
        pos = [old[t] for t in trimmed.nonterminals]
        assert pos == sorted(pos)
        assert set(named_rules(trimmed)) <= set(named_rules(full))
    assert sum(len(t.nonterminals) < len(f.nonterminals)
               for f, t in pairs) > 50


def stack_blind(g):
    """The nonterminals of g from which no push or pop rule is reachable
    through binary rules, by rounds until nothing changes."""
    reads = {p.lhs for p in g.productions
             if isinstance(p, (PushRule, PopRule))}
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if (isinstance(p, BinaryRule) and p.lhs not in reads
                    and (p.left in reads or p.right in reads)):
                reads.add(p.lhs)
                changed = True
    return set(g.symbols.nonterminals) - reads


def test_cfg_rule_sanity(fixtures):
    moved = 0
    for st_ in fixtures.values():
        nts = set(st_.cfg.nonterminals)
        blind = stack_blind(st_.annotated.grammar)
        empty = st_.graph.nodes[0]
        assert all(t[1] is empty for t in nts if t[0] in blind)
        for lhs, kids, word in named_rules(st_.cfg):
            assert lhs in nts
            assert all(k in nts for k in kids)
            assert len(kids) in (0, 1, 2)
            if len(kids) == 2:
                # a binary rule's kid keeps the summary of the parent,
                # or sits at the empty one exactly when it is stack-blind
                for k in kids:
                    assert k[1] is (empty if k[0] in blind else lhs[1])
                    moved += k[1] is not lhs[1]
            if kids:
                assert word == ""
    assert moved   # square has stack-blind kids below nonempty summaries


def test_cfg_push_pop_follow_graph(fixtures):
    for st_ in fixtures.values():
        gr = st_.graph
        for lhs, kids, _ in named_rules(st_.cfg):
            if len(kids) == 1:
                (_, sigma), ((_, other),) = lhs, kids
                assert any(gr.push(letter, sigma) is other or
                           other in gr.pop(letter, sigma)
                           for letter in st_.annotated.letters)


def test_bounded_words_goldens(fixtures):
    assert cfg_bounded_words(fixtures["g1"].cfg, 6) == \
        frozenset({"ab"})
    assert cfg_bounded_words(fixtures["loop"].cfg, 6) == \
        frozenset({"a"})
    assert cfg_bounded_words(fixtures["square"].cfg, 6) == \
        frozenset({"", "ab", "aabbbb"})


def test_cover_contains_indexed_language(fixtures):
    # every short word of the indexed grammar is a word of the cover
    for st_ in fixtures.values():
        dp = term_language_dp(st_.grammar, OracleBudget(6, 6, 500000),
                              emptiness=st_.analysis.term_empty)
        words = cfg_bounded_words(st_.cfg, 6)
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
        got = cfg_dcl_bounded(fixtures[name].cfg, 6)
        assert got == frozenset(want)
    sq = cfg_dcl_bounded(fixtures["square"].cfg, 6)
    # a^n b^(n^2): short subwords are exactly a^i b^j with j <= roughly
    # the square of the available a-budget; frozen golden
    assert len(sq) == 28
    assert {"", "a", "b", "ab", "aabbbb", "aaaaaa", "bbbbbb"} <= sq
    assert "ba" not in sq and all(not w.count("ba") for w in sq)


def test_trim_removes_dead_nonterminals():
    cfg = numbered_cfg(["S", "Dead", "Loop", "Unreach"], "a",
                       [("S", (), "a"),
                        ("S", ("S", "Dead")),     # Dead is unproductive
                        ("Loop", ("Loop",)),      # Loop never terminates
                        ("Unreach", (), "a")])    # productive, unreachable
    out = trim(cfg)
    assert out.nonterminals == ["S"]
    assert out.rules == [["a"]]


def test_trim_empty_language():
    # the cover of an empty language is its start triple without a rule;
    # the reference trim also drops a start that only loops
    for cfg, trimmer in ((numbered_cfg(["S"], "a", []), trim_cfg),
                         (numbered_cfg(["S"], "a", [("S", ("S",))]), trim)):
        out = trimmer(cfg)
        assert out.nonterminals == [] and out.rules == []
        assert cfg_bounded_words(out, 5) == frozenset()


def round_robin_trim(cfg):
    """A second trim over named rules: the productive pass rescans every
    rule each round until nothing changes."""
    rules = named_rules(cfg)
    productive = set()
    changed = True
    while changed:
        changed = False
        for lhs, kids, _ in rules:
            if lhs in productive:
                continue
            if all(k in productive for k in kids):
                productive.add(lhs)
                changed = True
    live_rules = [r for r in rules if r[0] in productive and
                  all(k in productive for k in r[1])]
    reachable = set()
    start = cfg.nonterminals[0] if cfg.nonterminals else None
    if start in productive:
        queue = [start]
        reachable.add(start)
        while queue:
            nt = queue.pop()
            for lhs, kids, _ in live_rules:
                if lhs != nt:
                    continue
                for k in kids:
                    if k not in reachable:
                        reachable.add(k)
                        queue.append(k)
    return numbered_cfg([n for n in cfg.nonterminals if n in reachable],
                        cfg.terminals,
                        [r for r in live_rules if r[0] in reachable])


def test_trim_matches_round_robin(fixtures):
    cfgs = [st_.cfg for st_ in fixtures.values()]
    rng = random.Random(1)
    cfgs += [random_cfg(rng) for _ in range(200)]
    for cfg in cfgs:
        assert trim(cfg) == round_robin_trim(cfg)


@st.composite
def digraphs(draw):
    """A digraph on 0..n-1 as successor lists, and some roots."""
    n = draw(st.integers(0, 10))
    nodes = st.integers(0, n - 1)
    adj = [draw(st.lists(nodes, max_size=4)) for _ in range(n)]
    roots = draw(st.lists(nodes, max_size=n)) if n else []
    return adj, roots


def reach(adj, sources):
    seen = set(sources)
    queue = list(sources)
    while queue:
        for w in adj[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@given(digraphs())
def test_sccs_partitions_by_mutual_reachability(graph):
    adj, roots = graph
    comps = sccs(adj, roots)
    where = {}
    for c, members in enumerate(comps):
        for v in members:
            assert v not in where
            where[v] = c
    assert set(where) == reach(adj, roots)
    for u in where:
        from_u = reach(adj, [u])
        for v in where:
            assert (where[u] == where[v]) == (
                v in from_u and u in reach(adj, [v]))
        # every component u reaches is emitted no later than u's
        assert all(where[v] <= where[u] for v in from_u)
