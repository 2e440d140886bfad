"""Stack summaries: push cases, decomposition, graph closure, validation."""

import hashlib
from itertools import combinations

import pytest

from ixdcl.analysis import Analysis, CapExceeded
from ixdcl.annotate import build_annotated
from ixdcl.families import g_loop_grammar, grammar_gn
from ixdcl.grammar import grammar_from_text
from ixdcl.monoid import ONE, StackMonoid, ZERO, element_key
from ixdcl.summaries import SummaryFactory, build_summary_graph

# a drawn grammar whose summary graph has 361 nodes
RANDOM_361_TEXT = """\
start V
terminals a b
stack k
Z -> V + k
Z - k -> b b
A - k -> Z
V -> Z + k
N - k -> b
V - k -> b b
N -> a
"""

# (nodes, edges, sha256 prefix of graph_fingerprint)
GRAPH_GOLDENS = {
    "g1": (2, 1, "f491a9c7015edded"),
    "loop": (10, 10, "bf7eb762fef9b5b6"),
    "square": (281, 282, "1ab66ca99c5bc9f6"),
    "G_1": (16, 15, "a2e5077ce9484d4b"),
    "random": (361, 363, "d6d48e69d0809b17"),
}


def fresh_loop_factory():
    g = g_loop_grammar()
    an = Analysis(g)
    ag = build_annotated(g, an)
    m = StackMonoid(an, ag.letters)
    return SummaryFactory(m), sorted(ag.letters, key=str)


def summary_graph(g):
    an = Analysis(g)
    ag = build_annotated(g, an)
    return build_summary_graph(SummaryFactory(StackMonoid(an, ag.letters)),
                               ag.letters)


def canonical(x):
    """Render a key or letter; frozensets sorted, so that the text does
    not depend on PYTHONHASHSEED."""
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(map(canonical, x))) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(map(canonical, x)) + ")"
    return repr(x)


def graph_fingerprint(graph):
    """Node count, edge count and a digest of every node in order (index,
    size, depth, hash-cons key) and every edge (src, letter, tgt)."""
    lines = [f"{i} {s.size} {s.depth} {canonical(s.key())}"
             for i, s in enumerate(graph.nodes)]
    lines += [f"{graph.ids[src]} {canonical(letter)} {graph.ids[tgt]}"
              for (src, letter), tgt in graph.edges.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(graph.nodes), len(graph.edges), digest[:16]


def recorded_atom_words(stages):
    """A fresh factory on the stages' monoid, and every atom word it is
    asked to decompose while rebuilding the summary graph."""
    factory = SummaryFactory(stages.monoid)
    words = {}
    decompose = factory._decompose

    def record(s):
        words[tuple(map(id, s))] = s
        return decompose(s)

    factory._decompose = record
    build_summary_graph(factory, stages.annotated.letters)
    del factory._decompose
    return factory, list(words.values())


def brute_force_decompose(m, s, k):
    """The least split of s into k groups with one idempotent image e plus
    a remainder, by (group lengths, element_key(e)), found by enumerating
    every choice of group ends: (lengths, e, end of the last group)."""
    best = None
    for ends in combinations(range(1, len(s) + 1), k):
        starts = (0,) + ends[:-1]
        images = [m.phi_seq(a.phi for a in s[i:j])
                  for i, j in zip(starts, ends)]
        e = images[0]
        if e is ONE or m.product(e, e) is not e or \
                any(x is not e for x in images):
            continue
        cand = (tuple(j - i for i, j in zip(starts, ends)), element_key(e))
        if best is None or cand < best[0]:
            best = (cand, e, ends[-1])
    if best is None:
        return None
    (lengths, _), e, end = best
    return lengths, e, end


def test_graph_goldens(fixtures):
    g1, loop, square = (fixtures[k].graph for k in ("g1", "loop", "square"))
    assert (len(g1.nodes), len(g1.edges)) == (2, 1)
    assert [s.size for s in g1.nodes] == [0, 1]
    assert (len(loop.nodes), len(loop.edges)) == (10, 10)
    assert [s.size for s in loop.nodes] == list(range(10))
    assert len(square.nodes) == 281
    assert max(s.size for s in square.nodes) == 140
    for gr in (g1, loop, square):
        assert gr.nodes[0].is_empty()
        assert gr.complete


def test_graph_fingerprint_goldens(fixtures):
    graphs = {name: st_.graph for name, st_ in fixtures.items()}
    graphs["G_1"] = summary_graph(grammar_gn(1))
    graphs["random"] = summary_graph(grammar_from_text(RANDOM_361_TEXT))
    assert {name: graph_fingerprint(gr) for name, gr in graphs.items()} == \
        GRAPH_GOLDENS


@pytest.mark.parametrize("name", ["loop", "square"])
def test_decompose_matches_brute_force(fixtures, name):
    # Every window of a recorded atom word, short enough to enumerate, is
    # split with the factory's own group count and with 1 and 2 groups on
    # each side of e+, which makes short words decompose.
    factory, words = recorded_atom_words(fixtures[name])
    m = factory.monoid
    found = 0
    for n_groups, slack in ((1, 8), (2, 8), (factory.n_groups, 2)):
        factory.n_groups = n_groups
        k = 2 * n_groups + 1
        windows = {}
        for s in words:
            for ln in range(1, min(len(s), k + slack) + 1):
                for i in range(len(s) - ln + 1):
                    windows[tuple(map(id, s[i:i + ln]))] = s[i:i + ln]
        for w in windows.values():
            ref = brute_force_decompose(m, w, k)
            got = factory._decompose(w)
            if ref is None:
                assert got is None
                continue
            lengths, e, end = ref
            starts = [sum(lengths[:j]) for j in range(k)]
            groups = tuple(tuple(w[i:i + ln])
                           for i, ln in zip(starts, lengths))
            assert got[0] is e
            assert got[1:] == (groups, tuple(w[end:]))
            found += 1
    assert found >= 5


def test_loop_push_cases_and_plateau():
    factory, (letter,) = fresh_loop_factory()
    sigma = factory.empty
    traces = []
    history = [sigma]
    for _ in range(12):
        tr = []
        sigma = factory.push_letter(letter, sigma, trace=tr)
        traces.append(tr[0])
        history.append(sigma)
    assert traces == (["deepen"] + ["atom"] * 3 + ["block"] +
                      ["atom"] * 4 + ["merge@1"] + ["atom"] * 2)
    # pushing merges back onto the size-5 summary: a period-5 plateau
    assert history[10] is history[5]
    assert history[11] is history[6]
    assert [s.size for s in history[:10]] == list(range(10))


def test_loop_block_shape():
    factory, (letter,) = fresh_loop_factory()
    sigma = factory.push_word((letter,) * 5, factory.empty)
    assert sigma.sub is None and sigma.atoms == ()
    (block,) = sigma.blocks
    n = factory.n_groups
    assert len(block.us) == n and len(block.vs) == n
    m = factory.monoid
    assert m.product(block.e, block.e) is block.e
    for group in block.us + block.vs:
        assert m.phi_seq(a.phi for a in group) is block.e


def test_phi_preserved_on_all_edges(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        for (src, letter), tgt in st_.graph.edges.items():
            assert tgt.phi is m.product(m.gens[letter], src.phi)
            assert tgt.phi is not ZERO


def test_top_letter_after_push(fixtures):
    for st_ in fixtures.values():
        for (src, letter), tgt in st_.graph.edges.items():
            assert tgt.top_letter() == letter
    assert next(iter(fixtures["g1"].graph.nodes)).top_letter() is None


def test_push_pop_round_trip(fixtures):
    for st_ in fixtures.values():
        gr = st_.graph
        for (src, letter), tgt in gr.edges.items():
            assert src in gr.pop(letter, tgt)
        for (letter, tgt), srcs in gr.inverse.items():
            for src in srcs:
                assert gr.push(letter, src) is tgt


def test_infeasible_pushes_have_no_edge(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        gr = st_.graph
        for sigma in gr.nodes:
            for letter in gr.letters:
                edge = (sigma, letter) in gr.edges
                feasible = m.product(m.gens[letter], sigma.phi) is not ZERO
                assert edge == feasible


def test_validator_clean_on_all_nodes(fixtures):
    for st_ in fixtures.values():
        for sigma in st_.graph.nodes:
            assert st_.factory.validate(sigma) == []


def test_hash_consing_identity():
    factory, (letter,) = fresh_loop_factory()
    a = factory.push_word((letter,) * 3, factory.empty)
    b = factory.push_word((letter,) * 3, factory.empty)
    assert a is b
    assert a.key() == b.key()


def test_rebuild_determinism(fixtures):
    for st_ in fixtures.values():
        m = StackMonoid(st_.analysis, st_.annotated.letters)
        factory = SummaryFactory(m)
        graph = build_summary_graph(factory, st_.annotated.letters)
        assert [s.key() for s in graph.nodes] == \
            [s.key() for s in st_.graph.nodes]


def test_depth_stratification(fixtures):
    # sub-summaries and atom tails are strictly shallower (validated
    # recursively by the factory); spot-check depths directly here
    for st_ in fixtures.values():
        for sigma in st_.graph.nodes:
            if sigma.sub is not None:
                assert sigma.sub.depth < sigma.depth
            for a in sigma.atoms:
                assert a.tail.depth < sigma.depth


def test_summary_graph_cap():
    factory, letters = fresh_loop_factory()
    with pytest.raises(CapExceeded):
        build_summary_graph(factory, letters, cap=3)
