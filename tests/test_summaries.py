"""Stack summaries: push cases, decomposition, graph closure, validation."""

import gc
import hashlib
import os
import subprocess
import sys
from functools import partial
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings

import ixdcl
from ixdcl.analysis import Analysis, CapExceeded, gather
from ixdcl.annotate import build_annotated
from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.grammar import grammar_from_text
from ixdcl.monoid import ONE, Seg, StackMonoid, ZERO, _Memo
from ixdcl.pipeline import run_pipeline, stages
from ixdcl.summaries import Block, SummaryFactory, build_summary_graph
from generated_grammars import grammar_texts
from summary_helpers import (atom_word, atoms, element_key, push_word,
                             summary_key, summed_size, top_letter,
                             validate_summary)
from summary_reference import TupleKeyedFactory
from summary_reference import build_summary_graph as reference_graph

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

# the two drawn grammars of the benchmark's `random` population whose
# summary graphs exceed the default cap of 4096 nodes
CAPPED_TEXTS = {
    "push_pair": """\
start A
terminals a b
stack l
D -> a
A -> N + l
N -> A + l
D -> A
A -> D b
dfa K0 { states q0; init q0; final q0; }
""",
    "check": """\
start U
terminals a b
stack s x
U -> K + x
S -> K check K0
S -> b b U
K -> S + s
U -> b b S
K -> a
dfa K0 { states q0; init q0; final q0; q0 x q0; }
""",
}

# (summaries created before the cap, sha256 prefix of summaries_fingerprint)
CAP_GOLDENS = {
    "push_pair": (4096, "0e031972ccd450bb"),
    "check": (4096, "07f381f9fffe3d76"),
}


def fresh_loop_factory():
    g = g_loop_grammar()
    an = Analysis(g)
    ag = build_annotated(g, an)
    m = StackMonoid(an, ag.letters)
    return SummaryFactory(m), sorted(ag.letters, key=str)


def monoid_and_letters(g):
    an = Analysis(g)
    ag = build_annotated(g, an)
    return StackMonoid(an, ag.letters), ag.letters


def named_monoid(fixtures, name):
    """The monoid and letters of a fixture grammar, of RANDOM_361_TEXT
    ("random") or of a capped text."""
    if name in fixtures:
        return fixtures[name].monoid, fixtures[name].annotated.letters
    text = RANDOM_361_TEXT if name == "random" else CAPPED_TEXTS[name]
    return monoid_and_letters(grammar_from_text(text))


def summary_graph(g):
    """The summary graph of g and the nonterminals its keys spell."""
    m, letters = monoid_and_letters(g)
    return build_summary_graph(SummaryFactory(m), letters), m.analysis.nts


def canonical(x):
    """Render a key or letter; frozensets sorted, so that the text does
    not depend on PYTHONHASHSEED."""
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(map(canonical, x))) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(map(canonical, x)) + ")"
    return repr(x)


def graph_fingerprint(graph, nts):
    """Node count, edge count and a digest of every node in order (index,
    size, depth, hash-cons key) and every edge (src, letter, tgt)."""
    lines = [f"{i} {s.size} {s.depth} {canonical(summary_key(s, nts))}"
             for i, s in enumerate(graph.nodes)]
    lines += [f"{graph.ids[src]} {canonical(letter)} {graph.ids[tgt]}"
              for (src, letter), tgt in graph.edges.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(graph.nodes), len(graph.edges), digest[:16]


def summaries_fingerprint(summaries, nts):
    """Count and a digest of every summary in order (size, depth, key)."""
    lines = [f"{s.size} {s.depth} {canonical(summary_key(s, nts))}"
             for s in summaries]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(lines), digest[:16]


def recorded_atom_words(monoid, letters):
    """A fresh factory on the monoid, and every atom word it makes while
    building the summary graph, up to the summary cap for a graph that
    exceeds it, as a tuple of atoms."""
    factory = SummaryFactory(monoid)
    try:
        build_summary_graph(factory, letters)
    except CapExceeded:
        pass
    return factory, [tuple(w) for w in factory._words.values()]


def brute_force_decompose(m, s, k):
    """The least split of s into k groups with one idempotent image e plus
    a remainder, by (group lengths, element_key(e)), found by enumerating
    every choice of group ends: (lengths, e, end of the last group)."""
    image = {(i, j): m.phi_seq(a.phi for a in s[i:j])
             for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    best = None
    for ends in combinations(range(1, len(s) + 1), k):
        starts = (0,) + ends[:-1]
        images = [image[i, j] for i, j in zip(starts, ends)]
        e = images[0]
        if e is ONE or m.product(e, e) is not e or \
                any(x is not e for x in images):
            continue
        cand = (tuple(j - i for i, j in zip(starts, ends)),
                element_key(e, m.analysis.nts))
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


def test_sizes_are_the_sums_over_the_parts(fixtures):
    # a push sets the size of what it makes from sigma's; the sum over
    # the parts is the reference, on every summary, atom and block the
    # graphs' factories made (loop's fold and merge included)
    m, letters = named_monoid(fixtures, "random")
    factories = [SummaryFactory(m)]
    build_summary_graph(factories[0], letters)
    factories += [st_.factory for st_ in fixtures.values()]
    made = [x for f in factories
            for table in (f._summaries, f._atoms, f._blocks)
            for x in table.values()]
    # blocks: random's 2, loop's and square's
    assert sum(isinstance(x, Block) for x in made) == 4
    memo = {}
    assert [x.size for x in made] == [summed_size(x, memo) for x in made]


def test_graph_fingerprint_goldens(fixtures):
    graphs = {name: (st_.graph, st_.analysis.nts)
              for name, st_ in fixtures.items()}
    graphs["G_1"] = summary_graph(grammar_gn(1))
    graphs["random"] = summary_graph(grammar_from_text(RANDOM_361_TEXT))
    assert {name: graph_fingerprint(*gr) for name, gr in graphs.items()} == \
        GRAPH_GOLDENS


def test_graph_fingerprint_does_not_depend_on_the_hash_seed():
    """The 361-node graph and its grammar's closure NFA, built in fresh
    interpreters under two hash seeds, have the same fingerprints both
    times."""
    from test_nfa import CLOSURE_GOLDENS
    code = ("from test_summaries import *\n"
            "from test_nfa import closure_fingerprint, run_pipeline\n"
            "g = grammar_from_text(RANDOM_361_TEXT)\n"
            "print(graph_fingerprint(*summary_graph(g)))\n"
            "print(closure_fingerprint(run_pipeline(g).nfa))")
    path = [os.path.dirname(os.path.dirname(ixdcl.__file__)),
            os.path.dirname(__file__)]
    outs = set()
    for seed in ("0", "2228731064"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outs.add(run.stdout.strip())
    assert outs == {f"{GRAPH_GOLDENS['random']}\n"
                    f"{CLOSURE_GOLDENS['random']}"}


@pytest.mark.parametrize("name", ["loop", "square", "push_pair"])
def test_decompose_matches_brute_force(fixtures, name):
    # Every window of a recorded atom word, short enough to enumerate, is
    # split with the factory's own group count and with 1 and 2 groups on
    # each side of e+, which makes short words decompose.  At 1 and 2 the
    # windows of push_pair both pass and fail the prefix-end bound; at its
    # own N none folds, and they are too many to enumerate.
    factory, words = recorded_atom_words(*named_monoid(fixtures, name))
    m = factory.monoid
    found = 0
    counts = ((1, 8), (2, 8), (factory.n_groups, 2))
    for n_groups, slack in counts[:2] if name == "push_pair" else counts:
        factory.n_groups = n_groups
        k = 2 * n_groups + 1
        windows = {}
        for s in words:
            for ln in range(1, min(len(s), k + slack) + 1):
                for i in range(len(s) - ln + 1):
                    windows[tuple(map(id, s[i:i + ln]))] = s[i:i + ln]
        for w in windows.values():
            ref = brute_force_decompose(m, w, k)
            got = factory._decompose(atom_word(factory, w))
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


@pytest.mark.parametrize("name", ["square", "random"])
def test_decompose_is_the_same_cold_and_warm(fixtures, name):
    # A warm factory's cells keep their tables while the group count
    # changes under it: the one that built the graph goes on with N, 1, 2,
    # and a new one fills its tables with 1, then goes on with 2, N.  Each
    # cold factory makes one word only.
    m, letters = named_monoid(fixtures, name)
    built, words = recorded_atom_words(m, letters)
    full = built.n_groups
    for warm, order in ((built, (full, 1, 2)),
                        (SummaryFactory(m), (1, 2, full))):
        for n_groups in order:
            warm.n_groups = n_groups
            for s in words:
                cold = SummaryFactory(m)
                cold.n_groups = n_groups
                assert cold._decompose(atom_word(cold, s)) == \
                    warm._decompose(atom_word(warm, s))


@pytest.mark.parametrize("name", ["loop", "square", "random", "push_pair"])
def test_a_fold_has_2n_plus_1_prefix_ends(fixtures, name):
    # Groups ending at c_1 < .. < c_k with image e give phi(s[0:c_j]) =
    # e^j = e, so the row of 0 holds k ends for e, and `_decompose` asks
    # `_levels` only for such e.  Every idempotent of every recorded word
    # is checked, also those the bound skips; both kinds occur.
    factory, words = recorded_atom_words(*named_monoid(fixtures, name))
    idempotents = factory.monoid.idempotents
    folds = skipped = 0
    for n_groups in (1, 2, factory.n_groups):
        k = 2 * n_groups + 1
        for s in map(partial(atom_word, factory), words):
            factory._segment_rows(s)
            for e, ends in s.row.items():
                if e is ONE or e not in idempotents:
                    continue
                can = factory._levels(s, e)
                if len(can) > k and can[k] >> s.length:
                    assert ends.bit_count() >= k
                    folds += 1
                else:
                    skipped += ends.bit_count() < k
    assert folds and skipped


class TransformationMonoid:
    """A stub monoid of transformations t of {0, 1, 2}, each a Seg whose
    matrix has the row masks 1 << t(i), so that the row product composes
    them.
    It has one nonterminal, so a decomposition has three groups.  Its
    products are read as `StackMonoid`'s are, through the rows `left`."""

    product = StackMonoid.product
    phi_seq = StackMonoid.phi_seq

    def __init__(self, **gens):
        self.analysis = SimpleNamespace(g=SimpleNamespace(
            symbols=SimpleNamespace(nonterminals={"S"})))
        self.left = _Memo(lambda x2: _Memo(partial(self._mul, x2)))
        self._intern = {}
        self.gens = {name: self._mk(tuple(1 << j for j in t))
                     for name, t in gens.items()}
        elems = list(self.gens.values())
        for x in elems:   # grows while it is read
            for g in self.gens.values():
                y = self.product(x, g)
                if y not in elems:
                    elems.append(y)
        self.idempotents = frozenset(
            x for x in elems if self.product(x, x) is x)

    def _mk(self, m):
        if m not in self._intern:
            self._intern[m] = Seg(0, 0, m, 0, 0)
        return self._intern[m]

    def _mul(self, x2, x1):
        if x2 is ONE:
            return x1
        if x1 is ONE:
            return x2
        return self._mk(tuple(gather(x1.m, row) for row in x2.m))

    def depth(self, x):
        return 0


def test_decompose_picks_the_idempotent_with_shorter_groups():
    # c and d are idempotents and c absorbs d on either side, so d d d c c c
    # splits over d as [d][d][d] c c c and over c as [d d d c][c][c].
    m = TransformationMonoid(c=(0, 0, 0), d=(0, 0, 2))
    factory = SummaryFactory(m)
    s = tuple(factory.atom(x, factory.empty) for x in "dddccc")
    e, groups, w = factory._decompose(atom_word(factory, s))
    assert e is m.gens["d"]
    assert [len(g) for g in groups] == [1, 1, 1]
    assert w == s[3:]


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


def test_atom_push_shares_the_word_below():
    # an atom-case push makes one cell whose tail is the word it was
    # pushed onto, not a copy of it
    factory, (letter,) = fresh_loop_factory()
    sigma = push_word(factory, (letter,) * 2, factory.empty)
    tr = []
    tau = factory.push_letter(letter, sigma, trace=tr)
    assert tr == ["atom"]
    assert tau.atoms.tail is sigma.atoms
    assert tau.atoms.first is factory.atom(letter, factory.empty)
    assert atoms(tau)[1:] == atoms(sigma)


def test_short_words_make_no_fold_tables():
    # words shorter than 2N+1 cannot fold, so no cell holds a row or
    # levels until one reaches that length (loop folds at its fifth push)
    factory, (letter,) = fresh_loop_factory()
    k = 2 * factory.n_groups + 1
    sigma = push_word(factory, (letter,) * (k - 1), factory.empty)
    cells = list(factory._words.values())
    assert max(w.length for w in cells) == k - 1 == len(atoms(sigma))
    assert all(w.row is None and w.can is None and w.fold is None
               for w in cells)
    factory.push_letter(letter, sigma)
    assert all(w.row is not None for w in cells)


def test_loop_block_shape():
    factory, (letter,) = fresh_loop_factory()
    sigma = push_word(factory, (letter,) * 5, factory.empty)
    assert sigma.sub is None and sigma.atoms is None
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
            # the push hands the summary its image; its parts agree
            parts = [x.phi for x in (tgt.sub,) + atoms(tgt) + tgt.blocks
                     if x is not None]
            assert m.phi_seq(parts) is tgt.phi


def test_top_letter_after_push(fixtures):
    for st_ in fixtures.values():
        for (src, letter), tgt in st_.graph.edges.items():
            assert top_letter(tgt) == letter
    assert top_letter(next(iter(fixtures["g1"].graph.nodes))) is None


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
            for letter in st_.annotated.letters:
                edge = (sigma, letter) in gr.edges
                feasible = m.product(m.gens[letter], sigma.phi) is not ZERO
                assert edge == feasible


def test_validator_clean_on_all_nodes(fixtures):
    for st_ in fixtures.values():
        for sigma in st_.graph.nodes:
            assert validate_summary(st_.factory, sigma) == []


def test_hash_consing_identity():
    factory, (letter,) = fresh_loop_factory()
    a = push_word(factory, (letter,) * 3, factory.empty)
    b = push_word(factory, (letter,) * 3, factory.empty)
    assert a is b
    nts = factory.monoid.analysis.nts
    assert summary_key(a, nts) == summary_key(b, nts)


def test_rebuild_determinism(fixtures):
    for st_ in fixtures.values():
        m = StackMonoid(st_.analysis, st_.annotated.letters)
        factory = SummaryFactory(m)
        graph = build_summary_graph(factory, st_.annotated.letters)
        nts = st_.analysis.nts
        assert [summary_key(s, nts) for s in graph.nodes] == \
            [summary_key(s, nts) for s in st_.graph.nodes]


def test_depth_stratification(fixtures):
    # sub-summaries and atom tails are strictly shallower (validated
    # recursively by the factory); spot-check depths directly here
    for st_ in fixtures.values():
        for sigma in st_.graph.nodes:
            if sigma.sub is not None:
                assert sigma.sub.depth < sigma.depth
            for a in atoms(sigma):
                assert a.tail.depth < sigma.depth


def test_summary_graph_cap():
    factory, letters = fresh_loop_factory()
    with pytest.raises(CapExceeded):
        build_summary_graph(factory, letters, cap=3)


@pytest.mark.parametrize("name", sorted(CAPPED_TEXTS))
def test_cap_exit_goldens(name):
    m, letters = monoid_and_letters(grammar_from_text(CAPPED_TEXTS[name]))
    factory = SummaryFactory(m)
    with pytest.raises(CapExceeded):
        build_summary_graph(factory, letters)
    created = [s for s in factory._summaries.values() if not s.is_empty()]
    assert summaries_fingerprint(created, m.analysis.nts) == \
        CAP_GOLDENS[name]


def reference_grammars():
    """The grammars whose graphs are checked against the reference in
    full, by name (imported here: test_differential imports this
    module)."""
    from test_differential import PARITY_TEXT, SAME_LEVEL_TEXT
    return {"g1": g1_grammar(), "loop": g_loop_grammar(),
            "square": square_grammar(), "G_1": grammar_gn(1),
            "G_2": grammar_gn(2), "parity": grammar_from_text(PARITY_TEXT),
            "same_level": grammar_from_text(SAME_LEVEL_TEXT)}


def assert_graph_matches_reference(m, letters, cap=4096):
    """The graph equals the reference's, built on a tuple-keyed
    factory: the same summaries, pushes and edges in the same order and,
    on one factory, the same nodes, ids, edges and pop lists, dict and
    list orders included.  A cap exit raises the same message after the
    same summaries.  Returns that message, or None."""
    nts = m.analysis.nts
    ref_factory, factory = TupleKeyedFactory(m), SummaryFactory(m)
    try:
        ref = reference_graph(ref_factory, letters, cap)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as new:
            build_summary_graph(factory, letters, cap)
        assert str(new.value) == str(exc)
        assert summaries_fingerprint(factory._summaries.values(), nts) == \
            summaries_fingerprint(ref_factory._summaries.values(), nts)
        return str(exc)
    graph = build_summary_graph(factory, letters, cap)
    assert graph_fingerprint(graph, nts) == graph_fingerprint(ref, nts)
    assert summaries_fingerprint(factory._summaries.values(), nts) == \
        summaries_fingerprint(ref_factory._summaries.values(), nts)
    graph = build_summary_graph(ref_factory, letters, cap)
    assert graph.nodes == ref.nodes
    for index in ("ids", "edges", "inverse"):
        assert list(getattr(graph, index).items()) == \
            list(getattr(ref, index).items()), index
    return None


@pytest.mark.parametrize("name", ["g1", "loop", "square", "G_1", "G_2",
                                  "parity", "same_level"])
def test_graph_matches_reference(name):
    m, letters = monoid_and_letters(reference_grammars()[name])
    assert assert_graph_matches_reference(m, letters) is None


@pytest.mark.parametrize("name", sorted(CAPPED_TEXTS))
def test_cap_exit_matches_reference(name):
    m, letters = monoid_and_letters(grammar_from_text(CAPPED_TEXTS[name]))
    assert assert_graph_matches_reference(m, letters) == \
        "summary graph cap exceeded: 4097 summaries, limit 4096 " \
        "(--max-summaries)"


@settings(max_examples=200, deadline=None)
@given(grammar_texts())
def test_graph_matches_reference_on_generated_grammars(text):
    try:
        m, letters = monoid_and_letters(grammar_from_text(text))
    except CapExceeded:
        event("cap exit before the summaries")
        return
    if assert_graph_matches_reference(m, letters, cap=512) is not None:
        event("summary cap exit")


def test_pipeline_leaves_no_cyclic_garbage():
    # a summary, atom, block or word points only at what it was made
    # from, so the pipeline's results, cap exits included, are freed by
    # reference counting alone and the collector finds nothing
    grammars = reference_grammars().values()
    capped = [grammar_from_text(text) for text in CAPPED_TEXTS.values()]
    gc.collect()
    gc.disable()
    try:
        for g in grammars:
            run_pipeline(g)
        for g in capped:
            with pytest.raises(CapExceeded):
                list(stages(g))
        assert gc.collect() == 0
    finally:
        gc.enable()
