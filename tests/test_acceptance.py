"""Acceptance gate: one test per end-to-end correctness criterion.

Each test prints a single PASS line on success (pytest's own verdict line
doubles as the FAIL marker), and checks the pipeline against the
brute-force derivation oracles at fixed budgets.
"""

import itertools
import random

import pytest

from ixdcl.analysis import Analysis, CapExceeded
from ixdcl.annotate import check_productive_sample
from ixdcl.families import (G1_TEXT, SQUARE_TEXT, counter_intersection_words,
                            g1_grammar, grammar_gn)
from ixdcl.grammar import grammar_from_text
from ixdcl.monoid import ZERO, StackMonoid
from ixdcl.nfa import (INFINITE, Nfa, cfg_dcl_nfa, longest_word_or_infinite,
                       nfa_equivalence, nfa_inclusion, nfa_member)
from ixdcl.oracle import (OracleBudget, Term, dcl_member_oracle,
                          term_language_dp)
from ixdcl.pipeline import run_pipeline
from ixdcl.summaries import SummaryFactory, build_summary_graph
from cfg_reference import (cfg_bounded_words, cfg_dcl_bounded,
                           numbered_cfg)
from test_nfa import random_cfg
from derivation_reference import term_reachable, term_routes
from nfa_reference import add_state
from summary_helpers import phi, summary_key, top_letter, validate_summary
from test_annotate import annotate_stack

MUT1_TEXT = G1_TEXT.replace('B -> "ab"', 'B -> "ba"\nB -> "b"')
MUT2_TEXT = SQUARE_TEXT.replace("B - g -> b", "B - g -> a b")


def words_upto(alphabet, k):
    return ["".join(t) for n in range(k + 1)
            for t in itertools.product(sorted(alphabet), repeat=n)]


def ok(msg):
    print(f"PASS: {msg}")


def test_criterion_01_nfa_membership_matches_oracle(fixtures):
    """The pipeline NFA and the closure oracle agree on all words <= 6."""
    runs = {name: (st.grammar, st.analysis, st.nfa)
            for name, st in fixtures.items()}
    for name, text in (("mut1", MUT1_TEXT), ("mut2", MUT2_TEXT)):
        res = run_pipeline(grammar_from_text(text))
        runs[name] = (res.grammar, res.analysis, res.nfa)
    budget = OracleBudget(64, 9, 500000)
    checked = 0
    for name, (g, an, nfa) in runs.items():
        for w in words_upto(g.symbols.terminals, 6):
            member, _ = dcl_member_oracle(g, w, budget,
                                          emptiness=an.term_empty)
            assert nfa_member(nfa, w) == member, (name, w)
            checked += 1
    ok(f"criterion 1: NFA vs oracle agreement on {checked} words "
       f"across {len(runs)} grammars")


def test_criterion_02_square_closure_is_astar_bstar(square):
    """The a^n b^(n^2) example has downward closure exactly a* b*."""
    expect = Nfa(frozenset("ab"))
    p, q = add_state(expect), add_state(expect)
    expect.initial, expect.final = {p}, {q}
    expect.add_edge(p, "a", p)
    expect.add_edge(p, None, q)
    expect.add_edge(q, "b", q)
    nfa = run_pipeline(square.grammar).nfa
    equal, cex = nfa_equivalence(nfa, expect)
    assert equal, cex
    ok("criterion 2: closure of the square example is exactly a*b*")


def test_criterion_03_lower_bound_family_blowup():
    """The coupled-counter family generates a^(2^(2^n)) words."""
    g1 = grammar_gn(1)
    an1 = Analysis(g1)
    dp = term_language_dp(g1, OracleBudget(20, 3, 100000),
                          emptiness=an1.term_empty)
    assert dp.complete
    assert dp.table[(g1.start, ())] == frozenset({"a" * 16})
    g2 = grammar_gn(2)
    an2 = Analysis(g2)
    dp2 = term_language_dp(g2, OracleBudget(70000, 5, 100000),
                           emptiness=an2.term_empty, lengths=True)
    assert dp2.complete
    assert dp2.table[(g2.start, ())] == frozenset({65536})
    ok("criterion 3: lower-bound family yields a^16 (n=1) and "
       "a^65536 (n=2)")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_04_counter_intersection_unique(n):
    """The n counter DFAs accept exactly one common word, of length 2^n-1."""
    words = counter_intersection_words(n)
    assert len(words) == 1
    assert len(words[0]) == 2 ** n - 1
    ok(f"criterion 4: counter intersection unique for n={n} "
       f"(length {2 ** n - 1})")


def test_criterion_05_monoid_soundness(fixtures):
    """phi is a morphism and its values match derivation-level semantics."""
    rng = random.Random(0)
    # (a) morphism law on random words
    for st in fixtures.values():
        m = st.monoid
        letters = sorted(m.gens, key=str)
        for _ in range(1000):
            w1 = tuple(rng.choice(letters) for _ in range(rng.randrange(4)))
            w2 = tuple(rng.choice(letters) for _ in range(rng.randrange(4)))
            assert phi(m, w1 + w2) == m.product(phi(m, w1), phi(m, w2))
    # (b) non-zero image iff the stack occurs in some derivation
    for st in fixtures.values():
        g, an, m = st.grammar, st.analysis, st.monoid
        ag = st.annotated.grammar
        letters = sorted(st.annotated.letters, key=str)
        for length in range(1, 4):
            for zbar in itertools.product(letters, repeat=length):
                feasible = phi(m, zbar) is not ZERO
                f_top, x_top = zbar[0]
                f_bot, x_bot = zbar[-1]
                start = Term((g.alpha(f_bot), x_bot), ())
                goal = Term((g.beta(f_top), an.act(f_top, x_top)), zbar)
                found = term_reachable(ag, start, goal, length + 3)
                assert found == feasible, zbar
    # (c) segment endpoints and focus matrices match derivations
    for st in fixtures.values():
        g, an, m = st.grammar, st.analysis, st.monoid
        ag = st.annotated.grammar
        syms = sorted(g.symbols.stack_symbols)
        nts = sorted(g.symbols.nonterminals)
        for length in range(1, 3):
            for z in itertools.product(syms, repeat=length):
                for x_set in an.universe():
                    zbar = annotate_stack(z, x_set, an)
                    if any(l not in st.annotated.letters for l in zbar):
                        continue
                    v = phi(m, zbar)
                    if v is ZERO:
                        continue
                    rx, ry = an.reach(x_set), an.reach(v.y)
                    for c in sorted(x_set):
                        for d in sorted(v.y):
                            pred = (c, v.a) in rx and (v.b, d) in ry
                            found = term_reachable(
                                ag, Term((c, x_set), ()),
                                Term((d, v.y), zbar), length + 3)
                            assert found == pred, (z, c, d)
                    for d in nts:
                        for c in nts:
                            pred = (d, c) in v.m
                            found = term_routes(g, x_set, Term(d, z),
                                                Term(c, ()), length + 3)
                            assert found == pred, (z, d, c)
    ok("criterion 5: monoid morphism, feasibility, endpoints and focus "
       "matrices all match derivation semantics")


def test_criterion_06_summary_invariants(fixtures):
    """Summaries stay bounded, preserve phi, and push/pop invert."""
    for st in fixtures.values():
        m, gr = st.monoid, st.graph
        for (src, letter), tgt in gr.edges.items():
            assert tgt.phi is m.product(m.gens[letter], src.phi)
            assert src in gr.pop(letter, tgt)
            assert top_letter(tgt) == letter
        for sigma in gr.nodes:
            assert validate_summary(st.factory, sigma) == []
        # rebuilding is deterministic
        m2 = StackMonoid(st.analysis, st.annotated.letters)
        gr2 = build_summary_graph(SummaryFactory(m2), st.annotated.letters)
        assert list(map(summary_key, gr2.nodes)) == \
            list(map(summary_key, gr.nodes))
    # the single-loop example plateaus at 10 nodes of size <= 9
    loop = fixtures["loop"].graph
    assert len(loop.nodes) == 10
    assert max(s.size for s in loop.nodes) == 9
    # phi is preserved along any push word up to length 40
    factory, (letter,) = (fixtures["loop"].factory,
                          sorted(fixtures["loop"].annotated.letters))
    sigma = factory.empty
    for k in range(1, 41):
        sigma = factory.push_letter(letter, sigma)
        assert sigma.phi is phi(fixtures["loop"].monoid, (letter,) * k)
    ok("criterion 6: summary graphs bounded, deterministic, "
       "phi-preserving, push/pop inverse")


def test_criterion_07_cover_language(fixtures):
    """The CFG cover contains the indexed language and has its closure."""
    for name, st in fixtures.items():
        an = st.analysis
        dp = term_language_dp(st.grammar, OracleBudget(6, 6, 500000),
                              emptiness=an.term_empty)
        cover = cfg_bounded_words(st.cfg_trimmed, 6)
        for w in dp.table[(st.grammar.start, ())]:
            assert w in cover, (name, w)
        closure = cfg_dcl_bounded(st.cfg_trimmed, 6)
        budget = OracleBudget(64, 9, 500000)
        for w in words_upto(st.grammar.symbols.terminals, 6):
            member, _ = dcl_member_oracle(st.grammar, w, budget,
                                          emptiness=an.term_empty)
            assert (w in closure) == member, (name, w)
    ok("criterion 7: CFG cover contains the language and matches its "
       "closure up to length 6")


def test_criterion_08_cfg_closure_construction():
    """cfg_dcl_nfa is exact on random and canonical context-free inputs."""
    allw = words_upto("ab", 8)
    rng = random.Random(0)
    for i in range(50):
        cfg = random_cfg(rng)
        nfa = cfg_dcl_nfa(cfg)
        expect = cfg_dcl_bounded(cfg, 8)
        got = {w for w in allw if nfa_member(nfa, w)}
        assert got == expect, (i, cfg.rules)
    canonical = [
        # a^n b^n
        numbered_cfg(["S", "T", "A", "B"], "ab",
                     [("S", (), ""), ("S", ("A", "T")),
                      ("T", ("S", "B")), ("A", (), "a"),
                      ("B", (), "b")]),
        # S -> S S | a
        numbered_cfg(["S"], "a", [("S", ("S", "S")), ("S", (), "a")]),
        # finite
        numbered_cfg(["S"], "ab", [("S", (), "abab")]),
    ]
    for cfg in canonical:
        nfa = cfg_dcl_nfa(cfg)
        expect = cfg_dcl_bounded(cfg, 8)
        got = {w for w in words_upto(cfg.terminals, 8)
               if nfa_member(nfa, w)}
        assert got == expect
    ok("criterion 8: closure NFA exact on 50 random + 3 canonical CFGs")


def test_criterion_09_annotation_productive(fixtures):
    """Sampled derivations of the annotated grammar stay productive."""
    total = 0
    for st in fixtures.values():
        report = check_productive_sample(st.annotated, depth=8,
                                         samples=200, seed=0)
        assert report["violations"] == []
        total += report["terms_checked"]
    ok(f"criterion 9: 0 productiveness violations in {total} sampled terms")


def test_criterion_10_j_length_bound(fixtures):
    """The regular J-length obeys the quadratic bound in |N|."""
    for name, st in fixtures.items():
        n = len(st.grammar.symbols.nonterminals)
        bound = (n * n + n + 2) // 2 + 2
        assert st.monoid.j_length() <= bound, name
    ok("criterion 10: monoid J-length within (N^2+N+2)/2 + 2 on all "
       "fixtures")


def test_criterion_11_closure_comparison(fixtures):
    """Inclusion and equivalence verdicts with shortest counterexamples."""
    n_g1 = run_pipeline(fixtures["g1"].grammar).nfa
    n_sq = run_pipeline(fixtures["square"].grammar).nfa
    holds, cex = nfa_inclusion(n_g1, n_sq)
    assert holds and cex is None
    holds, cex = nfa_inclusion(n_sq, n_g1)
    assert not holds and cex == "aa"
    equal, cex = nfa_equivalence(n_g1, run_pipeline(g1_grammar()).nfa)
    assert equal and cex is None
    ok("criterion 11: subset/equal verdicts correct, shortest "
       "counterexample 'aa'")


def test_criterion_12_lower_bound_pipeline():
    """The full pipeline handles the n=1 lower-bound grammar exactly."""
    try:
        result = run_pipeline(grammar_gn(1))
    except CapExceeded as exc:
        pytest.fail(f"pipeline cap exceeded on the n=1 family: {exc}")
    assert longest_word_or_infinite(result.nfa) == 16
    assert nfa_member(result.nfa, "a" * 16)
    assert not nfa_member(result.nfa, "a" * 17)
    ok("criterion 12: pipeline closure of the n=1 family is exactly "
       "subwords of a^16")
