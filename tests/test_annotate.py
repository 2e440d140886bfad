"""The productive annotation: structure, stack threading, language, samples."""

import hashlib

from ixdcl.analysis import Analysis
from ixdcl.annotate import build_annotated
from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.grammar import grammar_from_text
from ixdcl.oracle import (OracleBudget, check_productive_sample,
                          term_language_dp)
from grammar_helpers import validate
from test_summaries import RANDOM_361_TEXT, canonical

# (nonterminals, letters, rules, sha256 prefix of annotated_fingerprint)
ANNOTATED_GOLDENS = {
    "g1": (3, 1, 3, "5ee6ba8969c18cda"),
    "loop": (2, 1, 5, "e21e01df7da265f5"),
    "square": (17, 2, 21, "c351ba6a355d7a53"),
    "G_1": (15, 5, 19, "b3e7a4b33c138c94"),
    "G_2": (30, 9, 42, "8f2d639f2d1ce970"),
    "random": (7, 3, 13, "07d4ef141edfcf4c"),
}


def annotated_fingerprint(ag):
    """Sizes and a digest of the annotated grammar as sets: its start
    symbol, nonterminals, letters, labels and rules, each rendered
    canonically and sorted, so that neither PYTHONHASHSEED nor the order
    in which the rules were found changes it."""
    g = ag.grammar
    rules = [canonical((type(r).__name__,)
                       + tuple(getattr(r, f) for f in r.__slots__))
             for r in g.productions]
    lines = ["start " + canonical(g.start)]
    lines += sorted("nt " + canonical(A) for A in g.symbols.nonterminals)
    lines += sorted("letter " + canonical(f) for f in ag.letters)
    lines += sorted(f"label {canonical(f)} {canonical(lab)}"
                    for f, lab in g.push_labels.items())
    lines += sorted("rule " + r for r in set(rules))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return (len(g.symbols.nonterminals), len(ag.letters), len(rules),
            digest[:16])


def test_annotated_g1_golden(g1):
    ag = g1.annotated
    assert len(ag.grammar.symbols.nonterminals) == 3
    assert len(ag.grammar.productions) == 3
    assert len(ag.letters) == 1
    useful = g1.analysis.useful()
    assert ag.grammar.start == ("S", useful)
    (letter,) = ag.letters
    assert letter == ("f", useful)


def test_annotated_shapes(fixtures):
    assert len(fixtures["loop"].annotated.grammar.productions) == 5
    sq = fixtures["square"].annotated
    assert len(sq.grammar.symbols.nonterminals) == 17
    assert len(sq.grammar.productions) == 21
    assert len(sq.letters) == 2


def test_annotated_fingerprint_goldens():
    grammars = {"g1": g1_grammar(), "loop": g_loop_grammar(),
                "square": square_grammar(), "G_1": grammar_gn(1),
                "G_2": grammar_gn(2),
                "random": grammar_from_text(RANDOM_361_TEXT)}
    assert {name: annotated_fingerprint(build_annotated(g, Analysis(g)))
            for name, g in grammars.items()} == ANNOTATED_GOLDENS


def test_annotated_is_valid_grammar(fixtures):
    for st_ in fixtures.values():
        assert validate(st_.annotated.grammar) == []


def test_annotated_nonterminals_are_self_productive(fixtures):
    # every annotated nonterminal (A, X) satisfies A in X
    for st_ in fixtures.values():
        for (A, X) in st_.annotated.grammar.symbols.nonterminals:
            assert A in X


def annotate_stack(z, X, analysis):
    """Annotate a stack word (topmost-first) with base annotation X."""
    out = []
    for f in reversed(z):
        out.append((f, X))
        X = analysis.act(f, X)
    return tuple(reversed(out))


def test_annotate_stack_threads_actions(square):
    an = square.analysis
    X = an.useful()
    z = ("f", "g")
    zbar = annotate_stack(z, X, an)
    assert len(zbar) == 2
    # bottom letter is annotated with the base set, the letter above it
    # with the action of the bottom letter
    assert zbar[1] == ("g", X)
    assert zbar[0] == ("f", an.act("g", X))


def test_annotate_stack_empty(g1):
    assert annotate_stack((), g1.analysis.useful(), g1.analysis) == ()


def test_language_preserved(fixtures):
    # bounded word sets of the annotated grammar equal those of the base
    budgets = {"g1": OracleBudget(6, 5, 200000),
               "loop": OracleBudget(6, 5, 200000),
               "square": OracleBudget(6, 5, 500000)}
    for name, st_ in fixtures.items():
        b = budgets[name]
        base = term_language_dp(st_.grammar, b)
        ann = term_language_dp(st_.annotated.grammar, b)
        assert base.table[(st_.grammar.start, ())] == \
            ann.table[(st_.annotated.grammar.start, ())]


def test_empty_language_annotation():
    g = grammar_from_text("start S\nterminals a\nstack f\nS -> S + f\n")
    an = Analysis(g)
    ag = build_annotated(g, an)
    assert ag.grammar.productions == ()


def test_productive_sample_clean(fixtures):
    for st_ in fixtures.values():
        report = check_productive_sample(st_.annotated, depth=8,
                                         samples=100, seed=0)
        assert report["violations"] == []
        assert report["terms_checked"] > 0
