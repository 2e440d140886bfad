"""Parsing into the four kinds, push labeling, validation and printing."""

import hashlib
import random
import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from ixdcl.analysis import CapExceeded
from ixdcl.cli import main
from ixdcl.families import (G1_TEXT, G_LOOP_TEXT, SQUARE_TEXT, grammar_gn,
                            grammar_gn_text)
from ixdcl.grammar import (BinaryRule, GrammarError, IndexedGrammar, PopRule,
                           PushRule, SymbolTable, TerminalRule,
                           grammar_from_text, sort_key)
from ixdcl.nfa import _antichain
from ixdcl.oracle import OracleBudget
from ixdcl.pipeline import PipelineCaps, run_pipeline
from corpus import (CAPPED_TEXTS, EMPTY_TEXT, PARITY_TEXT, RANDOM_361_TEXT,
                    SAME_LEVEL_TEXT)
from derivation_reference import enumerate_words
from generated_grammars import (draw_grammar, generated_stages, render,
                                small_grammars)
from grammar_helpers import validate


def _sym_str(s):
    return s if isinstance(s, str) else repr(s)


def print_grammar(g):
    """Render an IndexedGrammar in the textual format (parse round-trips)."""
    lines = [f"start {_sym_str(g.start)}"]
    if g.symbols.terminals:
        lines.append("terminals " +
                     " ".join(sorted(map(_sym_str, g.symbols.terminals))))
    if g.symbols.stack_symbols:
        lines.append("stack " +
                     " ".join(sorted(map(_sym_str, g.symbols.stack_symbols))))
    for p in g.productions:
        if isinstance(p, TerminalRule):
            lines.append(f'{_sym_str(p.lhs)} -> "{p.word}"')
        elif isinstance(p, BinaryRule):
            lines.append(f"{_sym_str(p.lhs)} -> {_sym_str(p.left)} "
                         f"{_sym_str(p.right)}")
        elif isinstance(p, PushRule):
            lines.append(f"{_sym_str(p.lhs)} -> {_sym_str(p.rhs)} + "
                         f"{_sym_str(p.sym)}")
        elif isinstance(p, PopRule):
            lines.append(f"{_sym_str(p.lhs)} - {_sym_str(p.sym)} -> "
                         f"{_sym_str(p.rhs)}")
        else:
            raise GrammarError(f"cannot print sugared production {p!r}")
    return "\n".join(lines) + "\n"


def test_parse_g1_structure():
    g = grammar_from_text(G1_TEXT)
    assert g.start == "S"
    assert g.symbols.terminals == frozenset("ab")
    assert g.symbols.stack_symbols == frozenset(["f"])
    assert g.symbols.nonterminals == frozenset(["S", "A", "B"])
    assert g.productions == (PushRule("S", "A", "f"), PopRule("A", "f", "B"),
                             TerminalRule("B", "ab"))


def test_parse_comments_and_blank_lines():
    text = G1_TEXT.replace("stack f", "stack f  # the only stack symbol\n")
    g = grammar_from_text(text)
    assert g.symbols.stack_symbols == frozenset(["f"])


def test_parse_errors():
    for text, message in [
            ('terminals a\nS -> "a"\n', "missing start line"),
            ('start S\nterminals a\nS -> "b"\n',
             """letter 'b' in "b" is not a terminal"""),
            ('start S\nterminals a\nS -> T "a"\n', "undeclared symbol 'T'"),
            ("start S\nstack f\nS -> S + g\n", "undeclared stack symbol 'g'"),
            ("start S\nS - f\n", "malformed rule: 'S - f'"),   # no arrow
            ('start S\ndfa D { states q;\nS -> ""\n',
             "unterminated dfa block"),
            ("start S\ndfa {}\n", "malformed dfa header"),    # unnamed
            ("start S\ndfa D { states q; init; }\n",     # init, no state
             "malformed dfa clause: ' init'"),
            ("start S\ndfa D }\n", "malformed dfa header")]:  # no open brace
        with pytest.raises(GrammarError, match=re.escape(message)):
            grammar_from_text(text)


def test_dfa_block_over_several_lines():
    # a block left open on its first line closes on the line of its brace
    rules = ('start S\nterminals a\nstack f\nS -> T + f\nT -> T check D\n'
             'T -> "a"\n')
    one = "dfa D { states q0 q1; init q0; final q1; q0 f q1; }\n"
    many = ("dfa D {\n  states q0 q1;  # two states\n\n  init q0;\n"
            "  final q1; q0 f q1;\n}\n")
    g, again = (grammar_from_text(rules + block) for block in (one, many))
    assert g == again
    assert PopRule("E.D.q0", "f", "E.D.q1") in g.productions
    assert TerminalRule("E.D.q1", "") in g.productions


def test_desugar_core_kinds_only():
    g = grammar_from_text(SQUARE_TEXT)
    for p in g.productions:
        assert isinstance(p, (TerminalRule, BinaryRule, PushRule, PopRule))


def test_desugar_mixed_rhs_preserves_language():
    # C -> a A B turns into a binary chain spelling the same word shape
    g = grammar_from_text(
        "start S\nterminals a b\nstack f\n"
        "S -> T + f\nT - f -> U\nU -> a V b\nV -> \"ab\"\n")
    res = enumerate_words(g, OracleBudget(8, 4, 50000))
    assert res.complete
    assert res.words == {"aabb"}


def test_desugar_unit_elimination_copies_rules():
    # S -> A as a unit: S inherits A's productions, no helper nonterminal
    g = grammar_from_text(
        "start S\nterminals a\nstack f\nS -> A\nA -> \"a\"\n")
    assert TerminalRule("S", "a") in g.productions
    assert g.symbols.nonterminals == frozenset(["S", "A"])


def test_desugar_unit_chain_transitive():
    g = grammar_from_text(
        "start S\nterminals a\nstack f\nS -> A\nA -> B\nB -> \"a\"\n")
    assert TerminalRule("S", "a") in g.productions
    assert TerminalRule("A", "a") in g.productions


def test_pop_sugar_general_rhs():
    g = grammar_from_text(
        "start S\nterminals a b\nstack f\n"
        "S -> T + f\nT - f -> a T b\nT -> \"\"\n")
    res = enumerate_words(g, OracleBudget(6, 4, 50000))
    assert {"", "ab"} <= res.words
    assert all(w.count("a") == w.count("b") for w in res.words)


def test_label_pushes_splits_shared_symbol():
    g = grammar_from_text(
        "start S\nterminals a\nstack f\n"
        "S -> A + f\nS -> B + f\nA - f -> T\nB - f -> T\nT -> \"a\"\n")
    assert g.symbols.stack_symbols == frozenset(["f.1", "f.2"])
    # every split copy has exactly one push rule and inherits all pops
    for sym in g.symbols.stack_symbols:
        pushes = [p for p in g.productions
                  if isinstance(p, PushRule) and p.sym == sym]
        pops = [p for p in g.productions
                if isinstance(p, PopRule) and p.sym == sym]
        assert len(pushes) == 1
        assert len(pops) == 2
        assert g.alpha(sym) == pushes[0].lhs
        assert g.beta(sym) == pushes[0].rhs
    assert not validate(g)


def test_label_pushes_drops_unpushed_symbols():
    g = grammar_from_text(
        "start S\nterminals a\nstack f g\n"
        "S -> S + f\nS - g -> S\nS -> \"a\"\n")
    assert g.symbols.stack_symbols == frozenset(["f"])
    assert all(p.sym == "f" for p in g.productions
               if isinstance(p, (PushRule, PopRule)))


def test_validate_clean_fixtures():
    for text in (G1_TEXT, SQUARE_TEXT):
        assert validate(grammar_from_text(text)) == []


def test_validate_reports_problems():
    g = grammar_from_text(G1_TEXT)
    broken = type(g)(g.symbols, "Nope", g.productions, g.push_labels)
    problems = validate(broken)
    assert any("start symbol" in p for p in problems)


def test_print_parse_round_trip(fixtures, gn_nfas):
    for text in (G1_TEXT, SQUARE_TEXT):
        g = grammar_from_text(text)
        again = grammar_from_text(print_grammar(g))
        assert again.start == g.start
        assert again.symbols == g.symbols
        assert set(again.productions) == set(g.productions)
        assert again.push_labels == g.push_labels
    # metamorphic: the printed grammar has the same closure; the helper
    # names of the desugared grammars (W0.3, E.A1.z, ...) hold dots
    closures = [(st_.grammar, st_.nfa) for st_ in fixtures.values()]
    closures += [(grammar_gn(n), nfa) for n, nfa in gn_nfas.items()]
    for g, nfa in closures:
        again = grammar_from_text(print_grammar(g))
        assert run_pipeline(again).nfa.ideals == nfa.ideals


def test_check_rule_desugars_to_dfa_gadget():
    # a check rule against a one-letter DFA: the stack must read "f" as a
    # prefix for the gadget branch to produce a word
    text = ("start S\nterminals a\nstack f\n"
            "dfa D { states q0 q1; init q0; final q1; q0 f q1; }\n"
            "S -> T + f\nT -> U check D\nU -> \"a\"\n")
    g = grammar_from_text(text)
    assert not validate(g)
    res = enumerate_words(g, OracleBudget(4, 4, 50000))
    assert res.complete
    assert res.words == {"a"}


def test_check_rule_blocks_rejected_stack():
    # same gadget, but the stack under the check never satisfies the DFA
    text = ("start S\nterminals a\nstack f g\n"
            "dfa D { states q0 q1; init q0; final q1; q0 f q1; }\n"
            "S -> T + g\nT -> U check D\nU -> \"a\"\nS - f -> S\n")
    g = grammar_from_text(text)
    res = enumerate_words(g, OracleBudget(4, 4, 50000))
    assert res.complete
    assert res.words == set()


def test_check_rule_over_a_long_chain_dfa():
    # 1500 states in a row: desugaring walks the DFA without recursion
    n = 1500
    states = " ".join(f"q{i}" for i in range(n))
    moves = " ".join(f"q{i} f q{i + 1};" for i in range(n - 1))
    text = ("start S\nterminals a\nstack f\n"
            f"dfa D {{ states {states}; init q0; final q{n - 1}; {moves} }}\n"
            "S -> T + f\nT -> U check D\nU -> \"a\"\n")
    g = grammar_from_text(text)
    assert not validate(g)
    chain = [(p.lhs, p.rhs) for p in g.productions
             if isinstance(p, PopRule) and p.lhs.startswith("E.D.")]
    assert chain == [(f"E.D.q{i}", f"E.D.q{i + 1}") for i in range(n - 1)]
    assert TerminalRule(f"E.D.q{n - 1}", "") in g.productions


def fingerprint(texts):
    """A sha256 over what `grammar_from_text` makes of each text: the
    start symbol, the sorted symbol sets, the productions in order and
    the push labels.  Nothing in it follows hash order, so it is the
    same under every PYTHONHASHSEED."""
    digest = hashlib.sha256()
    for text in texts:
        g = grammar_from_text(text)
        syms = g.symbols
        digest.update(repr((
            g.start, sorted(syms.nonterminals), sorted(syms.terminals),
            sorted(syms.stack_symbols), g.productions,
            sorted(g.push_labels.items()))).encode())
    return digest.hexdigest()


def test_parsed_grammars_keep_their_fingerprint():
    # names, rule order and push labels drive sort_key order, summary
    # numbering and the goldens, so a change to the front end keeps them
    texts = [G1_TEXT, G_LOOP_TEXT, SQUARE_TEXT, RANDOM_361_TEXT, PARITY_TEXT,
             SAME_LEVEL_TEXT, EMPTY_TEXT, *CAPPED_TEXTS.values()]
    texts += [grammar_gn_text(n) for n in (1, 2, 3)]
    for seed in range(200):
        rng = random.Random(seed)
        texts.append(render(draw_grammar(rng), rng))
    assert fingerprint(texts) == (
        "269f86233ce161eac2dbda3bb9530bfaf035e41c0ab24b7481f68b4c627bd410")


@given(small_grammars())
def test_print_parse_round_trip_random(g):
    again = grammar_from_text(print_grammar(g))
    assert again.start == g.start
    assert again.symbols == g.symbols
    assert set(again.productions) == set(g.productions)


def renamed(g, nt="N", sym="z"):
    """g with every nonterminal and stack symbol renamed, the names
    (nt or sym, then a number) sorting in the reverse of the old order."""
    name = {}
    for pool, prefix in ((g.symbols.nonterminals, nt),
                         (g.symbols.stack_symbols, sym)):
        old = sorted(pool, key=sort_key)
        name.update((x, f"{prefix}{len(old) - i:03d}")
                    for i, x in enumerate(old))

    def rename(p):
        return type(p)(**{f: getattr(p, f) if f == "word"
                          else name[getattr(p, f)] for f in p.__slots__})
    return IndexedGrammar(
        SymbolTable(frozenset(name[x] for x in g.symbols.nonterminals),
                    g.symbols.terminals,
                    frozenset(name[x] for x in g.symbols.stack_symbols)),
        name[g.start], tuple(map(rename, g.productions)),
        {name[f]: (name[a], name[b]) for f, (a, b) in g.push_labels.items()})


def with_unreachable(g):
    """g plus a nonterminal that the start never reaches, with a terminal,
    a binary, a push and a pop rule and a stack symbol of its own."""
    u, h = "Unreached", "unreached"
    a = min(g.symbols.terminals, key=sort_key)
    syms = g.symbols
    return IndexedGrammar(
        SymbolTable(syms.nonterminals | {u}, syms.terminals,
                    syms.stack_symbols | {h}),
        g.start,
        g.productions + (TerminalRule(u, a), BinaryRule(u, u, g.start),
                         PushRule(u, u, h), PopRule(u, h, g.start)),
        {**g.push_labels, h: (u, u)})


METAMORPHIC = [renamed, with_unreachable]


@pytest.mark.parametrize("change", METAMORPHIC)
def test_closure_survives_metamorphic_change(fixtures, change):
    for st_ in fixtures.values():
        g = change(st_.grammar)
        assert validate(g) == []
        assert run_pipeline(g).nfa.ideals == st_.nfa.ideals


@settings(deadline=None)
@given(small_grammars())
def test_closure_survives_metamorphic_change_on_generated_grammars(g):
    out = generated_stages(g)
    if out is None:
        return
    for change in METAMORPHIC:
        changed = change(g)
        assert validate(changed) == []
        assert run_pipeline(changed).nfa.ideals == out[-1].ideals


def joined(g1, g2):
    """S0 -> S1 | S2 over g1 and g2 renamed apart, through the parser.
    Every nonterminal, the DFA gadgets' among them, and every stack
    symbol gets a new name, so the two grammars share only terminals."""
    left, right = renamed(g1, "L", "l"), renamed(g2, "R", "r")
    both = IndexedGrammar(
        SymbolTable(left.symbols.nonterminals | right.symbols.nonterminals
                    | {"S0"},
                    left.symbols.terminals | right.symbols.terminals,
                    left.symbols.stack_symbols | right.symbols.stack_symbols),
        "S0", left.productions + right.productions)
    return grammar_from_text(print_grammar(both) +
                             f"S0 -> {left.start}\nS0 -> {right.start}\n")


def test_union_closure_is_the_maximal_ideals_of_both(fixtures, gn_nfas):
    closures = [(st_.grammar, st_.nfa.ideals) for st_ in fixtures.values()]
    closures += [(grammar_gn(n), nfa.ideals) for n, nfa in gn_nfas.items()]
    for (g1, i1), (g2, i2) in combinations_with_replacement(closures, 2):
        g = joined(g1, g2)
        assert validate(g) == []
        assert run_pipeline(g).nfa.ideals == _antichain(i1 | i2)


@settings(deadline=None)
@given(small_grammars(), small_grammars())
def test_union_closure_on_generated_grammars(g1, g2):
    outs = [generated_stages(g) for g in (g1, g2, joined(g1, g2))]
    if None in outs:
        return
    i1, i2, union = (out[-1].ideals for out in outs)
    assert union == _antichain(i1 | i2)


# Inputs that the parser let through and a later step broke on: a
# multi-character terminal (split back into letters, so `a` became a
# nonterminal without rules), a declared stack symbol with the name of
# another symbol's copy, two DFA gadgets with one helper name, and a
# name that is both a nonterminal and a terminal.  A second start line
# or a second DFA of one name replaced the first without a word, text
# after a DFA block's closing brace was dropped, and a DFA that no rule
# used was never checked for undeclared letters.  Then one input for
# each of the parser's other checks on a rule or a DFA.  Each text
# comes with a fragment of its error message.
DFA_RULES = 'stack f\nS -> S check D\nS -> "a"\n'
BAD_TEXTS = {
    "long terminal": ('start S\nterminals ab c\n'
                      'S -> "abc" S\nS -> ""\n',
                      "terminal 'ab' is not a single character"),
    "copy name": ("start S\nterminals a\nstack f f.1\n"
                  "S -> A + f.1\nS -> B + f\nS -> B + f\n"
                  'A - f -> F\nF -> "a"\nB -> B\n',
                  "copy name 'f.1' of stack symbol 'f' is already a symbol"),
    "dfa helper": ("start S\nterminals a b\nstack f\n"
                   "dfa x { states y.z w; init y.z; final w; y.z f w; }\n"
                   "dfa x.y { states z; init z; final z; }\n"
                   'S -> B check x\nS -> A check x.y\nA -> "a"\n'
                   'B -> "b"\n',
                   "generated name 'E.x.y.z' is already a symbol"),
    "overlap": ('start S\nterminals S a\nS -> "a"\n',
                "'S' is both a nonterminal and a terminal"),
    "second start": ('start S\nstart T\nterminals a\nS -> "a"\nT -> ""\n',
                     "bad or repeated start line: 'start T'"),
    "second dfa": ("start S\nterminals a\nstack f\n"
                   "dfa D { states q; init q; final q; }\n"
                   "dfa D { states p; init p; }\n"
                   'S -> A check D\nA -> "a"\n',
                   "dfa D is declared twice"),
    "missing lhs": ('start S\nterminals a\nS -> "a"\n-> "a"\n',
                    "missing left-hand side"),
    "malformed lhs": ('start S\nterminals a\nS T -> "a"\n',
                      "malformed left-hand side"),
    "check pops": ("start S\nterminals a\nstack f\n"
                   "dfa D { states q; init q; final q; }\n"
                   'S - f -> S check D\nS -> "a"\n',
                   "check rule cannot pop"),
    "check without dfas": ('start S\nterminals a\nS -> S check\nS -> "a"\n',
                           "check rule without dfas"),
    "push pops": ('start S\nterminals a\nstack f\nS - f -> S + f\n'
                  'S -> "a"\n',
                  "push rule cannot pop"),
    "dfa clause": ("start S\nterminals a\n"
                   "dfa D { states q; init q; final q; q f; }\n" + DFA_RULES,
                   "malformed dfa clause: ' q f'"),
    "dfa init": ("start S\nterminals a\n"
                 "dfa D { states q; init p; final q; }\n" + DFA_RULES,
                 "dfa D: missing or undeclared init state"),
    "dfa final": ("start S\nterminals a\n"
                  "dfa D { states q; init q; final p; }\n" + DFA_RULES,
                  "dfa D: undeclared final state 'p'"),
    "dfa transition": ("start S\nterminals a\n"
                       "dfa D { states q; init q; q f p; }\n" + DFA_RULES,
                       "dfa D: undeclared state in transition"),
    "dfa trailing text": ("start S\nterminals a\n"
                          'dfa D { states q; init q; final q; } S -> "a"\n',
                          """dfa D: text after its closing brace: 'S -> "a"'"""),
    "dfa trailing line": ("start S\nterminals a\n"
                          "dfa D {\n  states q; init q;\n  final q;\n"
                          '} S -> "a"\n',
                          """dfa D: text after its closing brace: 'S -> "a"'"""),
    "dfa letter": ("start S\nterminals a\n"
                   "dfa D { states q; init q; final q; q g q; }\n" + DFA_RULES,
                   "dfa D: letter 'g' is not a stack symbol"),
    "unused dfa letter": ('start S\nterminals a\nstack f\nS -> "a"\n'
                          "dfa D { states q; init q; final q; q g q; }\n",
                          "dfa D: letter 'g' is not a stack symbol"),
    "dfa nondeterministic": ("start S\nterminals a\n"
                             "dfa D { states q p; init q; q f q; q f p; }\n"
                             + DFA_RULES,
                             "dfa D: nondeterministic on (q,f)"),
}


@pytest.mark.parametrize("name", sorted(BAD_TEXTS))
def test_bad_input_is_a_grammar_error(name, tmp_path, capsys):
    text, message = BAD_TEXTS[name]
    with pytest.raises(GrammarError, match=re.escape(message)):
        grammar_from_text(text)
    path = tmp_path / "bad.ix"
    path.write_text(text)
    for command in ("stats", "validate"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err


@st.composite
def grammar_texts(draw):
    """Texts in the grammar format, valid or not, made of its own pieces:
    the start, terminals and stack lines, DFA blocks, rules with `->`,
    `-`, `+` and `check`, quoted words, and dotted and multi-character
    names.  One text in four also draws names that clash with another
    symbol class or with a generated name."""
    clash = draw(st.integers(0, 3)) == 0

    def names(common, rare):
        return st.sampled_from(common + rare if clash else common)

    nts = names(["S", "A", "B"], ["W0.1", "E.x.y.z", "P.2", "a", "f"])
    terms = names(["a", "b"], ["ab", "S"])
    stacks = names(["f", "g"], ["f.1", "S", "a"])
    dfas = st.sampled_from(["x", "x.y"])
    states = st.sampled_from(["z", "y.z", "w"])
    word = st.text("abc", max_size=3).map(lambda w: f'"{w}"')
    rhs = st.lists(st.one_of(nts, terms, word), max_size=3).map(" ".join)
    lines = [f"start {draw(names(['S'], ['a', 'f']))}",
             "terminals " + " ".join(draw(st.lists(terms, min_size=1,
                                                   max_size=3))),
             "stack " + " ".join(draw(st.lists(stacks, min_size=1,
                                               max_size=3)))]
    for dfa in draw(st.lists(dfas, max_size=2)):
        moves = draw(st.dictionaries(st.tuples(states, stacks), states,
                                     max_size=3))
        clauses = ["states z y.z w", f"init {draw(states)}",
                   "final " + " ".join(draw(st.lists(states, max_size=2)))]
        clauses += [f"{p} {a} {q}" for (p, a), q in moves.items()]
        lines.append(f"dfa {dfa} {{ " + "; ".join(clauses) + "; }")
    for _ in range(draw(st.integers(1, 7))):
        lhs, kind = draw(nts), draw(st.integers(0, 3))
        if kind == 0:
            lines.append(f"{lhs} -> {draw(rhs)}")
        elif kind == 1:
            lines.append(f"{lhs} -> {draw(nts)} + {draw(stacks)}")
        elif kind == 2:
            lines.append(f"{lhs} - {draw(stacks)} -> {draw(rhs)}")
        else:
            checks = " ".join(draw(st.lists(dfas, min_size=1, max_size=2)))
            lines.append(f"{lhs} -> {draw(nts)} check {checks}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None)
@given(grammar_texts())
def test_parser_fuzz(text):
    # every text ends in a valid grammar or GrammarError, and the
    # pipeline on a grammar ends in a result or CapExceeded
    try:
        g = grammar_from_text(text)
    except GrammarError:
        return
    assert validate(g) == []
    try:
        run_pipeline(g, PipelineCaps(64, 64, 64, 2000))
    except CapExceeded:
        pass
