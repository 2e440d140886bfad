"""Parsing, desugaring, push labeling, validation and printing."""

import pytest
from hypothesis import given, strategies as st

from ixdcl.families import G1_TEXT, SQUARE_TEXT
from ixdcl.grammar import (BinaryRule, GrammarError, PopRule, PushRule,
                           TerminalRule, desugar, grammar_from_text,
                           label_pushes, parse_grammar, print_grammar,
                           validate)


def test_parse_g1_structure():
    sg = parse_grammar(G1_TEXT)
    assert sg.start == "S"
    assert sg.symbols.terminals == frozenset("ab")
    assert sg.symbols.stack_symbols == frozenset(["f"])
    assert sg.symbols.nonterminals == frozenset(["S", "A", "B"])
    assert len(sg.productions) == 3


def test_parse_comments_and_blank_lines():
    text = G1_TEXT.replace("stack f", "stack f  # the only stack symbol\n")
    sg = parse_grammar(text)
    assert sg.symbols.stack_symbols == frozenset(["f"])


def test_parse_errors():
    with pytest.raises(GrammarError):
        parse_grammar("terminals a\nS -> \"a\"\n")          # missing start
    with pytest.raises(GrammarError):
        parse_grammar("start S\nterminals a\nS -> \"b\"\n")  # undeclared letter
    with pytest.raises(GrammarError):
        parse_grammar("start S\nterminals a\nS -> T \"a\"\n")  # undeclared sym
    with pytest.raises(GrammarError):
        parse_grammar("start S\nstack f\nS -> S + g\n")      # undeclared stack
    with pytest.raises(GrammarError):
        parse_grammar("start S\nS - f\n")                    # no arrow
    with pytest.raises(GrammarError):
        parse_grammar("start S\ndfa D { states q;\nS -> \"\"\n")  # open block
    with pytest.raises(GrammarError):
        parse_grammar("start S\ndfa {}\n")                  # unnamed dfa
    with pytest.raises(GrammarError):
        parse_grammar("start S\ndfa D { states q; init; }\n")  # no init state
    with pytest.raises(GrammarError):
        parse_grammar("start S\ndfa D }\n")                 # no open brace


def test_desugar_core_kinds_only():
    g = desugar(parse_grammar(SQUARE_TEXT))
    for p in g.productions:
        assert isinstance(p, (TerminalRule, BinaryRule, PushRule, PopRule))


def test_desugar_mixed_rhs_preserves_language():
    # C -> a A B turns into a binary chain spelling the same word shape
    g = grammar_from_text(
        "start S\nterminals a b\nstack f\n"
        "S -> T + f\nT - f -> U\nU -> a V b\nV -> \"ab\"\n")
    from ixdcl.oracle import OracleBudget, enumerate_words
    res = enumerate_words(g, OracleBudget(8, 4, 50000))
    assert res.complete
    assert res.words == {"aabb"}


def test_desugar_unit_elimination_copies_rules():
    # S -> A as a unit: S inherits A's productions, no helper nonterminal
    g = desugar(parse_grammar(
        "start S\nterminals a\nstack f\nS -> A\nA -> \"a\"\n"))
    assert TerminalRule("S", "a") in g.productions
    assert g.symbols.nonterminals == frozenset(["S", "A"])


def test_desugar_unit_chain_transitive():
    g = desugar(parse_grammar(
        "start S\nterminals a\nstack f\nS -> A\nA -> B\nB -> \"a\"\n"))
    assert TerminalRule("S", "a") in g.productions
    assert TerminalRule("A", "a") in g.productions


def test_pop_sugar_general_rhs():
    g = grammar_from_text(
        "start S\nterminals a b\nstack f\n"
        "S -> T + f\nT - f -> a T b\nT -> \"\"\n")
    from ixdcl.oracle import OracleBudget, enumerate_words
    res = enumerate_words(g, OracleBudget(6, 4, 50000))
    assert {"", "ab"} <= res.words
    assert all(w.count("a") == w.count("b") for w in res.words)


def test_label_pushes_splits_shared_symbol():
    g = label_pushes(desugar(parse_grammar(
        "start S\nterminals a\nstack f\n"
        "S -> A + f\nS -> B + f\nA - f -> T\nB - f -> T\nT -> \"a\"\n")))
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
    g = label_pushes(desugar(parse_grammar(
        "start S\nterminals a\nstack f g\n"
        "S -> S + f\nS - g -> S\nS -> \"a\"\n")))
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


def test_print_parse_round_trip():
    for text in (G1_TEXT, SQUARE_TEXT):
        g = grammar_from_text(text)
        again = grammar_from_text(print_grammar(g))
        assert again.start == g.start
        assert again.symbols == g.symbols
        assert set(again.productions) == set(g.productions)
        assert again.push_labels == g.push_labels


def test_check_rule_desugars_to_dfa_gadget():
    # a check rule against a one-letter DFA: the stack must read "f" as a
    # prefix for the gadget branch to produce a word
    text = ("start S\nterminals a\nstack f\n"
            "dfa D { states q0 q1; init q0; final q1; q0 f q1; }\n"
            "S -> T + f\nT -> U check D\nU -> \"a\"\n")
    g = grammar_from_text(text)
    assert not validate(g)
    from ixdcl.oracle import OracleBudget, enumerate_words
    res = enumerate_words(g, OracleBudget(4, 4, 50000))
    assert res.complete
    assert res.words == {"a"}


def test_check_rule_blocks_rejected_stack():
    # same gadget, but the stack under the check never satisfies the DFA
    text = ("start S\nterminals a\nstack f g\n"
            "dfa D { states q0 q1; init q0; final q1; q0 f q1; }\n"
            "S -> T + g\nT -> U check D\nU -> \"a\"\nS - f -> S\n")
    g = grammar_from_text(text)
    from ixdcl.oracle import OracleBudget, enumerate_words
    res = enumerate_words(g, OracleBudget(4, 4, 50000))
    assert res.complete
    assert res.words == set()


@st.composite
def small_grammars(draw):
    """Random core grammars over fixed small symbol pools."""
    nts = ["S", "A", "B"]
    syms = ["f", "g"]
    # every nonterminal needs a rule so the printed form redeclares it
    rules = [TerminalRule(nt, "") for nt in nts]
    rules += [PushRule("S", draw(st.sampled_from(nts)), "f"),
              PushRule("A", draw(st.sampled_from(nts)), "g")]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 2))
        lhs = draw(st.sampled_from(nts))
        if kind == 0:
            rules.append(TerminalRule(lhs, draw(st.text("ab", max_size=3))))
        elif kind == 1:
            rules.append(BinaryRule(lhs, draw(st.sampled_from(nts)),
                                    draw(st.sampled_from(nts))))
        else:
            rules.append(PopRule(lhs, draw(st.sampled_from(syms)),
                                 draw(st.sampled_from(nts))))
    from ixdcl.grammar import IndexedGrammar, SymbolTable
    g = IndexedGrammar(
        SymbolTable(frozenset(nts), frozenset("ab"), frozenset(syms)),
        "S", tuple(rules))
    return label_pushes(g)


@given(small_grammars())
def test_print_parse_round_trip_random(g):
    again = grammar_from_text(print_grammar(g))
    assert again.start == g.start
    assert again.symbols == g.symbols
    assert set(again.productions) == set(g.productions)
