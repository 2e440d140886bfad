"""Parsing, desugaring, push labeling, validation and printing."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from ixdcl.analysis import CapExceeded
from ixdcl.cli import main
from ixdcl.families import G1_TEXT, SQUARE_TEXT, grammar_gn
from ixdcl.grammar import (BinaryRule, GrammarError, IndexedGrammar, PopRule,
                           PushRule, SymbolTable, TerminalRule, desugar,
                           grammar_from_text, label_pushes, parse_grammar,
                           sort_key)
from ixdcl.nfa import _antichain
from ixdcl.pipeline import PipelineCaps, run_pipeline, stages
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
    from derivation_reference import enumerate_words
    from ixdcl.oracle import OracleBudget
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
    from derivation_reference import enumerate_words
    from ixdcl.oracle import OracleBudget
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
    from derivation_reference import enumerate_words
    from ixdcl.oracle import OracleBudget
    res = enumerate_words(g, OracleBudget(4, 4, 50000))
    assert res.complete
    assert res.words == {"a"}


def test_check_rule_blocks_rejected_stack():
    # same gadget, but the stack under the check never satisfies the DFA
    text = ("start S\nterminals a\nstack f g\n"
            "dfa D { states q0 q1; init q0; final q1; q0 f q1; }\n"
            "S -> T + g\nT -> U check D\nU -> \"a\"\nS - f -> S\n")
    g = grammar_from_text(text)
    from derivation_reference import enumerate_words
    from ixdcl.oracle import OracleBudget
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


@st.composite
def small_grammars(draw):
    """Random core grammars over fixed small symbol pools: a drawn set of
    nonterminals derive the empty word, S may push f and A may push g,
    and up to five more rules follow."""
    nts = ["S", "A", "B"]
    syms = ["f", "g"]
    rules = [TerminalRule(nt, "") for nt in nts if draw(st.booleans())]
    rules += [PushRule(lhs, draw(st.sampled_from(nts)), f)
              for lhs, f in (("S", "f"), ("A", "g")) if draw(st.booleans())]
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
    # every nonterminal needs a rule that outlives label_pushes (which
    # drops the pops of a symbol never pushed), so the printed form
    # redeclares it
    pushed = {p.sym for p in rules if isinstance(p, PushRule)}
    ruled = {p.lhs for p in rules
             if not isinstance(p, PopRule) or p.sym in pushed}
    rules += [TerminalRule(nt, draw(st.text("ab", min_size=1, max_size=3)))
              for nt in nts if nt not in ruled]
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


def generated_stages(g):
    """The stages of a small_grammars draw, or None for one of the few
    that exit at the summary cap; a lower cap keeps those exits cheap
    (the draws that finish have at most about 60 summaries)."""
    try:
        return list(stages(g, PipelineCaps(max_summaries=256)))
    except CapExceeded:
        return None


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
# or a second DFA of one name replaced the first without a word.
BAD_TEXTS = {
    "long terminal": ('start S\nterminals ab c\n'
                      'S -> "abc" S\nS -> ""\n'),
    "copy name": ("start S\nterminals a\nstack f f.1\n"
                  "S -> A + f.1\nS -> B + f\nS -> B + f\n"
                  'A - f -> F\nF -> "a"\nB -> B\n'),
    "dfa helper": ("start S\nterminals a b\nstack f\n"
                   "dfa x { states y.z w; init y.z; final w; y.z f w; }\n"
                   "dfa x.y { states z; init z; final z; }\n"
                   'S -> B check x\nS -> A check x.y\nA -> "a"\n'
                   'B -> "b"\n'),
    "overlap": 'start S\nterminals S a\nS -> "a"\n',
    "second start": 'start S\nstart T\nterminals a\nS -> "a"\nT -> ""\n',
    "second dfa": ("start S\nterminals a\nstack f\n"
                   "dfa D { states q; init q; final q; }\n"
                   "dfa D { states p; init p; }\n"
                   'S -> A check D\nA -> "a"\n'),
}


@pytest.mark.parametrize("name", sorted(BAD_TEXTS))
def test_bad_input_is_a_grammar_error(name, tmp_path, capsys):
    with pytest.raises(GrammarError):
        grammar_from_text(BAD_TEXTS[name])
    path = tmp_path / "bad.ix"
    path.write_text(BAD_TEXTS[name])
    for command in ("stats", "validate"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
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
