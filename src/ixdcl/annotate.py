"""Productive annotation of indexed grammars.

Every nonterminal and stack symbol is annotated with the set of
nonterminals that must stay productive below it: nonterminals become
pairs (A, X) with A in X, stack symbols become pairs (f, X), and the
annotation of a stack threads the one-letter actions bottom-up.  The
resulting grammar generates the same language and every reachable
sentential form is productive.

Only nonterminals and stack letters reachable from the annotated start
symbol are materialized.
"""

from __future__ import annotations

from .grammar import (BinaryRule, IndexedGrammar, PopRule, PushRule, Record,
                      SymbolTable, TerminalRule)


class AnnotatedGrammar(Record):
    __slots__ = ("grammar",)

    def __init__(self, grammar):
        self.grammar = grammar   # symbols are (A, X) and (f, X) tuples

    @property
    def letters(self):
        return self.grammar.symbols.stack_symbols


def build_annotated(g, analysis):
    """The annotated grammar, restricted to its reachable part.

    Items (A, X) are scanned once each, in the order they are found from
    the start item.  A pop rule (B, f.X) -> (C, X) under the letter
    (f, X) needs both the letter and its item (B, f.X), so it is made
    when the later of the two appears: a scanned item takes the letters
    over its set known so far, and a new letter takes the items over its
    set scanned so far.
    """
    by_lhs = {}
    pops = {}   # (lhs, stack symbol) -> pop rules
    for p in g.productions:
        if isinstance(p, PopRule):
            pops.setdefault((p.lhs, p.sym), []).append(p)
        else:
            by_lhs.setdefault(p.lhs, []).append(p)
    start = (g.start, analysis.useful())
    items = [start] if g.start in start[1] else []
    seen = set(items)
    rules = {}    # a dict keeps the rules unique and in order
    labels = {}   # letter -> (item, child) of its push rule
    letters_over = {}   # Y -> letters (f, X) with f.X = Y
    scanned = {}        # Y -> items (B, Y) scanned so far

    def item(t):
        if t not in seen:
            seen.add(t)
            items.append(t)
        return t

    def pop(top, letter):
        for q in pops.get((top[0], letter[0]), ()):
            if q.rhs in letter[1]:
                rules[PopRule(top, letter, item((q.rhs, letter[1])))] = None

    for cur in items:   # items grows while it is scanned
        A, X = cur
        scanned.setdefault(X, []).append(cur)
        for letter in letters_over.get(X, ()):
            pop(cur, letter)
        for p in by_lhs.get(A, ()):
            if isinstance(p, TerminalRule):
                rules[TerminalRule(cur, p.word)] = None
            elif isinstance(p, BinaryRule):
                if p.left in X and p.right in X:
                    rules[BinaryRule(cur, item((p.left, X)),
                                     item((p.right, X)))] = None
            else:
                Y = analysis.act(p.sym, X)
                if p.rhs in Y:
                    child, letter = item((p.rhs, Y)), (p.sym, X)
                    if letter not in labels:
                        letters_over.setdefault(Y, []).append(letter)
                        for top in scanned.get(Y, ()):
                            pop(top, letter)
                    labels[letter] = (cur, child)
                    rules[PushRule(cur, child, letter)] = None

    table = SymbolTable(frozenset(items or [start]), g.symbols.terminals,
                        frozenset(labels))
    ag = IndexedGrammar(table, start, tuple(rules), labels)
    return AnnotatedGrammar(ag)
