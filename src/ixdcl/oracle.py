"""Brute-force derivation semantics for indexed grammars.

This module is the ground truth the rest of the package is tested
against.  It implements the one-step derivation relation directly on
sentential forms, random walks along it that check the productiveness
of an annotated grammar, a compositional dynamic program over
(nonterminal, stack) pairs, and a downward-closure membership oracle.
The programs are least fixpoints on the worklist solver of
`ixdcl.fixpoint`, the one the analysis runs on, where a key whose value
changed queues only its readers.  A key's value is a function of the
keys it reads, so each evaluation starts from the empty set.

The dynamic programs are bounded by the stack height and the word
length of an `OracleBudget`, and report whether they were complete: a
pruned stack push makes a result incomplete unless an `emptiness`
callback certifies that the pruned configuration generates the empty
language.  They do not read `max_steps`, which bounds step-counting
searches such as the breadth-first word enumeration that the tests
check these programs against.
"""

from __future__ import annotations

import random

from .analysis import Analysis
from .fixpoint import Solver
from .grammar import BinaryRule, PopRule, PushRule, Record, TerminalRule, _set


class Term(Record, frozen=True):
    """A nonterminal with its stack; stack[0] is the topmost symbol."""

    __slots__ = ("nt", "stack")

    def __init__(self, nt, stack):
        _set(self, "nt", nt)
        _set(self, "stack", stack)


class OracleBudget(Record, frozen=True):
    __slots__ = ("max_word_len", "max_stack_height", "max_steps")

    def __init__(self, max_word_len=8, max_stack_height=8, max_steps=100000):
        _set(self, "max_word_len", max_word_len)
        _set(self, "max_stack_height", max_stack_height)
        _set(self, "max_steps", max_steps)


class DpResult(Record):
    __slots__ = ("table", "complete", "incomplete_keys")

    def __init__(self, table, complete, incomplete_keys):
        self.table = table   # (nt, stack) -> frozenset of words (or lengths)
        self.complete = complete
        self.incomplete_keys = incomplete_keys


def start_form(g):
    return (Term(g.start, ()),)


def derive_successors(form, g):
    """All sentential forms reachable in one derivation step."""
    out = []
    for i, item in enumerate(form):
        if not isinstance(item, Term):
            continue
        pre, post = form[:i], form[i + 1:]
        for p in g.productions:
            if p.lhs != item.nt:
                continue
            if isinstance(p, TerminalRule):
                out.append(pre + tuple(p.word) + post)
            elif isinstance(p, BinaryRule):
                out.append(pre + (Term(p.left, item.stack),
                                  Term(p.right, item.stack)) + post)
            elif isinstance(p, PushRule):
                out.append(pre + (Term(p.rhs, (p.sym,) + item.stack),) + post)
            elif isinstance(p, PopRule):
                if item.stack and item.stack[0] == p.sym:
                    out.append(pre + (Term(p.rhs, item.stack[1:]),) + post)
    return out


def check_productive_sample(ag, depth=8, samples=200, seed=0):
    """Randomly walk derivations of the annotated grammar and verify that
    every nonterminal occurrence in every visited form is productive.

    Productiveness of a term (A, X)[annotated z] is checked exactly via a
    productiveness analysis of the annotated grammar itself.  Returns a
    report dict with the list of violating (form, term) pairs.
    """
    check = Analysis(ag.grammar)
    rng = random.Random(seed)
    violations = []
    checked = 0
    for _ in range(samples):
        form = start_form(ag.grammar)
        for _ in range(depth):
            for item in form:
                if isinstance(item, Term):
                    checked += 1
                    if check.term_empty(item.nt, item.stack):
                        violations.append((form, item))
            succ = derive_successors(form, ag.grammar)
            if not succ:
                break
            form = succ[rng.randrange(len(succ))]
    return {"samples": samples, "depth": depth, "seed": seed,
            "terms_checked": checked, "violations": violations}


def is_subword(u, v):
    """Scattered-subword order: u embeds into v preserving letter order."""
    it = iter(v)
    return all(c in it for c in u)


def subwords(w):
    """All distinct scattered subwords of w."""
    out = {""}
    for c in w:
        out |= {u + c for u in out}
    return out


# ---------------------------------------------------------------------------
# compositional dynamic programs over (nonterminal, stack) keys


class _KeyDp(Solver):
    """Demand-driven least fixpoint over (nonterminal, stack) keys."""

    def __init__(self, g, budget, emptiness):
        super().__init__()
        self.budget = budget
        self.emptiness = emptiness
        self.pruned = set()   # keys that lossily pruned a push
        self.by_lhs = {}
        for p in g.productions:
            self.by_lhs.setdefault(p.lhs, []).append(p)

    def _init(self, key):
        return frozenset()

    def _eval(self, key, old):
        nt, stack = key
        acc = set()
        for p in self.by_lhs.get(nt, ()):
            if isinstance(p, TerminalRule):
                acc.update(self.terminal_values(p.word))
            elif isinstance(p, BinaryRule):
                a = self._need((p.left, stack))
                b = self._need((p.right, stack))
                acc |= self.combine(a, b)
            elif isinstance(p, PushRule):
                tall = (p.sym,) + stack
                if len(tall) > self.budget.max_stack_height:
                    if not (self.emptiness and self.emptiness(p.rhs, tall)):
                        self.pruned.add(key)
                    continue
                acc |= self._need((p.rhs, tall))
            elif isinstance(p, PopRule):
                if stack and stack[0] == p.sym:
                    acc |= self._need((p.rhs, stack[1:]))
        return frozenset(acc)

    def incomplete(self, root):
        """Solve from root; return the keys that pruned a push and every
        key that reads one, directly or not."""
        self._solved(root)
        bad, todo = set(self.pruned), list(self.pruned)
        while todo:
            for r in self._readers[todo.pop()]:
                if r not in bad:
                    bad.add(r)
                    todo.append(r)
        return bad

    # value-domain hooks -----------------------------------------------
    def terminal_values(self, word):
        """The values a terminal rule with this word adds."""
        raise NotImplementedError

    def combine(self, a, b):
        raise NotImplementedError


class _WordDp(_KeyDp):
    def terminal_values(self, word):
        return (word,) if len(word) <= self.budget.max_word_len else ()

    def combine(self, a, b):
        cap = self.budget.max_word_len
        return {u + v for u in a for v in b if len(u) + len(v) <= cap}


class _LengthDp(_KeyDp):
    def terminal_values(self, word):
        return (len(word),) if len(word) <= self.budget.max_word_len else ()

    def combine(self, a, b):
        cap = self.budget.max_word_len
        return {x + y for x in a for y in b if x + y <= cap}


class _DclDp(_KeyDp):
    """Values are sets of scattered subwords of a fixed target word."""

    def __init__(self, g, budget, emptiness, target):
        super().__init__(g, budget, emptiness)
        self.domain = subwords(target)
        self.below = {}    # a terminal word -> its subwords in the domain

    def terminal_values(self, word):
        """The words of the domain that embed into word, found once."""
        if word not in self.below:
            self.below[word] = {u for u in self.domain
                                if is_subword(u, word)}
        return self.below[word]

    def combine(self, a, b):
        return {u + v for u in a for v in b if u + v in self.domain}


def term_language_dp(g, budget, emptiness=None, lengths=False):
    """Exact bounded language (or length) sets per (nonterminal, stack).

    Returns a DpResult whose table maps each key reached from the start
    key to the set of derivable terminal words (lengths when
    lengths=True) up to max_word_len.  Keys that lossily pruned a push,
    or depend on one, are reported incomplete.
    """
    root = (g.start, ())
    dp = (_LengthDp if lengths else _WordDp)(g, budget, emptiness)
    bad = dp.incomplete(root)
    return DpResult(dict(dp._val), root not in bad, frozenset(bad))


def dcl_member_oracle(g, word, budget, emptiness=None):
    """Does the downward closure of L(g) contain `word`?

    Computes, per (nonterminal, stack) key, the set of scattered
    subwords of `word` that embed into some derivable word.  Returns
    (member, complete); positive answers are always sound, a negative
    answer is only conclusive when complete is True.
    """
    root = (g.start, ())
    dp = _DclDp(g, budget, emptiness, word)
    bad = dp.incomplete(root)
    return word in dp._val[root], root not in bad
