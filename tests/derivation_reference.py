"""Breadth-first derivation searches over indexed grammars, the
references for the key dynamic programs of `ixdcl.oracle` and for the
stack monoid.

`enumerate_words` searches sentential forms breadth-first and keeps one
witness derivation per word.  `term_reachable` and `term_routes` follow
one term's lineage, bounded by stack height; `term_routes` lets the
lineage enter a child of a binary rule only if its sibling reduces to a
context over terminal letters and empty-stack terms from a set X.

`RoundKeyDp` is the reference for the solver of the oracle's key
dynamic programs: it solves the same rules by rounds, as the oracle did
before its programs moved onto the worklist solver of `ixdcl.fixpoint`.
"""

import itertools
from collections import deque
from dataclasses import dataclass

from ixdcl.grammar import BinaryRule, PopRule, PushRule, TerminalRule
from ixdcl.oracle import (DpResult, Term, _DclDp, _LengthDp, _WordDp,
                          derive_successors, start_form)


@dataclass
class EnumerationResult:
    words: set
    complete: bool
    witnesses: dict   # word -> list of sentential forms, start to finish


def is_terminal_form(form):
    return all(isinstance(x, str) for x in form)


def form_word(form):
    return "".join(form)


def enumerate_words(g, budget, form=None, emptiness=None):
    """Breadth-first search over sentential forms.

    Collects every derivable terminal word of length <= max_word_len,
    with one witness derivation per word.  The completeness flag is
    dropped when a lossy prune happens: running out of steps, or cutting
    a push past max_stack_height whose target is not certified empty.
    """
    if form is None:
        form = start_form(g)
    seen = {form: None}
    queue = deque([form])
    words = {}
    complete = True
    steps = 0
    while queue:
        cur = queue.popleft()
        if steps >= budget.max_steps:
            complete = False
            break
        steps += 1
        for nxt in derive_successors(cur, g):
            if nxt in seen:
                continue
            letters = sum(1 for x in nxt if isinstance(x, str))
            if letters > budget.max_word_len:
                continue   # lossless: only yields words past the cap
            tall = [x for x in nxt if isinstance(x, Term)
                    and len(x.stack) > budget.max_stack_height]
            if tall:
                if not all(emptiness and emptiness(t.nt, t.stack)
                           for t in tall):
                    complete = False
                continue
            seen[nxt] = cur
            if is_terminal_form(nxt):
                w = form_word(nxt)
                if w not in words:
                    words[w] = nxt
            else:
                queue.append(nxt)
    witnesses = {}
    for w, end in words.items():
        trace = []
        f = end
        while f is not None:
            trace.append(f)
            f = seen[f]
        witnesses[w] = list(reversed(trace))
    return EnumerationResult(set(words), complete, witnesses)


def term_successors(term, g):
    """All terms a single term can rewrite to in one step.  Binary rules
    contribute both children: each appears in the successor form, and
    sibling context is unconstrained here."""
    out = []
    for p in g.productions:
        if p.lhs != term.nt:
            continue
        if isinstance(p, BinaryRule):
            out.append(Term(p.left, term.stack))
            out.append(Term(p.right, term.stack))
        elif isinstance(p, PushRule):
            out.append(Term(p.rhs, (p.sym,) + term.stack))
        elif isinstance(p, PopRule):
            if term.stack and term.stack[0] == p.sym:
                out.append(Term(p.rhs, term.stack[1:]))
    return out


def term_reachable(g, start, goal, max_height, max_steps=1000000):
    """Does some derivable sentential form contain `goal`, starting from
    the form (start,)?  Equivalent to term-lineage reachability; bounded
    by stack height, so the search space is finite and a False answer is
    conclusive whenever no derivation needs taller stacks."""
    seen = {start}
    queue = deque([start])
    steps = 0
    while queue and steps < max_steps:
        cur = queue.popleft()
        steps += 1
        if cur == goal:
            return True
        for nxt in term_successors(cur, g):
            if len(nxt.stack) <= max_height and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def context_table(g, X, max_height):
    """Bounded least fixpoint: which terms (A, stack), with stacks up to
    max_height, derive a form consisting only of terminal letters and
    empty-stack terms over X?"""
    syms = sorted(g.symbols.stack_symbols)
    stacks = [()]
    for h in range(1, max_height + 1):
        stacks.extend(tuple(p) for p in itertools.product(syms, repeat=h))
    by_lhs = {}
    for p in g.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    val = {}
    for A in g.symbols.nonterminals:
        for s in stacks:
            val[(A, s)] = (not s) and A in X
    changed = True
    while changed:
        changed = False
        for (A, s), cur in val.items():
            if cur:
                continue
            ok = False
            for p in by_lhs.get(A, ()):
                if isinstance(p, TerminalRule):
                    ok = True
                elif isinstance(p, BinaryRule):
                    ok = val[(p.left, s)] and val[(p.right, s)]
                elif isinstance(p, PushRule):
                    tall = (p.sym,) + s
                    ok = len(tall) <= max_height and val[(p.rhs, tall)]
                elif isinstance(p, PopRule):
                    ok = bool(s) and s[0] == p.sym and val[(p.rhs, s[1:])]
                if ok:
                    break
            if ok:
                val[(A, s)] = True
                changed = True
    return val


def term_routes(g, X, start, goal, max_height, max_steps=1000000):
    """Does start derive a form  u goal v  with u, v over terminal
    letters and empty-stack terms from X?  Bounded by stack height; at a
    binary rule the lineage may continue into a child only if its sibling
    reduces to such a context."""
    ctx = context_table(g, X, max_height)
    seen = {start}
    queue = deque([start])
    steps = 0
    while queue and steps < max_steps:
        cur = queue.popleft()
        steps += 1
        if cur == goal:
            return True
        nxts = []
        for p in g.productions:
            if p.lhs != cur.nt:
                continue
            if isinstance(p, BinaryRule):
                if ctx[(p.right, cur.stack)]:
                    nxts.append(Term(p.left, cur.stack))
                if ctx[(p.left, cur.stack)]:
                    nxts.append(Term(p.right, cur.stack))
            elif isinstance(p, PushRule):
                nxts.append(Term(p.rhs, (p.sym,) + cur.stack))
            elif isinstance(p, PopRule):
                if cur.stack and cur.stack[0] == p.sym:
                    nxts.append(Term(p.rhs, cur.stack[1:]))
        for nxt in nxts:
            if len(nxt.stack) <= max_height and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


class RoundKeyDp:
    """The key dynamic program solved by rounds.  Each round rescans
    every key in the order the keys were made; the solve ends when a
    round changes no value and makes no key.  More rounds then spread
    incompleteness from the keys that pruned a push to every key that
    reads one.  The value domain (the terminal values and the
    concatenation), the budget and the emptiness certificate come from
    the oracle's program `domain`; its solver is not used."""

    def __init__(self, domain, g):
        self.domain = domain
        self.budget = domain.budget
        self.emptiness = domain.emptiness
        self.val = {}
        self.deps = {}     # key -> set of keys it reads
        self.pruned = {}   # key -> True if it lossily pruned a push
        self.by_lhs = {}
        for p in g.productions:
            self.by_lhs.setdefault(p.lhs, []).append(p)

    def seed(self, key):
        if key not in self.val:
            self.val[key] = frozenset()
            self.deps[key] = set()
            self.pruned[key] = False

    def solve(self, roots):
        for k in roots:
            self.seed(k)
        changed = True
        while changed:
            changed = False
            before = len(self.val)
            for key in list(self.val):
                new = self.step(key)
                if new != self.val[key]:
                    self.val[key] = new
                    changed = True
            if len(self.val) != before:
                changed = True
        # propagate incompleteness through dependencies
        bad = {k for k, p in self.pruned.items() if p}
        grow = True
        while grow:
            grow = False
            for k, ds in self.deps.items():
                if k not in bad and ds & bad:
                    bad.add(k)
                    grow = True
        return bad

    def step(self, key):
        nt, stack = key
        acc = set(self.val[key])
        for p in self.by_lhs.get(nt, ()):
            if isinstance(p, TerminalRule):
                acc.update(self.domain.terminal_values(p.word))
            elif isinstance(p, BinaryRule):
                a = self.read(key, (p.left, stack))
                b = self.read(key, (p.right, stack))
                acc |= self.domain.combine(a, b)
            elif isinstance(p, PushRule):
                tall = (p.sym,) + stack
                if len(tall) > self.budget.max_stack_height:
                    if not (self.emptiness and self.emptiness(p.rhs, tall)):
                        self.pruned[key] = True
                    continue
                acc |= self.read(key, (p.rhs, tall))
            elif isinstance(p, PopRule):
                if stack and stack[0] == p.sym:
                    acc |= self.read(key, (p.rhs, stack[1:]))
        return frozenset(acc)

    def read(self, src, key):
        self.seed(key)
        self.deps[src].add(key)
        return self.val[key]


def round_term_language_dp(g, budget, emptiness=None, lengths=False):
    """`term_language_dp` on the round-based solver."""
    domain = (_LengthDp if lengths else _WordDp)(g, budget, emptiness)
    dp = RoundKeyDp(domain, g)
    root = (g.start, ())
    bad = dp.solve([root])
    return DpResult(dict(dp.val), root not in bad, frozenset(bad))


def round_dcl_member_oracle(g, word, budget, emptiness=None):
    """`dcl_member_oracle` on the round-based solver."""
    domain = _DclDp(g, budget, emptiness, word)
    dp = RoundKeyDp(domain, g)
    root = (g.start, ())
    bad = dp.solve([root])
    return word in dp.val[root], root not in bad
