"""Breadth-first derivation searches over indexed grammars, the
references for the key dynamic programs of `ixdcl.oracle` and for the
stack monoid.

`enumerate_words` searches sentential forms breadth-first and keeps one
witness derivation per word.  `term_reachable` and `term_routes` follow
one term's lineage, bounded by stack height; `term_routes` lets the
lineage enter a child of a binary rule only if its sibling reduces to a
context over terminal letters and empty-stack terms from a set X.
"""

import itertools
from collections import deque
from dataclasses import dataclass

from ixdcl.grammar import BinaryRule, PopRule, PushRule, TerminalRule
from ixdcl.oracle import Term, derive_successors, start_form


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
