"""Context-free cover of an annotated indexed grammar via stack summaries.

Nonterminals of the CFG are triples (A, X, sigma): an annotated
nonterminal together with a summary of the stack below it, numbered when
first seen, the start triple 0.  `Cfg.rules[i]` lists the right-hand
sides of triple i, each a terminal word or a tuple of kid numbers: two
kids copy a binary rule of the annotated grammar at a fixed summary; one
kid is a push rule, which moves to the pushed summary, or a pop rule,
which moves to any push-preimage recorded in the summary graph.  A
nonterminal that reaches no push or pop rule through binary rules is
stack-blind: its rules are terminal or binary with stack-blind kids, so
it derives the same words on every stack, and it gets one triple, at the
empty summary, whatever summary it is asked for; the language does not
change.  It contains the indexed language and has the same downward
closure.

The cover is trim: every triple is reachable from the start and
productive, so no later stage decides either again.  `build_cfg`
numbers only triples it reaches from the start.  A reached triple
(A, X, sigma) has X equal to the annotation at the top of a real stack
whose summary is sigma: the start is (S, Useful) at the empty summary;
a binary rule keeps X and sigma; a push is taken only when it is
feasible; and a pop's preimage keeps the image's bottom annotation, so
the triples at the empty summary carry Useful.  A is in X, so A is
productive on that stack (see `annotate`), and the cover contains that
derivation.  A stack-blind triple moved to the empty summary derives
the same words on every stack.  The one exception is the empty
language, whose cover is the start triple without a rule.  The module
also holds Tarjan's `sccs`, which later stages share.
"""

from __future__ import annotations

from .analysis import CapExceeded
from .grammar import BinaryRule, PopRule, PushRule, Record, TerminalRule


class Cfg(Record):
    """Read-only once built: `trim_cfg` may return it."""

    __slots__ = ("nonterminals", "terminals", "rules")

    def __init__(self, nonterminals, terminals, rules):
        self.nonterminals = nonterminals   # the triples, nonterminal i at [i]
        self.terminals = terminals   # frozenset
        self.rules = rules   # rules[i]: the right-hand sides of nonterminal i

    def n_rules(self):
        return sum(map(len, self.rules))


def build_cfg(ag, graph, cap=None):
    """The context-free grammar over feasible (A, X, summary) triples.
    Raises CapExceeded as soon as there are more than cap triples."""
    g = ag.grammar
    by_lhs = {}   # pop rules last
    parents = {}  # nonterminal -> the lhs of the binary rules using it
    readers = []  # the lhs of push and pop rules, then their binary parents
    for p in sorted(g.productions, key=lambda p: isinstance(p, PopRule)):
        by_lhs.setdefault(p.lhs, []).append(p)
        if p.__class__ is BinaryRule:
            for kid in (p.left, p.right):
                parents.setdefault(kid, []).append(p.lhs)
        elif p.__class__ is not TerminalRule:
            readers.append(p.lhs)
    reads_stack = set(readers)
    for nt in readers:   # grows while it is read
        for lhs in parents.get(nt, ()):
            if lhs not in reads_stack:
                reads_stack.add(lhs)
                readers.append(lhs)
    empty = graph.nodes[0]
    triples, rules = [], []
    ids = {nt: {} for nt in g.symbols.nonterminals}   # -> {summary -> number}

    def number(nt, sigma):
        if nt not in reads_stack:   # stack-blind: one triple for every stack
            sigma = empty
        i = ids[nt].get(sigma)
        if i is None:
            i = ids[nt][sigma] = len(triples)
            triples.append((nt, sigma))
            if cap is not None and i >= cap:
                raise CapExceeded.of("cfg triple", i + 1, "triples", cap,
                                     "--max-triples")
        return i

    number(g.start, empty)
    for nt, sigma in triples:   # grows while it is read
        out = []
        for p in by_lhs.get(nt, ()):
            if p.__class__ is TerminalRule:
                out.append(p.word)
            elif p.__class__ is BinaryRule:
                out.append((number(p.left, sigma), number(p.right, sigma)))
            elif p.__class__ is PushRule:
                tgt = graph.push(p.sym, sigma)
                if tgt is not None:
                    out.append((number(p.rhs, tgt),))
            else:
                srcs = graph.pop(p.sym, sigma)
                if p.rhs not in reads_stack:   # every source gives one kid
                    srcs = srcs[:1]
                out += [(number(p.rhs, src),) for src in srcs]
        rules.append(out)
    return Cfg(triples, g.symbols.terminals, rules)


def sccs(adj, roots):
    """Tarjan's strongly connected components of the graph on 0..n-1
    whose successors of v are adj[v], from the given roots, without
    recursion.  Each component is emitted after every component it
    reaches.  Emitted nodes get index n, so no on-stack flag is kept."""
    n = len(adj)
    index, low = [-1] * n, [0] * n
    stack, out, counter = [], [], 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return out


def trim_cfg(cfg):
    """The productive triples reachable from the start: the cover itself,
    which is trim, or none when its start has no rule."""
    return cfg if cfg.rules and cfg.rules[0] else Cfg([], cfg.terminals, [])
