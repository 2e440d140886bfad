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
closure.  The module also holds two graph passes over numbers that
later stages share: `live_rules` and Tarjan's `sccs`.
"""

from __future__ import annotations

from .analysis import CapExceeded
from .grammar import BinaryRule, PopRule, PushRule, Record, TerminalRule


class Cfg(Record):
    """Read-only once built: `trim_cfg` may share its lists."""

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


def live_rules(cfg):
    """Per nonterminal, its right-hand sides whose kids are all
    productive: empty exactly for an unproductive nonterminal.  Per rule
    with kids, count its kids not yet known productive; a rule whose
    count reaches 0 makes its lhs productive."""
    rules = cfg.rules
    productive = [False] * len(rules)
    queue, waiting, lhs, by_kid = [], [], [], [[] for _ in rules]
    for i, rs in enumerate(rules):
        for r in rs:
            if r.__class__ is str:
                queue.append(i)
            else:
                for k in r:
                    by_kid[k].append(len(waiting))
                waiting.append(len(r))
                lhs.append(i)
    while queue:
        i = queue.pop()
        if not productive[i]:
            productive[i] = True
            for j in by_kid[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    queue.append(lhs[j])
    if all(productive):
        return rules
    alive = productive.__getitem__
    return [[r for r in rs if r.__class__ is str or all(map(alive, r))]
            if ok else [] for rs, ok in zip(rules, productive)]


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
    """Restrict to productive nonterminals reachable from the start,
    renumbered in their old order."""
    live = live_rules(cfg)
    keep = [False] * len(live)
    queue = [0] if live and live[0] else []
    for i in queue:   # grows while it is read
        keep[i] = True
        for r in live[i]:
            if r.__class__ is not str:
                for k in r:
                    if not keep[k]:
                        keep[k] = True
                        queue.append(k)
    old = [i for i, ok in enumerate(keep) if ok]
    rules = [live[i] for i in old]
    if len(old) < len(live):
        new = [-1] * len(live)
        for j, i in enumerate(old):
            new[i] = j
        rules = [[r if r.__class__ is str else tuple(map(new.__getitem__, r))
                  for r in rs] for rs in rules]
    return Cfg([cfg.nonterminals[i] for i in old], cfg.terminals, rules)
