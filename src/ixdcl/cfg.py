"""Context-free cover of an annotated indexed grammar via stack summaries.

Nonterminals of the CFG are triples (A, X, sigma): an annotated
nonterminal together with a summary of the stack below it.  Every rule
is a `CfgRule` that carries its right-hand triples, its kids, and has
one of three shapes: with no kids it derives its terminal word; with
two it copies a binary rule of the annotated grammar at a fixed
summary; with one it is a push rule, which moves to the pushed summary,
or a pop rule, which moves to any push-preimage recorded in the summary
graph.  The resulting context-free language contains the indexed
language and has the same downward closure.  The module also holds two
graph passes that later stages share: `live_rules` and Tarjan's `sccs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import CapExceeded
from .grammar import BinaryRule, PopRule, TerminalRule


@dataclass(frozen=True)
class CfgRule:
    lhs: object
    kids: tuple
    word: str = ""


@dataclass
class Cfg:
    nonterminals: list
    terminals: frozenset
    start: object
    rules: tuple


def build_cfg(ag, graph, cap=None):
    """The context-free grammar over feasible (A, X, summary) triples.
    Raises CapExceeded as soon as there are more than cap triples."""
    g = ag.grammar
    by_lhs = {}
    pops_by_lhs = {}
    for p in g.productions:
        if isinstance(p, PopRule):
            pops_by_lhs.setdefault(p.lhs, []).append(p)
        else:
            by_lhs.setdefault(p.lhs, []).append(p)

    triples = []
    seen = set()
    rules = []

    def child(t):
        if t not in seen:
            seen.add(t)
            triples.append(t)
            if cap is not None and len(triples) > cap:
                raise CapExceeded("cfg triple cap exceeded")
        return t

    start = child((g.start, graph.nodes[0]))
    for cur in triples:   # grows while it is read
        nt, sigma = cur
        for p in by_lhs.get(nt, ()):
            if isinstance(p, TerminalRule):
                rules.append(CfgRule(cur, (), p.word))
            elif isinstance(p, BinaryRule):
                rules.append(CfgRule(cur, (child((p.left, sigma)),
                                           child((p.right, sigma)))))
            else:
                tgt = graph.push(p.sym, sigma)
                if tgt is not None:
                    rules.append(CfgRule(cur, (child((p.rhs, tgt)),)))
        for p in pops_by_lhs.get(nt, ()):
            for src in graph.pop(p.sym, sigma):
                rules.append(CfgRule(cur, (child((p.rhs, src)),)))

    return Cfg(triples, g.symbols.terminals, start, tuple(rules))


def live_rules(cfg):
    """The rules whose kids are all productive.  Per rule, count its kids
    not yet known productive; a rule whose count reaches 0 makes its lhs
    productive."""
    waiting = []
    by_kid = {}
    productive = set()
    queue = []
    for i, r in enumerate(cfg.rules):
        waiting.append(len(r.kids))
        for k in r.kids:
            by_kid.setdefault(k, []).append(i)
        if not r.kids and r.lhs not in productive:
            productive.add(r.lhs)
            queue.append(r.lhs)
    while queue:
        for i in by_kid.get(queue.pop(), ()):
            waiting[i] -= 1
            lhs = cfg.rules[i].lhs
            if not waiting[i] and lhs not in productive:
                productive.add(lhs)
                queue.append(lhs)
    return [r for r, n in zip(cfg.rules, waiting) if not n]


def sccs(nodes, adj):
    """Tarjan's strongly connected components of the graph adj (a dict
    of successor lists) from the roots nodes, without recursion.  Each
    component is emitted after every component it reaches."""
    index = {}
    low = {}
    on = set()
    stack = []
    out = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                elif w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def trim_cfg(cfg):
    """Restrict to productive and reachable nonterminals."""
    live = live_rules(cfg)
    live_by_lhs = {}
    for r in live:
        live_by_lhs.setdefault(r.lhs, []).append(r)
    reachable = set()
    if cfg.start in live_by_lhs:
        queue = [cfg.start]
        reachable.add(cfg.start)
        while queue:
            nt = queue.pop()
            for r in live_by_lhs[nt]:
                for k in r.kids:
                    if k not in reachable:
                        reachable.add(k)
                        queue.append(k)
    rules = tuple(r for r in live if r.lhs in reachable)
    nts = [n for n in cfg.nonterminals if n in reachable]
    return Cfg(nts, cfg.terminals, cfg.start, rules)
