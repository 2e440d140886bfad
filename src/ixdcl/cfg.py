"""Context-free cover of an annotated indexed grammar via stack summaries.

Nonterminals of the CFG are triples (A, X, sigma): an annotated
nonterminal together with a summary of the stack below it.  Terminal
and binary rules copy the annotated grammar at a fixed summary; a push
rule moves to the pushed summary; a pop rule moves to any push-preimage
recorded in the summary graph.  The resulting context-free language
contains the indexed language and has the same downward closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import BinaryRule, PopRule, PushRule, TerminalRule


@dataclass(frozen=True)
class CfgTerminal:
    lhs: object
    word: str


@dataclass(frozen=True)
class CfgBinary:
    lhs: object
    left: object
    right: object


@dataclass(frozen=True)
class CfgUnary:
    lhs: object
    rhs: object
    tag: str = ""


@dataclass
class Cfg:
    nonterminals: list
    terminals: frozenset
    start: object
    rules: tuple


def build_cfg(ag, graph):
    """The context-free grammar over feasible (A, X, summary) triples."""
    g = ag.grammar
    by_lhs = {}
    pops_by_lhs = {}
    for p in g.productions:
        if isinstance(p, PopRule):
            pops_by_lhs.setdefault(p.lhs, []).append(p)
        else:
            by_lhs.setdefault(p.lhs, []).append(p)

    start = (g.start, graph.nodes[0])
    triples = [start]
    seen = {start}
    rules = []
    i = 0
    while i < len(triples):
        nt, sigma = triples[i]
        cur = triples[i]
        i += 1

        def child(t):
            if t not in seen:
                seen.add(t)
                triples.append(t)
            return t

        for p in by_lhs.get(nt, ()):
            if isinstance(p, TerminalRule):
                rules.append(CfgTerminal(cur, p.word))
            elif isinstance(p, BinaryRule):
                rules.append(CfgBinary(cur, child((p.left, sigma)),
                                       child((p.right, sigma))))
            elif isinstance(p, PushRule):
                tgt = graph.push(p.sym, sigma)
                if tgt is not None:
                    rules.append(CfgUnary(cur, child((p.rhs, tgt)), "push"))
        for p in pops_by_lhs.get(nt, ()):
            for src in graph.pop(p.sym, sigma):
                rules.append(CfgUnary(cur, child((p.rhs, src)), "pop"))

    return Cfg(triples, g.symbols.terminals, start, tuple(rules))


def rule_kids(r):
    """The right-hand nonterminals of a CFG rule, in order."""
    if isinstance(r, CfgBinary):
        return [r.left, r.right]
    return [r.rhs] if isinstance(r, CfgUnary) else []


def live_rules(cfg):
    """The rules whose right-hand nonterminals are all productive.  Per
    rule, count its right-hand nonterminals not yet known productive; a
    rule whose count reaches 0 makes its lhs productive."""
    waiting = []
    by_kid = {}
    productive = set()
    queue = []
    for i, r in enumerate(cfg.rules):
        kids = rule_kids(r)
        waiting.append(len(kids))
        for k in kids:
            by_kid.setdefault(k, []).append(i)
        if not kids and r.lhs not in productive:
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
                for k in rule_kids(r):
                    if k not in reachable:
                        reachable.add(k)
                        queue.append(k)
    rules = tuple(r for r in live if r.lhs in reachable)
    nts = [n for n in cfg.nonterminals if n in reachable]
    return Cfg(nts, cfg.terminals, cfg.start, rules)
