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
from .oracle import subwords


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


def trim_cfg(cfg):
    """Restrict to productive and reachable nonterminals."""
    # productive pass: per rule, count its right-hand nonterminals not yet
    # known productive; a rule whose count reaches 0 makes its lhs productive
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
    live_rules = [r for r, n in zip(cfg.rules, waiting) if not n]
    live_by_lhs = {}
    for r in live_rules:
        live_by_lhs.setdefault(r.lhs, []).append(r)
    reachable = set()
    if cfg.start in productive:
        queue = [cfg.start]
        reachable.add(cfg.start)
        while queue:
            nt = queue.pop()
            for r in live_by_lhs.get(nt, ()):
                for k in rule_kids(r):
                    if k not in reachable:
                        reachable.add(k)
                        queue.append(k)
    rules = tuple(r for r in live_rules if r.lhs in reachable)
    nts = [n for n in cfg.nonterminals if n in reachable]
    return Cfg(nts, cfg.terminals, cfg.start, rules)


def cfg_bounded_words(cfg, max_len):
    """All words of L(cfg) of length <= max_len (exact)."""
    val = {nt: set() for nt in cfg.nonterminals}
    for r in cfg.rules:
        for k in [r.lhs] + rule_kids(r):
            val.setdefault(k, set())
    changed = True
    while changed:
        changed = False
        for r in cfg.rules:
            cur = val[r.lhs]
            if isinstance(r, CfgTerminal):
                new = {r.word} if len(r.word) <= max_len else set()
            elif isinstance(r, CfgBinary):
                new = {u + v for u in val[r.left] for v in val[r.right]
                       if len(u) + len(v) <= max_len}
            else:
                new = val[r.rhs]
            if not new <= cur:
                cur |= new
                changed = True
    return frozenset(val.get(cfg.start, set()))


def cfg_dcl_bounded(cfg, max_len):
    """The downward closure of L(cfg) restricted to length <= max_len.

    Subword closure distributes over concatenation and union, so this is
    the bounded language of the same grammar with each terminal rule
    A -> w replaced by A -> u for every subword u of w.
    """
    rules = [r for r in cfg.rules if not isinstance(r, CfgTerminal)]
    rules += [CfgTerminal(r.lhs, u) for r in cfg.rules
              if isinstance(r, CfgTerminal) for u in subwords(r.word)]
    return cfg_bounded_words(
        Cfg(cfg.nonterminals, cfg.terminals, cfg.start, tuple(rules)),
        max_len)
