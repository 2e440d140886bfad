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
from .oracle import is_subword, subwords


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


def trim_cfg(cfg):
    """Restrict to productive and reachable nonterminals."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for r in cfg.rules:
            if r.lhs in productive:
                continue
            if isinstance(r, CfgTerminal):
                ok = True
            elif isinstance(r, CfgBinary):
                ok = r.left in productive and r.right in productive
            else:
                ok = r.rhs in productive
            if ok:
                productive.add(r.lhs)
                changed = True
    live_rules = [r for r in cfg.rules if r.lhs in productive and
                  (isinstance(r, CfgTerminal) or
                   (isinstance(r, CfgBinary) and r.left in productive
                    and r.right in productive) or
                   (isinstance(r, CfgUnary) and r.rhs in productive))]
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
                kids = ([r.left, r.right] if isinstance(r, CfgBinary)
                        else [r.rhs] if isinstance(r, CfgUnary) else [])
                for k in kids:
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
        val.setdefault(r.lhs, set())
        for k in ([r.left, r.right] if isinstance(r, CfgBinary)
                  else [r.rhs] if isinstance(r, CfgUnary) else []):
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


def cfg_member(cfg, word):
    return word in cfg_bounded_words(cfg, len(word))


def cfg_dcl_bounded(cfg, max_len):
    """The downward closure of L(cfg) restricted to length <= max_len.

    Exact: per nonterminal the set of short scattered subwords of its
    words is a finite least fixpoint, with no length assumptions on the
    witnessing words.
    """
    val = {nt: set() for nt in cfg.nonterminals}
    for r in cfg.rules:
        val.setdefault(r.lhs, set())
        for k in ([r.left, r.right] if isinstance(r, CfgBinary)
                  else [r.rhs] if isinstance(r, CfgUnary) else []):
            val.setdefault(k, set())
    changed = True
    while changed:
        changed = False
        for r in cfg.rules:
            cur = val[r.lhs]
            if isinstance(r, CfgTerminal):
                new = {u for u in subwords(r.word) if len(u) <= max_len}
            elif isinstance(r, CfgBinary):
                new = {u + v for u in val[r.left] for v in val[r.right]
                       if len(u) + len(v) <= max_len}
            else:
                new = val[r.rhs]
            if not new <= cur:
                cur |= new
                changed = True
    return frozenset(val.get(cfg.start, set()))
