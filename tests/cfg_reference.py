"""Bounded languages of a context-free grammar, the reference for the
closure construction: words are enumerated up to a length, not
summarised."""

from ixdcl.cfg import Cfg, CfgRule
from ixdcl.oracle import subwords


def cfg_bounded_words(cfg, max_len):
    """All words of L(cfg) of length <= max_len (exact)."""
    val = {nt: set() for nt in cfg.nonterminals}
    for r in cfg.rules:
        for k in (r.lhs,) + r.kids:
            val.setdefault(k, set())
    changed = True
    while changed:
        changed = False
        for r in cfg.rules:
            cur = val[r.lhs]
            if not r.kids:
                new = {r.word} if len(r.word) <= max_len else set()
            elif len(r.kids) == 2:
                left, right = r.kids
                new = {u + v for u in val[left] for v in val[right]
                       if len(u) + len(v) <= max_len}
            else:
                new = val[r.kids[0]]
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
    rules = [r for r in cfg.rules if r.kids]
    rules += [CfgRule(r.lhs, (), u) for r in cfg.rules
              if not r.kids for u in subwords(r.word)]
    return cfg_bounded_words(
        Cfg(cfg.nonterminals, cfg.terminals, cfg.start, tuple(rules)),
        max_len)
