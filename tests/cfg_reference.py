"""Bounded languages of a context-free grammar, the reference for the
closure construction: words are enumerated up to a length, not
summarised.  Also the one way tests write a grammar by hand."""

from ixdcl.cfg import Cfg
from ixdcl.oracle import subwords


def numbered_cfg(nonterminals, terminals, rules):
    """The Cfg with the named nonterminals, numbered in the order listed
    (the start first), and the rules (lhs, kids) or (lhs, kids, word)
    given by names: with no kids a rule derives its word."""
    num = {nt: i for i, nt in enumerate(nonterminals)}
    out = [[] for _ in nonterminals]
    for lhs, kids, *word in rules:
        out[num[lhs]].append(tuple(num[k] for k in kids) if kids
                             else "".join(word))
    return Cfg(list(nonterminals), frozenset(terminals), out)


def named_rules(cfg):
    """The rules of cfg as (lhs, kids, word) over its nonterminals."""
    nts = cfg.nonterminals
    return [(nts[i], (), r) if r.__class__ is str
            else (nts[i], tuple(nts[k] for k in r), "")
            for i, rs in enumerate(cfg.rules) for r in rs]


def cfg_bounded_words(cfg, max_len):
    """All words of L(cfg) of length <= max_len (exact)."""
    if not cfg.rules:
        return frozenset()
    val = [set() for _ in cfg.rules]
    changed = True
    while changed:
        changed = False
        for i, rs in enumerate(cfg.rules):
            cur = val[i]
            for r in rs:
                if r.__class__ is str:
                    new = {r} if len(r) <= max_len else set()
                elif len(r) == 2:
                    left, right = r
                    new = {u + v for u in val[left] for v in val[right]
                           if len(u) + len(v) <= max_len}
                else:
                    new = val[r[0]]
                if not new <= cur:
                    cur |= new
                    changed = True
    return frozenset(val[0])


def cfg_dcl_bounded(cfg, max_len):
    """The downward closure of L(cfg) restricted to length <= max_len.

    Subword closure distributes over concatenation and union, so this is
    the bounded language of the same grammar with each terminal rule
    A -> w replaced by A -> u for every subword u of w.
    """
    rules = [[r for r in rs if r.__class__ is not str]
             + [u for r in rs if r.__class__ is str for u in subwords(r)]
             for rs in cfg.rules]
    return cfg_bounded_words(Cfg(cfg.nonterminals, cfg.terminals, rules),
                             max_len)
