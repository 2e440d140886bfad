"""Bounded languages of a context-free grammar, the reference for the
closure construction: words are enumerated up to a length, not
summarised.  Also the one way tests write a grammar by hand, the full
cover, the reference for the cover's cut of stack-blind triples, and
the general trim, the reference for the cover being trim as built."""

from ixdcl.cfg import Cfg, trim_cfg
from ixdcl.grammar import BinaryRule, PopRule, PushRule, TerminalRule
from ixdcl.oracle import subwords


def full_cover(ag, graph):
    """The cover over every feasible (A, X, summary) triple: each
    annotated nonterminal at each summary it is asked for, whether or not
    a push or pop rule is reachable from it."""
    g = ag.grammar
    by_lhs = {}   # pop rules last
    for p in sorted(g.productions, key=lambda p: isinstance(p, PopRule)):
        by_lhs.setdefault(p.lhs, []).append(p)
    triples, rules = [], []
    ids = {}

    def number(nt, sigma):
        if (nt, sigma) not in ids:
            ids[nt, sigma] = len(triples)
            triples.append((nt, sigma))
        return ids[nt, sigma]

    number(g.start, graph.nodes[0])
    for nt, sigma in triples:   # grows while it is read
        out = []
        for p in by_lhs.get(nt, ()):
            if isinstance(p, TerminalRule):
                out.append(p.word)
            elif isinstance(p, BinaryRule):
                out.append((number(p.left, sigma), number(p.right, sigma)))
            elif isinstance(p, PushRule):
                tgt = graph.push(p.sym, sigma)
                if tgt is not None:
                    out.append((number(p.rhs, tgt),))
            else:
                out += [(number(p.rhs, src),)
                        for src in graph.pop(p.sym, sigma)]
        rules.append(out)
    return Cfg(triples, g.symbols.terminals, rules)


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


def trim(cfg):
    """Restrict to productive nonterminals reachable from the start,
    renumbered in their old order.  Per rule with kids, count its kids
    not yet known productive; a rule whose count reaches 0 makes its lhs
    productive."""
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
    alive = productive.__getitem__
    live = [[r for r in rs if r.__class__ is str or all(map(alive, r))]
            if ok else [] for rs, ok in zip(rules, productive)]
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
    new = [-1] * len(live)
    for j, i in enumerate(old):
        new[i] = j
    return Cfg([cfg.nonterminals[i] for i in old], cfg.terminals,
               [[r if r.__class__ is str else tuple(map(new.__getitem__, r))
                 for r in live[i]] for i in old])


def assert_cover_is_trim(cfg):
    """The reference trim leaves the cover as it is, or drops only the
    start triple, without a rule, of an empty language; and `trim_cfg`
    agrees with it."""
    out = trim(cfg)
    if out.nonterminals:
        assert out == cfg
    else:
        assert cfg.rules == [[]]
    assert trim_cfg(cfg) == out
