"""Productiveness analysis of indexed grammars.

For a set X of nonterminals, a stack word z acts on X by

    z . X = { A | A[z] derives a sentential form over (X union T)* }

where the surviving nonterminals all carry an empty stack.  This module
computes the one-letter actions `act(f, X)` (and the empty-stack closure
`cl(X)` they need), the set of useful nonterminals, the universe of
annotation sets reachable from Useful, the focus matrices

    M[f, X](A, B)  iff  A[f] derives u B v with u, v over (X union T)*

and the per-set reachability relations used by the stack abstraction:

    A ~X~ B  iff  (A, X) derives u (B, X) v in the annotated grammar.

Everything is one demand-driven least fixpoint over keys ("cl", X),
("act", f, X), ("efoc", X), ("foc", f, X) and ("reach", X).  A cl or
act value is a set; a relation is kept as rows, a dict from each A to
the set of B with (A, B), the form every rule reads.  Reading a missing
key creates and queues it; each read made while a key is evaluated
records that key as a reader.  A worklist evaluates each queued key's
local rule from its current value, and when the value grows it
re-queues the key's readers, so only keys whose inputs grew are
evaluated again (a local solver in the sense of Fecht & Seidl, "A
faster solver for general systems of equations", SCP 1999).

A local rule is a single pass over the grammar's rules, indexed once by
kind; a relation's rule adds whole rows.  A rule that reads its own
value (a binary rule, or the transitive step of reach) may need another
pass; the solver re-queues a key whose value grew together with its
readers, so that pass runs through the worklist too and no rule loops.
"""

from __future__ import annotations

from collections import defaultdict, deque

from .grammar import BinaryRule, PushRule, TerminalRule, sort_key


class CapExceeded(RuntimeError):
    """A configurable resource cap was hit; the result would be partial."""


def _size(val):
    """A set's size, or the number of pairs in a relation's rows."""
    return len(val) if isinstance(val, set) else sum(map(len, val.values()))


class Analysis:
    def __init__(self, g, universe_cap=4096):
        self.g = g
        self.universe_cap = universe_cap
        # the rules indexed once by kind; each local rule reads its lists
        self.term_lhs = set()
        self.binary = []
        self.push = []
        self.pops = {}   # stack symbol -> its pop rules
        for p in g.productions:
            if isinstance(p, TerminalRule):
                self.term_lhs.add(p.lhs)
            elif isinstance(p, BinaryRule):
                self.binary.append(p)
            elif isinstance(p, PushRule):
                self.push.append(p)
            else:
                self.pops.setdefault(p.sym, []).append(p)
        self._val = {}      # key -> set or rows, only grows
        # key -> the keys that read it; a dict keeps them in order, so the
        # evaluation order (and the number of act keys tried on the way)
        # does not depend on PYTHONHASHSEED
        self._readers = defaultdict(dict)
        self._todo = deque()    # queued keys, first in first out
        self._queued = set()
        self._current = None    # the key under evaluation
        self._n_act = 0
        self._universe = None
        self._reached = {}   # X -> reach(X) as a frozenset of pairs
        self._fold = {}   # stack tuple -> frozenset (action on empty set)

    # -- the worklist solver -------------------------------------------------

    def _push(self, key):
        if key not in self._queued:
            self._queued.add(key)
            self._todo.append(key)

    def _need(self, key, init):
        """The current value of key, created by init() and queued when
        missing; the key under evaluation becomes one of its readers."""
        val = self._val.get(key)
        if val is None:
            val = self._val[key] = init()
            self._push(key)
        if self._current is not None:
            self._readers[key][self._current] = None
        return val

    def _solve(self):
        while self._todo:
            key = self._todo.popleft()
            self._queued.discard(key)
            val = self._val[key]
            size = _size(val)
            self._current = key
            getattr(self, "_eval_" + key[0])(val, *key[1:])
            self._current = None
            if _size(val) > size:
                # a rule may read its own value, so the key runs again
                self._push(key)
                for r in self._readers.get(key, ()):
                    self._push(r)

    def _solved(self, val):
        self._solve()
        return frozenset(val)

    def _solved_pairs(self, rows):
        self._solve()
        return frozenset((a, b) for a, row in rows.items() for b in row)

    # -- actions -----------------------------------------------------------

    def _need_cl(self, X):
        return self._need(("cl", X), lambda: set(X) | self.term_lhs)

    def _need_act(self, f, X):
        return self._need(("act", f, X), self._new_act)

    def _new_act(self):
        if self._n_act >= self.universe_cap:
            raise CapExceeded("action table cap exceeded")
        self._n_act += 1
        return set(self.term_lhs)

    def _eval_cl(self, cur, X):
        for p in self.binary:
            if p.left in cur and p.right in cur:
                cur.add(p.lhs)
        for p in self.push:
            if p.lhs not in cur and p.rhs in self._need_act(p.sym, X):
                cur.add(p.lhs)

    def _eval_act(self, cur, f, X):
        cl = self._need_cl(X)
        cur.update(p.lhs for p in self.pops.get(f, ()) if p.rhs in cl)
        for p in self.binary:
            if p.left in cur and p.right in cur:
                cur.add(p.lhs)
        # one snapshot per pass: a grown value is queued again and its
        # next pass reads the inner actions at the larger set
        S = frozenset(cur)
        for p in self.push:
            if p.lhs not in cur and p.rhs in self._need_act(p.sym, S):
                cur.add(p.lhs)

    def cl(self, X):
        """Nonterminals A with A[empty stack] deriving into (X union T)*."""
        return self._solved(self._need_cl(frozenset(X)))

    def act(self, f, X):
        """The one-letter action f . X."""
        return self._solved(self._need_act(f, frozenset(X)))

    def act_word(self, z, X):
        """z . X for a stack word z given topmost-first."""
        val = frozenset(X)
        for f in reversed(z):
            val = self.act(f, val)
        return val

    def useful(self):
        """Nonterminals deriving a terminal word from the empty stack."""
        return self.cl(frozenset())

    def is_empty(self):
        return self.g.start not in self.useful()

    def term_empty(self, nt, stack):
        """Exact emptiness of the language of nt[stack]."""
        stack = tuple(stack)
        if stack not in self._fold:
            if stack:
                self._fold[stack] = self.act_word(stack, frozenset())
            else:
                self._fold[stack] = self.useful()
        return nt not in self._fold[stack]

    # -- annotation universe ------------------------------------------------

    def universe(self):
        """All sets reachable from Useful under the one-letter actions."""
        if self._universe is None:
            letters = sorted(self.g.symbols.stack_symbols, key=sort_key)
            seen = [self.useful()]
            seen_set = set(seen)
            for X in seen:   # seen grows while it is scanned
                for f in letters:
                    Y = self.act(f, X)
                    if Y not in seen_set:
                        if len(seen) >= self.universe_cap:
                            raise CapExceeded("annotation universe cap exceeded")
                        seen_set.add(Y)
                        seen.append(Y)
            self._universe = seen
        return list(self._universe)

    # -- focus matrices -----------------------------------------------------

    def _need_foc(self, f, X):
        nts = self.g.symbols.nonterminals
        return self._need(("foc", f, X), lambda: {B: set() for B in nts})

    def _need_efoc(self, X):
        nts = self.g.symbols.nonterminals
        return self._need(("efoc", X), lambda: {B: {B} for B in nts})

    def _eval_efoc(self, cur, X):
        cl = self._need_cl(X)
        for p in self.binary:
            for C, D in ((p.left, p.right), (p.right, p.left)):
                if D in cl:
                    cur[p.lhs] |= cur[C]
        for p in self.push:
            cur[p.lhs] |= self._need_foc(p.sym, X)[p.rhs]

    def _eval_foc(self, cur, f, X):
        ef = self._need_efoc(X)
        gen = self._need_act(f, X)
        for p in self.pops.get(f, ()):
            cur[p.lhs] |= ef[p.rhs]
        for p in self.binary:
            for C, D in ((p.left, p.right), (p.right, p.left)):
                if D in gen:
                    cur[p.lhs] |= cur[C]
        Y = frozenset(gen)
        for p in self.push:
            # a list first: the key read may be this one
            for C in list(self._need_foc(p.sym, Y)[p.rhs]):
                cur[p.lhs] |= cur[C]

    def matrix(self, f, X):
        """Boolean matrix of focus pairs for the letter f under X."""
        return self._solved_pairs(self._need_foc(f, frozenset(X)))

    # -- reachability within the annotated grammar --------------------------

    def _need_reach(self, X):
        return self._need(("reach", X), lambda: {A: {A} for A in X})

    def _eval_reach(self, cur, X):
        for p in self.binary:
            if p.lhs in X and p.left in X and p.right in X:
                cur[p.lhs].update((p.left, p.right))
        for p in self.push:
            if p.lhs not in X:
                continue
            Y = frozenset(self._need_act(p.sym, X))
            if p.rhs in Y:
                m = self._need_foc(p.sym, X)
                # a list first: Y may be X
                for D in list(self._need_reach(Y)[p.rhs]):
                    cur[p.lhs] |= m[D] & X
        # one transitive step
        for row in cur.values():
            for b in list(row):
                row |= cur[b]

    def reach(self, X):
        """The relation A ~X~ B (see module doc), solved on first use."""
        X = frozenset(X)
        out = self._reached.get(X)
        if out is None:
            out = self._reached[X] = self._solved_pairs(self._need_reach(X))
        return out
