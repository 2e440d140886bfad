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

A set of nonterminals is an int whose bit i stands for `nts[i]`, the
i-th nonterminal in `sort_key` order, and a relation is a tuple of such
row masks, row i holding the partners of `nts[i]`.  The rules are
indexed once by kind as tuples of indices and bits.  The methods that
name sets (`cl`, `act`, `useful`, `universe`) take and return
frozensets, one per mask; those the stack monoid reads (`act_mask`,
`focus_rows`, `reach_rows`) take a mask and return a mask or row masks.

Everything is one demand-driven least fixpoint over keys ("cl", X),
("act", f, X), ("efoc", X), ("foc", f, X) and ("reach", X), X a mask,
solved by the worklist solver of `ixdcl.fixpoint`, the one the oracle's
dynamic programs run on.  Each kind of key has its rule `_eval_<kind>`.
Only these rules build on their own value, so `_eval` runs a key's rule
until its value stops changing, and the solver queues only its readers.

An act(f, X) pass closes its value under the pop and binary rules, which
read only cl(X) and the value, before it takes the snapshot S at which
its push rules read act(g, S), once per letter g.  An earlier snapshot
is a set the value is about to outgrow, whose act keys are solved, then
abandoned, and still count against the cap.
"""

from __future__ import annotations

from .fixpoint import Solver
from .grammar import BinaryRule, PushRule, TerminalRule, sort_key


class CapExceeded(RuntimeError):
    """A configurable resource cap was hit; the result would be partial."""

    @classmethod
    def of(cls, cap, count, unit, limit, knob):
        """The error in the one form that every cap message has."""
        return cls(f"{cap} cap exceeded: {count} {unit}, limit {limit} "
                   f"({knob})")


def gather(rows, mask):
    """The union of rows[i] over the bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


class Analysis(Solver):
    def __init__(self, g, universe_cap=4096):
        super().__init__()
        self.g = g
        self.universe_cap = universe_cap
        self.act_keys = 0   # act keys created; each counts against the cap
        self.nts = sorted(g.symbols.nonterminals, key=sort_key)
        self.index = i = {A: n for n, A in enumerate(self.nts)}
        b = {A: 1 << n for A, n in i.items()}
        self._unit = tuple(b.values())   # the identity relation
        # the rules indexed by kind; a push or pop rule is (lhs index, rhs
        # index, lhs bit, rhs bit)
        self._term = 0
        self._binary = []   # (lhs bit, left bit | right bit)
        self._split = []    # (lhs, C, bit of D) for kids (C, D) either way
        self._pushes = {}   # stack symbol -> (lhs mask, its push rules)
        self._pops = {}     # stack symbol -> its pop rules
        for p in g.productions:
            if isinstance(p, TerminalRule):
                self._term |= b[p.lhs]
            elif isinstance(p, BinaryRule):
                self._binary.append((b[p.lhs], b[p.left] | b[p.right]))
                self._split += [(i[p.lhs], i[p.left], b[p.right]),
                                (i[p.lhs], i[p.right], b[p.left])]
            else:
                rule = (i[p.lhs], i[p.rhs], b[p.lhs], b[p.rhs])
                kind = self._pushes if isinstance(p, PushRule) else self._pops
                kind.setdefault(p.sym, []).append(rule)
        self._pushes = {f: (sum({r[2] for r in rules}), rules)
                        for f, rules in self._pushes.items()}
        self._sets = {}      # mask -> its frozenset
        self._universe = None
        self._fold = {}   # stack tuple -> mask (action on empty set)

    # -- the fixpoint --------------------------------------------------------

    def _init(self, key):
        """The first value of a new key; an act key counts against the cap."""
        if key[0] == "act":
            if self.act_keys >= self.universe_cap:
                raise CapExceeded.of("action table", self.act_keys + 1,
                                     "act keys", self.universe_cap,
                                     "--max-universe")
            self.act_keys += 1
            return self._term
        if key[0] == "cl":
            return key[1] | self._term
        if key[0] == "efoc":
            return self._unit
        if key[0] == "reach":
            return tuple(b & key[1] for b in self._unit)
        return (0,) * len(self._unit)

    def _eval(self, key, old):
        rule = getattr(self, "_eval_" + key[0])
        while (new := rule(old, *key[1:])) != old:
            old = new
        return new

    def mask(self, X):
        """The mask of a set of nonterminals."""
        return sum(1 << self.index[A] for A in frozenset(X))

    def _set(self, mask):
        out = self._sets.get(mask)
        if out is None:
            bits = enumerate(bin(mask)[:1:-1])   # lowest bit first
            out = self._sets[mask] = frozenset(
                self.nts[i] for i, c in bits if c == "1")
        return out

    # -- actions -----------------------------------------------------------

    def _close(self, cur):
        """cur closed under the binary rules."""
        old = None
        while cur != old:
            old = cur
            for lhs, kids in self._binary:
                if cur & kids == kids:
                    cur |= lhs
        return cur

    def _apply_pushes(self, cur, X):
        """cur with each A of a push rule A -> B + f, B in act(f, X)."""
        for f, (lhs, rules) in self._pushes.items():
            if cur & lhs != lhs:
                gen = self._need(("act", f, X))
                for _, _, a, r in rules:
                    if gen & r:
                        cur |= a
        return cur

    def _eval_cl(self, cur, X):
        return self._apply_pushes(self._close(cur), X)

    def _eval_act(self, cur, f, X):
        cl = self._need(("cl", X))
        for _, _, a, r in self._pops.get(f, ()):
            if cl & r:
                cur |= a
        cur = self._close(cur)
        return self._apply_pushes(cur, cur)   # the snapshot S is cur

    def cl(self, X):
        """Nonterminals A with A[empty stack] deriving into (X union T)*."""
        return self._set(self._solved(("cl", self.mask(X))))

    def act_mask(self, f, x):
        """The mask of the one-letter action f . X, x the mask of X."""
        return self._solved(("act", f, x))

    def act(self, f, X):
        """The one-letter action f . X."""
        return self._set(self.act_mask(f, self.mask(X)))

    def useful(self):
        """Nonterminals deriving a terminal word from the empty stack."""
        return self.cl(())

    def is_empty(self):
        return self.g.start not in self.useful()

    def term_empty(self, nt, stack):
        """Exact emptiness of the language of nt[stack]."""
        stack = tuple(stack)
        if stack not in self._fold:
            X = 0 if stack else self._solved(("cl", 0))
            for f in reversed(stack):   # topmost letter last
                X = self.act_mask(f, X)
            self._fold[stack] = X
        i = self.index.get(nt)
        return i is None or not self._fold[stack] >> i & 1

    # -- annotation universe ------------------------------------------------

    def universe(self):
        """All sets reachable from Useful under the one-letter actions."""
        if self._universe is None:
            letters = sorted(self.g.symbols.stack_symbols, key=sort_key)
            seen = [self._solved(("cl", 0))]
            seen_set = set(seen)
            for X in seen:   # seen grows while it is scanned
                for f in letters:
                    Y = self.act_mask(f, X)
                    if Y not in seen_set:
                        if len(seen) >= self.universe_cap:
                            raise CapExceeded.of(
                                "annotation universe", len(seen) + 1, "sets",
                                self.universe_cap, "--max-universe")
                        seen_set.add(Y)
                        seen.append(Y)
            self._universe = [self._set(X) for X in seen]
        return list(self._universe)

    # -- focus matrices -----------------------------------------------------

    def _eval_efoc(self, cur, X):
        cl = self._need(("cl", X))
        rows = list(cur)
        for a, c, d in self._split:
            if cl & d:
                rows[a] |= rows[c]
        for f, (_, rules) in self._pushes.items():
            m = self._need(("foc", f, X))
            for a, r, _, _ in rules:
                rows[a] |= m[r]
        return tuple(rows)

    def _eval_foc(self, cur, f, X):
        ef = self._need(("efoc", X))
        gen = self._need(("act", f, X))
        rows = list(cur)
        for a, r, _, _ in self._pops.get(f, ()):
            rows[a] |= ef[r]
        for a, c, d in self._split:
            if gen & d:
                rows[a] |= rows[c]
        for g, (_, rules) in self._pushes.items():
            m = self._need(("foc", g, gen))
            for a, r, _, _ in rules:
                rows[a] |= gather(rows, m[r])
        return tuple(rows)

    def focus_rows(self, f, x):
        """The focus matrix M[f, X] as row masks, x the mask of X."""
        return self._solved(("foc", f, x))

    # -- reachability within the annotated grammar --------------------------

    def _eval_reach(self, cur, X):
        rows = list(cur)
        for lhs, kids in self._binary:
            if X & (lhs | kids) == lhs | kids:
                rows[lhs.bit_length() - 1] |= kids
        for f, (_, rules) in self._pushes.items():
            for a, r, lhs, rhs in rules:
                Y = self._need(("act", f, X)) if X & lhs else 0
                if Y & rhs:
                    m = self._need(("foc", f, X))
                    rows[a] |= gather(m, self._need(("reach", Y))[r]) & X
        # one transitive step
        for a, row in enumerate(rows):
            rows[a] = row | gather(rows, row)
        return tuple(rows)

    def reach_rows(self, x):
        """The relation A ~X~ B (see module doc) as row masks, x the mask
        of X."""
        return self._solved(("reach", x))
