"""Productiveness analysis of indexed grammars.

For a set X of nonterminals, a stack word z acts on X by

    z . X = { A | A[z] derives a sentential form over (X union T)* }

where the surviving nonterminals all carry an empty stack.  This module
computes the one-letter actions `act(f, X)` (and the empty-stack closure
`cl(X)` they need), the set of useful nonterminals, the universe of
annotation sets reachable from Useful, the focus matrices

    M[f, X](A, B)  iff  A[f] derives u B v with u, v over (X union T)*

and efoc(X), the same with A and B on one stack level.  On X x X, for X
in the universe, efoc(X) is the relation the stack abstraction reads:

    A ~X~ B  iff  (A, X) derives u (B, X) v in the annotated grammar.

An action is closed, cl(act(f, X)) = act(f, X): a form over act(f, X)
derived at the empty stack is, with f below every stack, one over X.
So is every universe set: Useful = cl({}) is, and the others are
actions.  So a same-level route between members of a universe set X
with productive siblings meets only productive nonterminals and stays
inside X.

A route from A[f] down to level X first moves at the level of f, its
siblings in act(f, X), then pops f by a rule B -> R, then moves at level
X.  As act(f, X) is closed, the first part is efoc(act(f, X)), so

    M[f, X](A) = union of efoc(X)(R) over B in efoc(act(f, X))(A)
                 and pop rules B -> R of f,

and a push A -> R f at level X adds M[f, X](R) to efoc(X)(A).  The focus
matrices are this composition and have no keys of their own.

A set of nonterminals is an int whose bit i stands for `nts[i]`, the
i-th nonterminal in `sort_key` order, and a relation is a tuple of such
row masks, row i holding the partners of `nts[i]`.  The methods that
name sets (`cl`, `act`, `useful`, `universe`) take and return
frozensets, one per mask; those the stack monoid reads (`act_mask`,
`focus_rows`, `reach_rows`) take a mask and return a mask or row masks.

Everything is one demand-driven least fixpoint over two kinds of key,
("cl", X) and ("efoc", X), X a mask, solved by the worklist solver of
`ixdcl.fixpoint`, the one the oracle's dynamic programs run on.  Each
kind of key has its rule `_eval_<kind>`.  Only these rules build on
their own value, so `_eval` runs a key's rule until its value stops
changing, and the solver queues only its readers.

An action is a closure.  Let pre_f(P) be the set of A with a pop rule
A -> R of f and R in P.  act(f, X) is the least set that holds the
terminal lhs and pre_f(cl(X)) and is closed under the binary rules and
under the push rules read at itself.  That is the cl rule started from
pre_f(cl(X)), so

    act(f, X) = cl(pre_f(cl(X))),

and the key of act(f, X) is ("cl", pre_f(cl(X))), one for every X with
the same pre-image.  A cl rule reads the actions at its own value.
Every cl key counts against the cap.  Each universe set is the value of
a cl key made before the set is found, so the cap bounds the universe.
"""

from __future__ import annotations

from .fixpoint import Solver, sccs
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
        self.cl_keys = 0   # cl keys created; each counts against the cap
        self.nts = sorted(g.symbols.nonterminals, key=sort_key)
        self.index = i = {A: n for n, A in enumerate(self.nts)}
        b = {A: 1 << n for A, n in i.items()}
        self._unit = tuple(b.values())   # the identity relation
        # the rules indexed by kind; a push or pop rule is (lhs index, rhs
        # index, lhs bit, rhs bit)
        self._term = 0
        kids = [[] for _ in self.nts]   # lhs index -> its binary kid pairs
        self._split = []    # (lhs, C, bit of D) for kids (C, D) either way
        self._pushes = {}   # stack symbol -> (lhs mask, its push rules)
        self._pops = {}     # stack symbol -> its pop rules
        # stack symbol -> row masks: row A holds the R of its pops A -> R
        self._popped = {f: [0] * len(b) for f in g.symbols.stack_symbols}
        for p in g.productions:
            if isinstance(p, TerminalRule):
                self._term |= b[p.lhs]
            elif isinstance(p, BinaryRule):
                kids[i[p.lhs]].append((i[p.left], i[p.right]))
                self._split += [(i[p.lhs], i[p.left], b[p.right]),
                                (i[p.lhs], i[p.right], b[p.left])]
            else:
                rule = (i[p.lhs], i[p.rhs], b[p.lhs], b[p.rhs])
                kind = self._pushes if isinstance(p, PushRule) else self._pops
                kind.setdefault(p.sym, []).append(rule)
                if kind is self._pops:
                    self._popped[p.sym][i[p.lhs]] |= b[p.rhs]
        # (lhs bit, left bit | right bit), kids first, so that one sweep
        # of _close settles every acyclic part; only cycles take more
        u = self._unit
        self._binary = [(u[v], u[x] | u[y]) for comp in sccs(
            [sum(ks, ()) for ks in kids], range(len(kids)))
            for v in comp for x, y in kids[v]]
        self._pushes = {f: (sum({r[2] for r in rules}), rules)
                        for f, rules in self._pushes.items()}
        self._sets = {}      # mask -> its frozenset
        self._universe = None
        self._fold = {}   # stack tuple -> mask (action on empty set)

    # -- the fixpoint --------------------------------------------------------

    def _init(self, key):
        """The first value of a new key; a cl key counts against the cap."""
        if key[0] == "efoc":
            return self._unit
        if self.cl_keys >= self.universe_cap:
            raise CapExceeded.of("action table", self.cl_keys + 1, "cl keys",
                                 self.universe_cap, "--max-universe")
        self.cl_keys += 1
        return key[1] | self._term

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
        """cur closed under the binary rules, by sweeps over them."""
        old = None
        while cur != old:
            old = cur
            for lhs, kids in self._binary:
                if cur & kids == kids:
                    cur |= lhs
        return cur

    def _act_key(self, f, cl):
        """The key of act(f, X) = cl(pre_f(cl(X))), cl the mask of cl(X)."""
        pre = 0
        for _, _, a, r in self._pops.get(f, ()):
            if cl & r:
                pre |= a
        return "cl", pre

    def _apply_pushes(self, cur, at):
        """cur with each A of a push rule A -> B + f, B in act(f, at)."""
        for f, (lhs, rules) in self._pushes.items():
            if cur & lhs != lhs:
                gen = self._need(self._act_key(f, at))
                for _, _, a, r in rules:
                    if gen & r:
                        cur |= a
        return cur

    def _eval_cl(self, cur, X):
        cur = self._close(cur)
        return self._apply_pushes(cur, cur)

    def cl(self, X):
        """Nonterminals A with A[empty stack] deriving into (X union T)*."""
        return self._set(self._solved(("cl", self.mask(X))))

    def act_mask(self, f, x):
        """The mask of the one-letter action f . X, x the mask of X."""
        return self._solved(self._act_key(f, self._solved(("cl", x))))

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
            gen = self._need(self._act_key(f, cl))
            inner = rows if gen == X else self._need(("efoc", gen))
            popped = self._popped[f]
            for a, r, _, _ in rules:   # A -> R f adds M[f, X](R)
                rows[a] |= gather(rows, gather(popped, inner[r]))
        return tuple(rows)

    def focus_rows(self, f, x):
        """The focus matrix M[f, X] as row masks, x the mask of X, composed
        from efoc(act(f, X)), f's pops and efoc(X) (see module doc)."""
        outer = self._solved(("efoc", x))
        inner = self._solved(("efoc", self.act_mask(f, x)))
        popped = self._popped[f]
        return tuple(gather(outer, gather(popped, row)) for row in inner)

    def reach_rows(self, x):
        """efoc(X) as row masks, x the mask of a universe set X; on X x X
        it is the relation A ~X~ B (see module doc)."""
        return self._solved(("efoc", x))

    def keys(self, kind):
        """The number of keys of one kind the solver holds."""
        return sum(key[0] == kind for key in self._val)
