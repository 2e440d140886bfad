"""The finite monoid abstracting annotated stack contents.

Elements are either the unit, a zero, or tuples (B, Y, M, A, X) read as:
a stack segment that is pushed while (A, X) is on top of an X-annotated
context, whose topmost letter was pushed onto (B, Y), and whose focus
matrix M records which nonterminal pairs the segment can route between.
A and B are indices into `Analysis.nts`, X and Y masks and M row masks,
as the analysis solves them.

The product multiplies the topmost segment on the left.  A morphism phi
maps annotated stack letters (topmost letter leftmost) into the monoid;
a stack is feasible exactly when its image is not the zero.  Two
segments x2 . x1 join when x2.x = x1.y and x1.b routes to x2.a at that
level, one bit of the analysis's same-level focus `reach_rows(x2.x)`.
Both lie in x2.x (a letter's B in its act set, its A in its own set),
where that focus is the relation ~X~, so the bit needs no restriction.
Feasibility never reads M, but the summaries need it to tell segments
apart: in the parity witness of `tests/test_differential.py`, f^k is
popped by two nonterminals of opposite parity, so the word depends on
whether k is even.  Without M, f^k has one idempotent image, the two
parities merge and the closure gains aa and bb.
A monoid interns its elements, so equality of elements is identity and
every table keys them by the objects themselves.  Products are kept in
one row per left factor, `left[x2][x1]` = x2 . x1, each formed on its
first read: a caller multiplying by one x2 fetches its row once.

The submonoid generated by the letter images is enumerated breadth-first
by multiplying with generators on both sides, which yields its left and
right Cayley graphs (Froidure & Pin, "Algorithms for computing finite
semigroups", 1997).  x is J-above y exactly when y is reachable from x in
their union, so the J-classes are its strongly connected components.  One
pass over them gives the regular J-depth of every element, which bounds
how summaries grow.
"""

from __future__ import annotations

from functools import partial

from .analysis import CapExceeded, gather
from .cfg import sccs
from .grammar import Record, _set, sort_key


class _Unit:
    __slots__ = ()

    def __repr__(self):
        return "ONE"


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


ONE = _Unit()
ZERO = _Zero()


class Seg(Record, frozen=True):
    """A non-trivial monoid element (B, Y, M, A, X).

    Elements are interned by their fields (`StackMonoid._intern`), so
    they compare and hash by identity.
    """

    __slots__ = ("b", "y", "m", "a", "x")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, b, y, m, a, x):
        _set(self, "b", b)
        _set(self, "y", y)
        _set(self, "m", m)   # boolean matrix as a tuple of row masks
        _set(self, "a", a)
        _set(self, "x", x)


class _Memo(dict):
    """A dict whose missing value is made from its key by `make`."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _mul(analysis, intern, x2, x1):
    """x2 . x1, where a product of two segments is interned in `intern`."""
    if x2 is ONE:
        return x1
    if x1 is ONE:
        return x2
    if x2 is ZERO or x1 is ZERO:
        return ZERO
    if x2.x == x1.y and analysis.reach_rows(x2.x)[x1.b] >> x2.a & 1:
        m = tuple(gather(x1.m, row) for row in x2.m)
        return intern[x2.b, x2.y, m, x1.a, x1.x]
    return ZERO


class StackMonoid:
    """The submonoid generated by the images of the annotated letters."""

    def __init__(self, analysis, letters, cap=4096):
        self.analysis = analysis
        self.cap = cap
        self._intern = _Memo(lambda fields: Seg(*fields))
        # the rows hold the analysis and the elements, not the monoid, so
        # no reference cycle keeps a dropped monoid alive
        mul = partial(_mul, analysis, self._intern)
        self.left = _Memo(lambda x2: _Memo(partial(mul, x2)))
        self.gens = {}
        for letter in sorted(letters, key=sort_key):
            self.gens[letter] = self._phi_letter(letter)
        self.elements, below = self._closure()
        self.idempotents, self._depth, self._j_length = self._j_data(below)

    def _phi_letter(self, letter):
        f, X = letter
        an = self.analysis
        x = an.mask(X)
        return self._intern[an.index[an.g.beta(f)], an.act_mask(f, x),
                            an.focus_rows(f, x), an.index[an.g.alpha(f)], x]

    def product(self, x2, x1):
        """x2 . x1 where x2 abstracts the part of the stack above x1."""
        return self.left[x2][x1]

    def phi_seq(self, values):
        """Left-to-right product of already-mapped values."""
        out = ONE
        for v in reversed(list(values)):
            out = self.left[v][out]
        return out

    def _closure(self):
        """The elements, breadth-first from ONE, and the two-sided Cayley
        graph: below[i] holds the indices of g.x and x.g for x =
        elements[i] and every generator g.

        ZERO is J-below every element, being ZERO.x, even when no product
        of generators is ZERO; it is then appended, and every element gets
        an edge to it.
        """
        gens = list(dict.fromkeys(self.gens.values()))
        elems = [ONE]
        index = {ONE: 0}
        below = []
        for x in elems:   # elems grows while it is scanned
            succ = set()
            for g in gens:
                for z in (self.product(g, x), self.product(x, g)):
                    i = index.get(z)
                    if i is None:
                        if len(elems) >= self.cap:
                            raise CapExceeded.of(
                                "stack monoid", len(elems) + 1, "elements",
                                self.cap, "--max-monoid")
                        i = index[z] = len(elems)
                        elems.append(z)
                    succ.add(i)
            below.append(succ)
        if ZERO not in index:
            index[ZERO] = len(elems)
            elems.append(ZERO)
            below.append(set())
        for succ in below:
            succ.add(index[ZERO])
        return elems, below

    # -- Green's relations and regular J-depth ------------------------------

    def _j_data(self, below):
        """The idempotents, the depth of every element and the J-length.

        The J-classes are the components of the Cayley graph `below`.
        `sccs` emits a component after every component it reaches, so the
        reversed list visits each class after all classes above it.
        above[i] is the longest chain of idempotent J-classes strictly
        above the class of elements[i]; a class passes that chain, plus
        itself if it holds an idempotent, down its outgoing edges.
        """
        elems = self.elements
        idem = [self.product(x, x) is x for x in elems]
        above = [0] * len(elems)
        depth = {}
        j_length = 0
        for comp in reversed(sccs(below, range(len(elems)))):
            d = max(above[i] for i in comp)
            chain = d + any(idem[i] for i in comp)
            j_length = max(j_length, chain)
            for i in comp:
                depth[elems[i]] = d
                # an edge inside comp is harmless: d is already read
                for j in below[i]:
                    above[j] = max(above[j], chain)
        return frozenset(x for x, e in zip(elems, idem) if e), depth, j_length

    def depth(self, x):
        """Regular J-depth: the longest chain of idempotent J-classes
        strictly above x."""
        return self._depth[x]

    def j_length(self):
        """The longest chain of idempotent J-classes."""
        return self._j_length
