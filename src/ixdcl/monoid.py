"""The finite monoid abstracting annotated stack contents.

Elements are either the unit, a zero, or tuples (B, Y, M, A, X) read as:
a stack segment that is pushed while (A, X) is on top of an X-annotated
context, whose topmost letter was pushed onto (B, Y), and whose focus
matrix M records which nonterminal pairs the segment can route between.

The product multiplies the topmost segment on the left.  A morphism phi
maps annotated stack letters (topmost letter leftmost) into the monoid;
a stack is feasible exactly when its image is not the zero.

The module also computes Green's relations, idempotents and the regular
J-depth on the generated submonoid, which bound how summaries grow.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class Seg:
    """A non-trivial monoid element (B, Y, M, A, X)."""

    b: object
    y: frozenset
    m: frozenset   # boolean matrix as a set of (nonterminal, nonterminal)
    a: object
    x: frozenset


def mat_mul(m2, m1):
    """Boolean matrix product: (m2 . m1)(d, c) iff m2(d, e) and m1(e, c)."""
    by_src = {}
    for (e, c) in m1:
        by_src.setdefault(e, set()).add(c)
    return frozenset((d, c) for (d, e) in m2 for c in by_src.get(e, ()))


def element_key(x):
    """A canonical, order-stable sort key for monoid elements."""
    if x is ONE:
        return (0,)
    if x is ZERO:
        return (2,)
    return (1, str(x.b), sorted(map(str, x.y)), sorted(map(str, x.m)),
            str(x.a), sorted(map(str, x.x)))


class StackMonoid:
    """The submonoid generated by the images of the annotated letters."""

    def __init__(self, analysis, letters, cap=4096):
        self.analysis = analysis
        self.cap = cap
        self._prod = {}
        self._intern = {}
        self.gens = {}
        for letter in sorted(letters, key=str):
            self.gens[letter] = self._mk(self._phi_letter(letter))
        self.elements = self._closure()
        self._green = None

    def _mk(self, seg):
        """Intern elements so structural equality is object identity."""
        return self._intern.setdefault(seg, seg)

    def _phi_letter(self, letter):
        f, X = letter
        g = self.analysis.g
        return Seg(g.beta(f), self.analysis.act(f, X),
                   self.analysis.matrix(f, X), g.alpha(f), X)

    def product(self, x2, x1):
        """x2 . x1 where x2 abstracts the part of the stack above x1.

        The memo is keyed by the identities of the operands, which is
        exact because every element this monoid hands out is interned by
        `_mk`.  Each entry keeps both operands alive, so an id in a key is
        never reused by another object.
        """
        if x2 is ONE:
            return x1
        if x1 is ONE:
            return x2
        if x2 is ZERO or x1 is ZERO:
            return ZERO
        key = (id(x2), id(x1))
        hit = self._prod.get(key)
        if hit is None:
            if x2.x == x1.y and (x1.b, x2.a) in self.analysis.reach(x2.x):
                out = self._mk(Seg(x2.b, x2.y, mat_mul(x2.m, x1.m),
                                   x1.a, x1.x))
            else:
                out = ZERO
            hit = self._prod[key] = (out, x2, x1)
        return hit[0]

    def phi(self, word):
        """Image of an annotated stack word (topmost letter first)."""
        out = ONE
        for letter in reversed(word):
            out = self.product(self.gens[letter], out)
        return out

    def phi_seq(self, values):
        """Left-to-right product of already-mapped values."""
        out = ONE
        for v in reversed(list(values)):
            out = self.product(v, out)
        return out

    def _closure(self):
        elems = [ONE]
        seen = {ONE}
        queue = list(dict.fromkeys(self.gens.values()))
        for x in queue:
            if x not in seen:
                seen.add(x)
                elems.append(x)
        i = 1
        while i < len(elems):
            x = elems[i]
            i += 1
            for y in list(elems):
                for z in (self.product(x, y), self.product(y, x)):
                    if z not in seen:
                        if len(elems) >= self.cap:
                            from .analysis import CapExceeded
                            raise CapExceeded("stack monoid cap exceeded")
                        seen.add(z)
                        elems.append(z)
        if ZERO not in seen:
            elems.append(ZERO)
        return elems

    # -- feasibility --------------------------------------------------------

    def feasible_stack(self, word):
        return bool(word) and self.phi(word) is not ZERO

    def feasible_term(self, nt, word):
        """May the annotated term nt[word] occur in a derivation?"""
        A, X = nt
        if not word:
            return A in X
        v = self.phi(word)
        if v is ZERO:
            return False
        f, Xn = word[0]
        return X == self.analysis.act(f, Xn) and \
            (self.analysis.g.beta(f), A) in self.analysis.reach(X)

    # -- Green's relations and regular J-depth ------------------------------

    def _green_data(self):
        if self._green is not None:
            return self._green
        elems = self.elements
        ideal = {}    # y -> set of elements a.y.b (the two-sided ideal)
        for y in elems:
            left = {self.product(a, y) for a in elems}
            ideal[y] = {self.product(v, b) for v in left for b in elems}
        def j_below(x, y):
            return x in ideal[y]
        j_class = {}
        for x in elems:
            j_class[x] = frozenset(z for z in elems
                                   if j_below(x, z) and j_below(z, x))
        idem = [x for x in elems if self.product(x, x) == x]
        idem_classes = sorted({j_class[e] for e in idem},
                              key=lambda c: sorted(map(element_key, c)))
        # longest chain of idempotent J-classes ending at each class
        chain = {}
        def chain_len(c):
            if c not in chain:
                chain[c] = 0   # break cycles defensively; order is strict
                best = 1
                x = next(iter(c))
                for c2 in idem_classes:
                    if c2 == c:
                        continue
                    y = next(iter(c2))
                    if j_below(x, y) and not j_below(y, x):
                        best = max(best, 1 + chain_len(c2))
                chain[c] = best
            return chain[c]
        for c in idem_classes:
            chain_len(c)
        depth = {}
        for x in elems:
            best = 0
            for c in idem_classes:
                y = next(iter(c))
                if j_below(x, y) and not j_below(y, x):
                    best = max(best, chain[c])
            depth[x] = best
        self._green = {
            "ideal": ideal,
            "j_class": j_class,
            "idempotents": idem,
            "idem_classes": idem_classes,
            "chain": chain,
            "depth": depth,
        }
        return self._green

    def idempotents(self):
        return list(self._green_data()["idempotents"])

    def depth(self, x):
        """Regular J-depth: the longest chain of idempotent J-classes
        strictly above x."""
        return self._green_data()["depth"][x]

    def j_length(self):
        g = self._green_data()
        return max(g["chain"].values(), default=0)

    def h_classes(self):
        elems = self.elements
        lset = {y: frozenset(self.product(a, y) for a in elems)
                for y in elems}
        rset = {y: frozenset(self.product(y, b) for b in elems)
                for y in elems}
        def l_eq(x, y):
            return x in lset[y] and y in lset[x]
        def r_eq(x, y):
            return x in rset[y] and y in rset[x]
        out = []
        done = set()
        for x in elems:
            if x in done:
                continue
            h = frozenset(y for y in elems if l_eq(x, y) and r_eq(x, y))
            done |= h
            out.append(h)
        return out
