"""Bounded-size summaries of annotated stacks.

A summary compresses an annotated stack word so that only boundedly many
nodes arise while preserving the monoid image of the word.  Summaries of
depth d are built from three layers:

  * a d-atom is a letter together with a summary of strictly smaller
    depth (the part of the stack the letter was pushed onto);
  * a d-block is u_1 .. u_N e+ v_1 .. v_N w where the u_i and v_i are
    nonempty groups of d-atoms all mapping to the same idempotent e
    (e+ stands for an arbitrary positive power of e and counts size 1),
    and w is a trailing group of d-atoms;
  * a d-summary is sub u B_1 .. B_k: a summary sub of smaller depth,
    a word u of d-atoms and a word of d-blocks.

Pushing a letter either starts a deeper summary, recurses into sub,
prepends an atom, folds a long atom word into a block, or merges two
blocks over the same idempotent.  Popping is the inverse relation and
is answered from the edge index of the summary graph, built after the
breadth-first pass, so a cap exit builds none.  A fold over e is looked
for only if at least 2N+1 prefixes of the word map to e: the prefix up
to the end of the j-th group maps to e^j = e.

Summaries and their parts are hash-consed: structurally equal ones are
the same object, so equality is identity and the monoid image, depth
and size are computed once, when the object is made.  A summary of
atoms alone is keyed by its word, which points back at no summary.  A
word of atoms is a cons cell, its first atom and the cell below, so
prepending an atom makes or finds one cell; a cell holds the tables
that find a fold, made only for words long enough to fold.  A push
knows the size of what it makes from sigma's: a new atom adds 1 + the
size of the summary it was pushed onto; only a fold sums the parts.
"""

from __future__ import annotations

from itertools import chain

from .analysis import CapExceeded
from .grammar import Record, sort_key
from .monoid import ONE, ZERO


class Atom:
    __slots__ = ("letter", "tail", "phi", "size")

    def __init__(self, letter, tail, phi):
        self.letter = letter
        self.tail = tail
        self.phi = phi
        self.size = 1 + tail.size

    def __repr__(self):
        return f"Atom({self.letter!r}, {self.tail!r})"


class Block:
    __slots__ = ("us", "e", "vs", "w", "phi", "size")

    def __init__(self, us, e, vs, w, phi):
        self.us = us
        self.e = e
        self.vs = vs
        self.w = w
        self.phi = phi
        self.size = 1 + sum(a.size for g in us + vs + (w,) for a in g)

    def __repr__(self):
        return f"Block(us={self.us!r}, vs={self.vs!r}, w={self.w!r})"


class Word:
    """A word of atoms as a cons cell: its first (topmost) atom, the word
    below or None, and what `_decompose` keeps: `row` (of the first
    position), `can` (levels per idempotent) and `fold` (its last answer)."""

    __slots__ = ("first", "tail", "length", "row", "can", "fold")

    def __iter__(self):
        w = self
        while w is not None:
            yield w.first
            w = w.tail


class Summary:
    __slots__ = ("sub", "atoms", "blocks", "phi", "depth", "size")

    def __init__(self, sub, atoms, blocks, phi, depth, size):
        self.sub = sub
        self.atoms = atoms        # a Word, or None
        self.blocks = blocks
        self.phi = phi
        self.depth = depth
        self.size = size

    def is_empty(self):
        return self.sub is None and self.atoms is None and not self.blocks

    def __repr__(self):
        if self.is_empty():
            return "Summary(empty)"
        atoms = tuple(self.atoms or ())
        return (f"Summary(sub={self.sub!r}, atoms={atoms!r}, "
                f"blocks={self.blocks!r})")


class SummaryFactory:
    """Hash-consing constructors plus the push operation."""

    def __init__(self, monoid):
        self.monoid = monoid
        self.n_groups = len(monoid.analysis.g.symbols.nonterminals)
        self._atoms = {}
        self._blocks = {}
        self._words = {}
        self._summaries = {}
        self.empty = Summary(None, None, (), ONE, 0, 0)

    # -- constructors -------------------------------------------------------

    def atom(self, letter, tail):
        k = (letter, tail)
        a = self._atoms.get(k)
        if a is None:
            phi = self.monoid.product(self.monoid.gens[letter], tail.phi)
            a = self._atoms[k] = Atom(letter, tail, phi)
        return a

    def word(self, first, tail):
        w = self._words.get((first, tail))
        if w is None:
            # fields set here: an __init__ call nearly doubles making a cell
            w = self._words[first, tail] = Word()
            w.first = first
            w.tail = tail
            w.length = 1 if tail is None else 1 + tail.length
            w.row = w.can = w.fold = None
        return w

    def block(self, us, e, vs, w):
        k = (us, e, vs, w)
        b = self._blocks.get(k)
        if b is None:
            seq = [a.phi for g in us for a in g] + [e] + \
                  [a.phi for g in vs for a in g] + [a.phi for a in w]
            b = self._blocks[k] = Block(us, e, vs, w, self.monoid.phi_seq(seq))
        return b

    def summary(self, sub, atoms, blocks, phi, depth, size):
        """The summary sub atoms blocks, of known image, depth and size."""
        if atoms is None and not blocks:
            return sub if sub is not None else self.empty
        # a Word hashes by identity and equals no tuple key
        k = atoms if sub is None and not blocks else (sub, atoms, blocks)
        s = self._summaries.get(k)
        if s is None:
            s = self._summaries[k] = Summary(sub, atoms, blocks, phi, depth,
                                             size)
        return s

    # -- push ---------------------------------------------------------------

    def push_letter(self, letter, sigma, trace=None):
        # trace, a list if given, collects the cases taken
        m = self.monoid
        row = m.left[m.gens[letter]]
        # the image of the pushed stack in every case, as e+ keeps images
        new_phi = row[sigma.phi]
        # a push keeps sigma's depth d unless it deepens: g.x is J-below x
        d, new_d = sigma.depth, m.depth(new_phi)
        if new_d > d:
            if trace is not None:
                trace.append("deepen")
            s = self.word(self.atom(letter, sigma), None)
            return self.summary(None, s, (), new_phi, new_d, 1 + sigma.size)
        sub = sigma.sub if sigma.sub is not None else self.empty
        if m.depth(row[sub.phi]) < d:
            if trace is not None:
                trace.append("recurse")
            r = self.push_letter(letter, sub, trace)
            return self.summary(r, sigma.atoms, sigma.blocks, new_phi, d,
                                r.size + sigma.size - sub.size)  # r for sub
        s = self.word(self.atom(letter, sub), sigma.atoms)
        # a word shorter than 2N+1 has no fold
        dec = self._decompose(s) if s.length > 2 * self.n_groups else None
        if dec is None:
            if trace is not None:
                trace.append("atom")
            return self.summary(None, s, sigma.blocks, new_phi, d,
                                1 + sigma.size)
        e, groups, w = dec
        us, vs = groups[:self.n_groups], groups[self.n_groups + 1:]
        blocks = sigma.blocks
        for j in range(len(blocks), 0, -1):
            bj = blocks[j - 1]
            infix = chain(*vs, w, blocks[:j - 1], *bj.us)
            if bj.e is e and m.phi_seq(x.phi for x in infix) is e:
                case = f"merge@{j}"
                blocks = (self.block(us, e, bj.vs, bj.w),) + blocks[j:]
                break
        else:
            case = "block"
            blocks = (self.block(us, e, vs, w),) + blocks
        if trace is not None:
            trace.append(case)
        return self.summary(None, None, blocks, new_phi, d,
                            sum(b.size for b in blocks))

    def _decompose(self, s):
        """Split the `Word` s into 2N+1 groups with a common idempotent
        image e and a remainder, if possible: e, groups and remainder.
        Group lengths are chosen shortest first, left to right; two
        idempotents never tie, as equal lengths give the same first group.
        The answer is kept on s, as a word is often met again.

        Positions of s are bits of ints, position p being bit n - p (its
        distance from the right end).  The row of p maps each element to
        the set of ends q > p with phi(s[p:q]) equal to it.  The
        candidates are the idempotents e with 2N+1 ends in the row of 0,
        since the prefix up to the end of the j-th group maps to e^j = e;
        this bound spares most words the levels.  For a candidate e,
        can[k] holds p iff s[p:] starts with k groups of image e, that is
        iff row(p)[e] meets can[k - 1].  The shortest first group from p
        ends at the highest bit of that intersection.
        """
        n = s.length
        k_groups = 2 * self.n_groups + 1
        if s.fold is not None and s.fold[0] == k_groups:
            return s.fold[1]
        self._segment_rows(s)
        idempotents = self.monoid.idempotents
        best = None
        for e, ends in s.row.items():
            if e is ONE or e not in idempotents or ends.bit_count() < k_groups:
                continue
            can = self._levels(s, e)
            if len(can) <= k_groups or not can[k_groups] >> n:
                continue
            # group ends in order compare as the group lengths do
            cuts, suffix = [0], s
            for k in range(k_groups, 0, -1):
                end = n + 1 - (suffix.row[e] & can[k - 1]).bit_length()
                for _ in range(end - cuts[-1]):
                    suffix = suffix.tail
                cuts.append(end)
            if best is None or cuts < best[0]:
                best = (cuts, e)
        if best is not None:
            cuts, e = best
            atoms = tuple(s)
            best = (e, tuple(atoms[i:j] for i, j in zip(cuts, cuts[1:])),
                    atoms[cuts[-1]:])
        s.fold = (k_groups, best)
        return best

    def _segment_rows(self, s):
        """Fill in the rows missing down the cells of s, bottom up: as
        bits count from the right end, the row of a cell with first atom a
        maps a.phi.x, read from the product row of a.phi, to the ends of x
        for each x in its tail's row, and a.phi to the end 1."""
        missing = []
        while s is not None and s.row is None:
            missing.append(s)
            s = s.tail
        left = self.monoid.left
        for s in reversed(missing):
            a = s.first.phi
            row = {a: 1 << (s.length - 1)}
            if s.tail is not None:
                prod = left[a]
                for x, ends in s.tail.row.items():
                    y = prod[x]
                    row[y] = row.get(y, 0) | ends
            s.row = row

    def _levels(self, s, e):
        """can[0], can[1], .. of `_decompose` for the word s and the
        idempotent e, up to the last nonzero one.  A word's levels are
        its tail's plus its first position, which is in can[0] and is in
        can[k] iff its row[e] meets can[k - 1].  Each cell keeps them per
        e, filled in up from the longest suffix that has them; all nonzero
        levels are kept, whatever the group count.
        """
        missing = []
        while s is not None and e not in (s.can or ()):
            missing.append(s)
            s = s.tail
        levels = s.can[e] if s is not None else [1]
        for s in reversed(missing):
            bit = 1 << s.length
            ends = s.row.get(e, 0)
            new = [levels[0] | bit] + [
                level | bit if ends & below else level
                for below, level in zip(levels, levels[1:])]
            if ends & levels[-1]:
                new.append(bit)
            s.can = s.can or {}
            s.can[e] = levels = new
        return levels

# ---------------------------------------------------------------------------
# summary graph


class SummaryGraph(Record):
    """The summaries in construction order ([0] empty) and their ids;
    edges: (src, letter) -> target; inverse: (letter, target) -> srcs."""

    __slots__ = ("nodes", "ids", "edges", "inverse")

    def push(self, letter, sigma):
        return self.edges.get((sigma, letter))

    def pop(self, letter, sigma):
        """All summaries whose push by `letter` yields `sigma`, in the
        graph's own list: read it, do not change it."""
        return self.inverse.get((letter, sigma), ())


def build_summary_graph(factory, letters, cap=4096):
    """Breadth-first closure of the empty summary under feasible pushes;
    the edges and pops are indexed after the pass, in its push order."""
    m = factory.monoid
    rows = [(letter, m.left[m.gens[letter]])
            for letter in sorted(letters, key=sort_key)]
    nodes = [factory.empty]
    ids = {factory.empty: 0}
    targets = []
    feasible = {}   # image -> the letters whose push keeps it nonzero
    i = 0
    while i < len(nodes):
        sigma = nodes[i]
        i += 1
        pushes = feasible.get(sigma.phi)
        if pushes is None:
            pushes = feasible[sigma.phi] = [
                letter for letter, row in rows if row[sigma.phi] is not ZERO]
        for letter in pushes:
            tgt = factory.push_letter(letter, sigma)
            targets.append(tgt)
            if tgt not in ids:
                if len(nodes) >= cap:
                    raise CapExceeded.of("summary graph", len(nodes) + 1,
                                         "summaries", cap, "--max-summaries")
                ids[tgt] = len(nodes)
                nodes.append(tgt)
    targets, edges, inverse = iter(targets), {}, {}
    for sigma in nodes:
        for letter in feasible[sigma.phi]:
            tgt = edges[sigma, letter] = next(targets)
            inverse.setdefault((letter, tgt), []).append(sigma)
    return SummaryGraph(nodes, ids, edges, inverse)
