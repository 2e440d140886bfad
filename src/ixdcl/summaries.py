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
is answered from the edge index of the summary graph.  The tables that
find a fold are kept per suffix of an atom word, so a push extends them
by its one new position.

All summaries are hash-consed: structurally equal summaries are the
same object, so equality is identity and the monoid image and depth
are computed once; the size is computed on its first read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import CapExceeded
from .grammar import sort_key
from .monoid import ONE, ZERO


class _Sized:
    """`size` is summed over the parts on its first read: a push builds
    many summaries, and few of their readers ask for a size."""

    __slots__ = ("_size",)

    @property
    def size(self):
        if not hasattr(self, "_size"):
            self._size = self._sum_size()
        return self._size


class Atom(_Sized):
    __slots__ = ("letter", "tail", "phi", "depth")

    def __init__(self, letter, tail, phi, depth):
        self.letter = letter
        self.tail = tail
        self.phi = phi
        self.depth = depth

    def _sum_size(self):
        return 1 + self.tail.size

    def __repr__(self):
        return f"Atom({self.letter!r}, {self.tail!r})"


class Block(_Sized):
    __slots__ = ("us", "e", "vs", "w", "phi")

    def __init__(self, us, e, vs, w, phi):
        self.us = us
        self.e = e
        self.vs = vs
        self.w = w
        self.phi = phi

    def _sum_size(self):
        return (sum(a.size for g in self.us for a in g) + 1 +
                sum(a.size for g in self.vs for a in g) +
                sum(a.size for a in self.w))

    def __repr__(self):
        return f"Block(us={self.us!r}, vs={self.vs!r}, w={self.w!r})"


class Summary(_Sized):
    __slots__ = ("sub", "atoms", "blocks", "phi", "depth")

    def __init__(self, sub, atoms, blocks, phi, depth):
        self.sub = sub
        self.atoms = atoms
        self.blocks = blocks
        self.phi = phi
        self.depth = depth

    def _sum_size(self):
        return ((self.sub.size if self.sub is not None else 0) +
                sum(a.size for a in self.atoms) +
                sum(b.size for b in self.blocks))

    def is_empty(self):
        return self.sub is None and not self.atoms and not self.blocks

    def __repr__(self):
        if self.is_empty():
            return "Summary(empty)"
        return (f"Summary(sub={self.sub!r}, atoms={self.atoms!r}, "
                f"blocks={self.blocks!r})")


class _Suffix:
    """One suffix of an atom word for `_decompose`: the row of its first
    position, the levels `can` per idempotent, and its tail or None."""

    __slots__ = ("row", "can", "tail")

    def __init__(self, row, tail):
        self.row = row
        self.can = {}
        self.tail = tail


class SummaryFactory:
    """Hash-consing constructors plus the push operation."""

    def __init__(self, monoid):
        self.monoid = monoid
        self.n_groups = len(monoid.analysis.g.symbols.nonterminals)
        self._atoms = {}
        self._blocks = {}
        self._summaries = {}
        self._suffixes = {}   # atoms of a suffix -> its _Suffix
        self.empty = Summary(None, (), (), ONE, 0)

    # -- constructors -------------------------------------------------------

    def atom(self, letter, tail):
        k = (letter, tail)
        if k not in self._atoms:
            phi = self.monoid.product(self.monoid.gens[letter], tail.phi)
            self._atoms[k] = Atom(letter, tail, phi, self.monoid.depth(phi))
        return self._atoms[k]

    def block(self, us, e, vs, w):
        k = (us, e, vs, w)
        if k not in self._blocks:
            seq = [a.phi for g in us for a in g] + [e] + \
                  [a.phi for g in vs for a in g] + [a.phi for a in w]
            self._blocks[k] = Block(us, e, vs, w, self.monoid.phi_seq(seq))
        return self._blocks[k]

    def summary(self, sub, atoms, blocks, phi):
        """The summary sub atoms blocks; the caller knows its image phi."""
        if not atoms and not blocks:
            return sub if sub is not None else self.empty
        k = (sub, atoms, blocks)
        if k not in self._summaries:
            self._summaries[k] = Summary(sub, atoms, blocks, phi,
                                         self.monoid.depth(phi))
        return self._summaries[k]

    # -- push ---------------------------------------------------------------

    def push_letter(self, letter, sigma, trace=None):
        m = self.monoid
        phi_l = m.gens[letter]
        # the image of the pushed stack in every case, as e+ keeps images
        new_phi = m.product(phi_l, sigma.phi)
        d_new = m.depth(new_phi)
        d = sigma.depth
        if d_new > d:
            if trace is not None:
                trace.append("deepen")
            return self.summary(None, (self.atom(letter, sigma),), (),
                                new_phi)
        sub = sigma.sub if sigma.sub is not None else self.empty
        sub_phi = m.product(phi_l, sub.phi)
        if m.depth(sub_phi) < d:
            if trace is not None:
                trace.append("recurse")
            return self.summary(self.push_letter(letter, sub, trace),
                                sigma.atoms, sigma.blocks, new_phi)
        s = (self.atom(letter, sub),) + sigma.atoms
        dec = self._decompose(s)
        if dec is None:
            if trace is not None:
                trace.append("atom")
            return self.summary(None, s, sigma.blocks, new_phi)
        e, groups, w = dec
        n = self.n_groups
        us, vs = groups[:n], groups[n + 1:]
        blocks = sigma.blocks
        for j in range(len(blocks), 0, -1):
            bj = blocks[j - 1]
            if bj.e is not e:
                continue
            infix = ([a.phi for g in vs for a in g] +
                     [a.phi for a in w] +
                     [b.phi for b in blocks[:j - 1]] +
                     [a.phi for g in bj.us for a in g])
            if m.phi_seq(infix) is e:
                if trace is not None:
                    trace.append(f"merge@{j}")
                merged = self.block(us, e, bj.vs, bj.w)
                return self.summary(None, (), (merged,) + blocks[j:],
                                    new_phi)
        if trace is not None:
            trace.append("block")
        return self.summary(None, (),
                            (self.block(us, e, vs, w),) + blocks, new_phi)

    def _decompose(self, s):
        """Split the atom word s into 2N+1 groups with a common idempotent
        image followed by a remainder, if possible.

        Among admissible splits the group lengths are chosen shortest
        first, left to right.  Two idempotents never tie: equal lengths
        give the same first group, which has only one image.

        Positions of s are bits of ints, position p being bit n - p (its
        distance from the right end).  The row of p maps each element to
        the set of ends q > p with phi(s[p:q]) equal to it.
        The candidates are the idempotents in the row of 0, the prefix
        images.  For a candidate e, can[k] holds p iff s[p:] starts with
        k groups of image e, that is iff row(p)[e] meets can[k - 1].  The
        shortest first group from p ends at the highest bit of that
        intersection.
        """
        m = self.monoid
        n = len(s)
        # rows of a short s too: the next push extends it by one atom
        top = self._segment_rows(s)
        k_groups = 2 * self.n_groups + 1
        if n < k_groups:
            return None
        best = None
        for e in top.row:
            if e is ONE or m.product(e, e) is not e:
                continue
            can = self._levels(top, n, e)
            if len(can) <= k_groups or not can[k_groups] >> n:
                continue
            # group ends in order compare as the group lengths do
            cuts = [0]
            suffix = top
            for k in range(k_groups, 0, -1):
                end = n + 1 - (suffix.row[e] & can[k - 1]).bit_length()
                for _ in range(end - cuts[-1]):
                    suffix = suffix.tail
                cuts.append(end)
            if best is None or cuts < best[0]:
                best = (cuts, e)
        if best is None:
            return None
        cuts, e = best
        return (e, tuple(tuple(s[i:j]) for i, j in zip(cuts, cuts[1:])),
                tuple(s[cuts[-1]:]))

    def _segment_rows(self, s):
        """The `_Suffix` of s, whose tails hold the row of every position.

        A row depends only on the suffix it starts, since bits count from
        the right end, so the tables of each suffix are kept: a push
        prepends one atom a to a word whose suffix is known, and the row
        of the new first position maps a.phi.x for each element x of the
        old first row to the same ends, plus a.phi to the end 1.
        """
        m = self.monoid
        n = len(s)
        known = n
        while known and s[n - known:] not in self._suffixes:
            known -= 1
        suffix = self._suffixes.get(s[n - known:])   # None for ()
        for pos in range(n - known - 1, -1, -1):
            a = s[pos].phi
            row = {a: 1 << (n - pos - 1)}
            if suffix is not None:
                for x, ends in suffix.row.items():
                    y = m.product(a, x)
                    row[y] = row.get(y, 0) | ends
            suffix = self._suffixes[s[pos:]] = _Suffix(row, suffix)
        return suffix

    def _levels(self, suffix, n, e):
        """can[0], can[1], .. of `_decompose` up to the last nonzero one,
        for the suffix of length n and the idempotent e.

        A suffix's levels are its tail's plus its first position, which
        is in can[0] and is in can[k] iff its row[e] meets can[k - 1].
        They are kept per suffix and idempotent, and an unknown suffix is
        extended up from the longest known one below it.  Every nonzero
        level is kept, so the levels do not depend on the group count.
        """
        chain = []
        while suffix is not None and e not in suffix.can:
            chain.append(suffix)
            suffix = suffix.tail
        levels = suffix.can[e] if suffix is not None else [1]
        bit = 1 << (n - len(chain))
        for suffix in reversed(chain):
            bit <<= 1
            ends = suffix.row.get(e, 0)
            new = [levels[0] | bit] + [
                level | bit if ends & below else level
                for below, level in zip(levels, levels[1:])]
            if ends & levels[-1]:
                new.append(bit)
            suffix.can[e] = levels = new
        return levels

    # -- validation ---------------------------------------------------------

    def validate(self, sigma):
        """Structural well-formedness diagnostics (empty when valid)."""
        out = []
        m = self.monoid

        def walk(s):
            if s.is_empty():
                return
            d = s.depth
            if m.depth(s.phi) != d:
                out.append(f"summary depth mismatch: {s!r}")
            if s.sub is not None:
                if s.sub.depth >= d:
                    out.append(f"sub summary too deep: {s!r}")
                walk(s.sub)
            for a in s.atoms:
                check_atom(a, d)
            for b in s.blocks:
                check_block(b, d)

        def check_atom(a, d):
            if a.depth != d:
                out.append(f"atom depth {a.depth} in depth-{d} summary")
            if a.tail.depth >= d:
                out.append(f"atom tail too deep: {a!r}")
            if m.product(m.gens[a.letter], a.tail.phi) != a.phi:
                out.append(f"atom image mismatch: {a!r}")
            walk(a.tail)

        def check_block(b, d):
            if len(b.us) != self.n_groups or len(b.vs) != self.n_groups:
                out.append(f"block group count != {self.n_groups}: {b!r}")
            if b.e is ONE or m.product(b.e, b.e) != b.e:
                out.append(f"block over a non-idempotent: {b!r}")
            for g in b.us + b.vs:
                if not g:
                    out.append(f"empty block group: {b!r}")
                elif m.phi_seq([a.phi for a in g]) != b.e:
                    out.append(f"block group image differs from e: {b!r}")
            for g in b.us + b.vs + (b.w,):
                for a in g:
                    check_atom(a, d)

        walk(sigma)
        return out


# ---------------------------------------------------------------------------
# summary graph


@dataclass
class SummaryGraph:
    letters: list
    nodes: list            # summaries in construction order; nodes[0] empty
    ids: dict              # summary -> index
    edges: dict            # (src summary, letter) -> target summary
    inverse: dict          # (letter, target summary) -> list of sources

    def push(self, letter, sigma):
        return self.edges.get((sigma, letter))

    def pop(self, letter, sigma):
        """All summaries whose push by `letter` yields `sigma`."""
        return list(self.inverse.get((letter, sigma), ()))


def build_summary_graph(factory, letters, cap=4096):
    """Breadth-first closure of the empty summary under feasible pushes."""
    letters = sorted(letters, key=sort_key)
    m = factory.monoid
    nodes = [factory.empty]
    ids = {factory.empty: 0}
    edges = {}
    inverse = {}
    i = 0
    while i < len(nodes):
        sigma = nodes[i]
        i += 1
        for letter in letters:
            if m.product(m.gens[letter], sigma.phi) is ZERO:
                continue
            tgt = factory.push_letter(letter, sigma)
            edges[(sigma, letter)] = tgt
            inverse.setdefault((letter, tgt), []).append(sigma)
            if tgt not in ids:
                if len(nodes) >= cap:
                    raise CapExceeded("summary graph cap exceeded")
                ids[tgt] = len(nodes)
                nodes.append(tgt)
    return SummaryGraph(letters, nodes, ids, edges, inverse)
