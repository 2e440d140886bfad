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
find a fold are built only for atom words long enough to fold, and kept
per suffix, so a push extends them by its new positions.  A fold over e
is looked for only if at least 2N+1 prefixes of the word map to e: the
prefix up to the end of the j-th group maps to e^j = e.

All summaries are hash-consed: structurally equal summaries are the
same object, so equality is identity and the monoid image, depth and
size are computed once, when the object is made.  A push knows the size
of what it makes from sigma's: a new atom adds 1 + the size of the
summary it was pushed onto; only a fold sums the parts.
"""

from __future__ import annotations

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


class Summary:
    __slots__ = ("sub", "atoms", "blocks", "phi", "depth", "size")

    def __init__(self, sub, atoms, blocks, phi, depth, size):
        self.sub = sub
        self.atoms = atoms
        self.blocks = blocks
        self.phi = phi
        self.depth = depth
        self.size = size

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
        self.empty = Summary(None, (), (), ONE, 0, 0)

    # -- constructors -------------------------------------------------------

    def atom(self, letter, tail):
        k = (letter, tail)
        a = self._atoms.get(k)
        if a is None:
            phi = self.monoid.product(self.monoid.gens[letter], tail.phi)
            a = self._atoms[k] = Atom(letter, tail, phi)
        return a

    def block(self, us, e, vs, w):
        k = (us, e, vs, w)
        b = self._blocks.get(k)
        if b is None:
            seq = [a.phi for g in us for a in g] + [e] + \
                  [a.phi for g in vs for a in g] + [a.phi for a in w]
            b = self._blocks[k] = Block(us, e, vs, w, self.monoid.phi_seq(seq))
        return b

    def summary(self, sub, atoms, blocks, phi, size):
        """The summary sub atoms blocks; the caller knows its image phi
        and its size."""
        if not atoms and not blocks:
            return sub if sub is not None else self.empty
        k = (sub, atoms, blocks)
        s = self._summaries.get(k)
        if s is None:
            s = self._summaries[k] = Summary(sub, atoms, blocks, phi,
                                             self.monoid.depth(phi), size)
        return s

    # -- push ---------------------------------------------------------------

    def push_letter(self, letter, sigma, trace=None):
        trace = [] if trace is None else trace   # the cases taken
        m = self.monoid
        row = m.left[m.gens[letter]]
        # the image of the pushed stack in every case, as e+ keeps images
        new_phi = row[sigma.phi]
        d = sigma.depth
        if m.depth(new_phi) > d:
            trace.append("deepen")
            return self.summary(None, (self.atom(letter, sigma),), (),
                                new_phi, 1 + sigma.size)
        sub = sigma.sub if sigma.sub is not None else self.empty
        if m.depth(row[sub.phi]) < d:
            trace.append("recurse")
            r = self.push_letter(letter, sub, trace)
            return self.summary(r, sigma.atoms, sigma.blocks, new_phi,
                                r.size + sigma.size - sub.size)  # r for sub
        s = (self.atom(letter, sub),) + sigma.atoms
        dec = self._decompose(s)
        if dec is None:
            trace.append("atom")
            return self.summary(None, s, sigma.blocks, new_phi,
                                1 + sigma.size)
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
                trace.append(f"merge@{j}")
                merged = (self.block(us, e, bj.vs, bj.w),) + blocks[j:]
                return self.summary(None, (), merged, new_phi,
                                    sum(b.size for b in merged))
        trace.append("block")
        blocks = (self.block(us, e, vs, w),) + blocks
        return self.summary(None, (), blocks, new_phi,
                            sum(b.size for b in blocks))

    def _decompose(self, s):
        """Split the atom word s into 2N+1 groups with a common idempotent
        image followed by a remainder, if possible.

        Among admissible splits the group lengths are chosen shortest
        first, left to right.  Two idempotents never tie: equal lengths
        give the same first group, which has only one image.

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
        n = len(s)
        k_groups = 2 * self.n_groups + 1
        if n < k_groups:
            return None
        top = self._segment_rows(s)
        idempotents = self.monoid.idempotents
        best = None
        for e, ends in top.row.items():
            if e is ONE or e not in idempotents or ends.bit_count() < k_groups:
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
        the right end, so the tables of each suffix are kept, and those of
        s are extended from its longest known suffix one atom a at a time:
        the row of the new first position maps a.phi.x, read from the
        product row of a.phi, to the ends of x for each x in the old first
        row, and a.phi to the end 1.
        """
        left = self.monoid.left
        n = len(s)
        known = n
        while known and s[n - known:] not in self._suffixes:
            known -= 1
        suffix = self._suffixes.get(s[n - known:])   # None for ()
        for pos in range(n - known - 1, -1, -1):
            a = s[pos].phi
            row = {a: 1 << (n - pos - 1)}
            if suffix is not None:
                prod = left[a]
                for x, ends in suffix.row.items():
                    y = prod[x]
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

# ---------------------------------------------------------------------------
# summary graph


class SummaryGraph(Record):
    __slots__ = ("nodes", "ids", "edges", "inverse")

    def __init__(self, nodes, ids, edges, inverse):
        self.nodes = nodes        # summaries in construction order; [0] empty
        self.ids = ids            # summary -> index
        self.edges = edges        # (src summary, letter) -> target summary
        self.inverse = inverse    # (letter, target summary) -> sources

    def push(self, letter, sigma):
        return self.edges.get((sigma, letter))

    def pop(self, letter, sigma):
        """All summaries whose push by `letter` yields `sigma`, in the
        graph's own list: read it, do not change it."""
        return self.inverse.get((letter, sigma), ())


def build_summary_graph(factory, letters, cap=4096):
    """Breadth-first closure of the empty summary under feasible pushes."""
    m = factory.monoid
    rows = [(letter, m.left[m.gens[letter]])
            for letter in sorted(letters, key=sort_key)]
    nodes = [factory.empty]
    ids = {factory.empty: 0}
    edges = {}
    inverse = {}
    i = 0
    while i < len(nodes):
        sigma = nodes[i]
        i += 1
        for letter, row in rows:
            if row[sigma.phi] is ZERO:
                continue
            tgt = factory.push_letter(letter, sigma)
            edges[(sigma, letter)] = tgt
            inverse.setdefault((letter, tgt), []).append(sigma)
            if tgt not in ids:
                if len(nodes) >= cap:
                    raise CapExceeded.of("summary graph", len(nodes) + 1,
                                         "summaries", cap, "--max-summaries")
                ids[tgt] = len(nodes)
                nodes.append(tgt)
    return SummaryGraph(nodes, ids, edges, inverse)
