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
is answered from the edge index of the summary graph.

All summaries are hash-consed: structurally equal summaries are the
same object, so equality is identity and the monoid image, depth and
size are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import CapExceeded
from .grammar import sort_key
from .monoid import ONE, ZERO, element_key


class Atom:
    __slots__ = ("letter", "tail", "phi", "depth", "size")

    def __init__(self, letter, tail, phi, depth):
        self.letter = letter
        self.tail = tail
        self.phi = phi
        self.depth = depth
        self.size = 1 + tail.size

    def key(self):
        return ("atom", self.letter, self.tail.key())

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
        self.size = (sum(a.size for g in us for a in g) + 1 +
                     sum(a.size for g in vs for a in g) +
                     sum(a.size for a in w))

    def key(self):
        return ("block",
                tuple(tuple(a.key() for a in g) for g in self.us),
                element_key(self.e),
                tuple(tuple(a.key() for a in g) for g in self.vs),
                tuple(a.key() for a in self.w))

    def __repr__(self):
        return f"Block(us={self.us!r}, vs={self.vs!r}, w={self.w!r})"


class Summary:
    __slots__ = ("sub", "atoms", "blocks", "phi", "depth", "size")

    def __init__(self, sub, atoms, blocks, phi, depth):
        self.sub = sub
        self.atoms = atoms
        self.blocks = blocks
        self.phi = phi
        self.depth = depth
        self.size = ((sub.size if sub is not None else 0) +
                     sum(a.size for a in atoms) +
                     sum(b.size for b in blocks))

    def is_empty(self):
        return self.sub is None and not self.atoms and not self.blocks

    def key(self):
        return ("summary",
                self.sub.key() if self.sub is not None else None,
                tuple(a.key() for a in self.atoms),
                tuple(b.key() for b in self.blocks))

    def top_letter(self):
        """The leftmost (topmost) annotated letter of the summarized stack."""
        if self.sub is not None and not self.sub.is_empty():
            return self.sub.top_letter()
        if self.atoms:
            return self.atoms[0].letter
        if self.blocks:
            return self.blocks[0].us[0][0].letter
        return None

    def __repr__(self):
        if self.is_empty():
            return "Summary(empty)"
        return (f"Summary(sub={self.sub!r}, atoms={self.atoms!r}, "
                f"blocks={self.blocks!r})")


class SummaryFactory:
    """Hash-consing constructors plus the push operation."""

    def __init__(self, monoid):
        self.monoid = monoid
        self.n_groups = len(monoid.analysis.g.symbols.nonterminals)
        self._atoms = {}
        self._blocks = {}
        self._summaries = {}
        self._rows = {}
        self.empty = Summary(None, (), (), ONE, 0)
        self._summaries[self.empty.key()] = self.empty

    # -- constructors -------------------------------------------------------

    def atom(self, letter, tail):
        k = ("atom", letter, id(tail))
        if k not in self._atoms:
            phi = self.monoid.product(self.monoid.gens[letter], tail.phi)
            self._atoms[k] = Atom(letter, tail, phi, self.monoid.depth(phi))
        return self._atoms[k]

    def block(self, us, e, vs, w):
        k = (tuple(tuple(id(a) for a in g) for g in us), id(e),
             tuple(tuple(id(a) for a in g) for g in vs),
             tuple(id(a) for a in w))
        if k not in self._blocks:
            seq = [a.phi for g in us for a in g] + [e] + \
                  [a.phi for g in vs for a in g] + [a.phi for a in w]
            self._blocks[k] = Block(us, e, vs, w, self.monoid.phi_seq(seq))
        return self._blocks[k]

    def summary(self, sub, atoms, blocks):
        if not atoms and not blocks:
            return sub if sub is not None else self.empty
        if sub is not None and sub.is_empty():
            sub = None
        k = (id(sub), tuple(id(a) for a in atoms),
             tuple(id(b) for b in blocks))
        if k not in self._summaries:
            seq = ([sub.phi] if sub is not None else []) + \
                  [a.phi for a in atoms] + [b.phi for b in blocks]
            phi = self.monoid.phi_seq(seq)
            self._summaries[k] = Summary(sub, tuple(atoms), tuple(blocks),
                                         phi, self.monoid.depth(phi))
        return self._summaries[k]

    # -- push ---------------------------------------------------------------

    def push_letter(self, letter, sigma, trace=None):
        m = self.monoid
        phi_l = m.gens[letter]
        new_phi = m.product(phi_l, sigma.phi)
        d_new = m.depth(new_phi)
        d = sigma.depth
        if d_new > d:
            if trace is not None:
                trace.append("deepen")
            return self.summary(None, (self.atom(letter, sigma),), ())
        sub = sigma.sub if sigma.sub is not None else self.empty
        sub_phi = m.product(phi_l, sub.phi)
        if m.depth(sub_phi) < d:
            if trace is not None:
                trace.append("recurse")
            return self.summary(self.push_letter(letter, sub, trace),
                                sigma.atoms, sigma.blocks)
        s = (self.atom(letter, sub),) + sigma.atoms
        dec = self._decompose(s)
        if dec is None:
            if trace is not None:
                trace.append("atom")
            return self.summary(None, s, sigma.blocks)
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
                return self.summary(None, (), (merged,) + blocks[j:])
        if trace is not None:
            trace.append("block")
        return self.summary(None, (),
                            (self.block(us, e, vs, w),) + blocks)

    def push_word(self, word, sigma, trace=None):
        """Push an annotated stack word (topmost letter first)."""
        for letter in reversed(word):
            sigma = self.push_letter(letter, sigma, trace)
        return sigma

    def _decompose(self, s):
        """Split the atom word s into 2N+1 groups with a common idempotent
        image followed by a remainder, if possible.

        Among admissible splits the group lengths are chosen shortest
        first, left to right.  Two idempotents never tie: equal lengths
        give the same first group, which has only one image.

        Positions of s are bits of ints, position p being bit n - p (its
        distance from the right end).  ends[p] maps each element, by
        identity, to the set of ends q > p with phi(s[p:q]) equal to it.
        For a candidate idempotent e, can[k] holds p iff s[p:] starts
        with k groups of image e, that is iff ends[p][e] meets can[k - 1].
        The shortest first group from p ends at the highest bit of that
        intersection.
        """
        m = self.monoid
        n = len(s)
        k_groups = 2 * self.n_groups + 1
        # rows of a short s too: the next push extends it by one atom
        ends = self._segment_rows(s)
        if n < k_groups:
            return None
        cands = []
        seen = set()
        acc = ONE
        for a in s:
            acc = m.product(acc, a.phi)
            if acc is ONE or id(acc) in seen:
                continue
            seen.add(id(acc))
            if m.product(acc, acc) is acc:
                cands.append(acc)
        best = None
        for e in cands:
            ends_e = [row.get(id(e), 0) for row in ends]
            starts = [(pos, 1 << (n - pos)) for pos in range(n)
                      if ends_e[pos]]
            can = [(1 << (n + 1)) - 1]
            for _ in range(k_groups):
                prev = can[-1]
                can.append(sum(bit for pos, bit in starts
                               if ends_e[pos] & prev))
            if not can[k_groups] >> n:
                continue
            bounds = []
            pos = 0
            for k in range(k_groups, 0, -1):
                end = n + 1 - (ends_e[pos] & can[k - 1]).bit_length()
                bounds.append(end - pos)
                pos = end
            if best is None or tuple(bounds) < best[0]:
                best = (tuple(bounds), e, pos)
        if best is None:
            return None
        bounds, e, end = best
        groups = []
        pos = 0
        for ln in bounds:
            groups.append(tuple(s[pos:pos + ln]))
            pos += ln
        return e, tuple(groups), tuple(s[end:])

    def _segment_rows(self, s):
        """ends[p] of `_decompose` for every position p of s.

        A row depends only on the suffix it starts, so the rows of each
        suffix are kept: a push prepends one atom to a word whose rows are
        known, and only the row of the new first position is computed.
        Suffixes are keyed by atom identities, which is exact because
        atoms are hash-consed and live as long as the factory.
        """
        m = self.monoid
        n = len(s)
        key = tuple(map(id, s))
        known = n
        while known > 0 and key[n - known:] not in self._rows:
            known -= 1
        rows = self._rows.get(key[n - known:], [])
        for pos in range(n - known - 1, -1, -1):
            row = {}
            acc = ONE
            for end in range(pos + 1, n + 1):
                acc = m.product(acc, s[end - 1].phi)
                row[id(acc)] = row.get(id(acc), 0) | (1 << (n - end))
            rows = [row] + rows
            self._rows[key[pos:]] = rows
        return rows

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
    factory: SummaryFactory
    letters: list
    nodes: list            # summaries in construction order; nodes[0] empty
    ids: dict              # summary -> index
    edges: dict            # (src summary, letter) -> target summary
    inverse: dict          # (letter, target summary) -> list of sources
    complete: bool

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
    return SummaryGraph(factory, letters, nodes, ids, edges, inverse, True)
