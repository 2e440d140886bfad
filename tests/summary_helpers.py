"""Test-side views of the analysis's masks, monoid elements and
summaries: masks and row masks spelled out as nonterminals and pairs,
a rendering of keys and letters that no hash seed changes, structural
keys, the annotation and the image of a stack word, the top letter,
pushing a whole word, making an atom word, and a structural check of a
summary.

The monoid interns its elements and the factory hash-conses summaries
by the identities of their parts, so two factories never share a key;
these keys spell an element or a summary out in full, which lets goldens
and determinism checks compare them across factories.  An element holds
masks over the analysis's nonterminals `nts`, so the keys take `nts`.
"""

from ixdcl.monoid import ONE, ZERO
from ixdcl.summaries import Atom, Block


def canonical(x):
    """Render a key or letter; frozensets sorted, so that the text does
    not depend on PYTHONHASHSEED."""
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(map(canonical, x))) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(map(canonical, x)) + ")"
    return repr(x)


def names(nts, mask):
    """The nonterminals of a mask over nts."""
    return frozenset(A for i, A in enumerate(nts) if mask >> i & 1)


def pairs(nts, rows):
    """A relation given as row masks over nts, as (nt, nt) pairs."""
    return frozenset((A, B) for A, row in zip(nts, rows)
                     for B in names(nts, row))


def matrix(an, f, X):
    """The focus matrix M[f, X] as (nt, nt) pairs."""
    return pairs(an.nts, an.focus_rows(f, an.mask(X)))


def reach(an, X):
    """The relation ~X~ as (nt, nt) pairs: the same-level focus
    `reach_rows` restricted to X x X."""
    rows = an.reach_rows(an.mask(X))
    return frozenset((A, B) for A, B in pairs(an.nts, rows)
                     if A in X and B in X)


def element_key(x, nts):
    """A canonical, order-stable sort key for monoid elements."""
    if x is ONE:
        return (0,)
    if x is ZERO:
        return (2,)
    return (1, str(nts[x.b]), sorted(map(str, names(nts, x.y))),
            sorted(map(str, pairs(nts, x.m))), str(nts[x.a]),
            sorted(map(str, names(nts, x.x))))


def annotate_stack(z, X, analysis):
    """Annotate a stack word (topmost-first) with base annotation X."""
    out = []
    for f in reversed(z):
        out.append((f, X))
        X = analysis.act(f, X)
    return tuple(reversed(out))


def phi(m, word):
    """The image in the monoid m of an annotated stack word (topmost
    letter first)."""
    return m.phi_seq(m.gens[letter] for letter in word)


def atom_key(a, nts):
    return ("atom", a.letter, summary_key(a.tail, nts))


def block_key(b, nts):
    def group(g):
        return tuple(atom_key(a, nts) for a in g)

    return ("block", tuple(map(group, b.us)), element_key(b.e, nts),
            tuple(map(group, b.vs)), group(b.w))


def atoms(s):
    """The atoms of a summary, topmost first, as a tuple."""
    return tuple(s.atoms or ())


def summary_key(s, nts):
    return ("summary",
            summary_key(s.sub, nts) if s.sub is not None else None,
            tuple(atom_key(a, nts) for a in atoms(s)),
            tuple(block_key(b, nts) for b in s.blocks))


def summed_size(x, memo):
    """The size of a summary, atom or block summed over its parts, none
    of whose own sizes is read: an atom counts 1 plus its tail, a block's
    e+ counts 1.  memo maps id(part) to its size."""
    if id(x) not in memo:
        if isinstance(x, Atom):
            size = 1 + summed_size(x.tail, memo)
        elif isinstance(x, Block):
            size = 1 + sum(summed_size(a, memo)
                           for g in x.us + x.vs + (x.w,) for a in g)
        else:
            size = (summed_size(x.sub, memo) if x.sub is not None else 0) + \
                sum(summed_size(y, memo) for y in atoms(x) + x.blocks)
        memo[id(x)] = size
    return memo[id(x)]


def top_letter(s):
    """The leftmost (topmost) annotated letter of the summarized stack."""
    if s.sub is not None and not s.sub.is_empty():
        return top_letter(s.sub)
    if s.atoms is not None:
        return s.atoms.first.letter
    if s.blocks:
        return s.blocks[0].us[0][0].letter
    return None


def push_word(factory, word, sigma):
    """Push an annotated stack word (topmost letter first)."""
    for letter in reversed(word):
        sigma = factory.push_letter(letter, sigma)
    return sigma


def atom_word(factory, atoms):
    """The factory's cell for a tuple of atoms (topmost first), None for
    the empty tuple."""
    word = None
    for a in reversed(atoms):
        word = factory.word(a, word)
    return word


def validate_summary(factory, sigma):
    """Structural well-formedness diagnostics (empty when valid)."""
    out = []
    m = factory.monoid

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
        for a in atoms(s):
            check_atom(a, d)
        for b in s.blocks:
            check_block(b, d)

    def check_atom(a, d):
        if m.depth(a.phi) != d:
            out.append(f"atom depth {m.depth(a.phi)} in depth-{d} summary")
        if a.tail.depth >= d:
            out.append(f"atom tail too deep: {a!r}")
        if m.product(m.gens[a.letter], a.tail.phi) != a.phi:
            out.append(f"atom image mismatch: {a!r}")
        walk(a.tail)

    def check_block(b, d):
        n = factory.n_groups
        if len(b.us) != n or len(b.vs) != n:
            out.append(f"block group count != {n}: {b!r}")
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
