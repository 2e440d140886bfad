"""The finite stack-abstraction monoid and its Green's-relation structure."""

import hashlib
import itertools
import random

import pytest

from ixdcl.analysis import Analysis, CapExceeded
from ixdcl.annotate import build_annotated
from ixdcl.families import (g1_grammar, g_loop_grammar, grammar_gn,
                            square_grammar)
from ixdcl.grammar import grammar_from_text
from ixdcl.monoid import ONE, ZERO, Seg, StackMonoid, mat_mul
from summary_helpers import element_key, phi
from test_summaries import RANDOM_361_TEXT

# (elements, j_length, sha256 prefix of monoid_fingerprint)
MONOID_GOLDENS = {
    "g1": (3, 2, "8107f23cd9876ba0"),
    "loop": (3, 3, "8a6cb42237338aa2"),
    "square": (6, 3, "243cd5ecbdefbbed"),
    "G_1": (14, 2, "3a4a2faa9cfc2d2a"),
    "G_2": (37, 2, "e33f1594c066ea73"),
    "G_3": (127, 2, "0b24cf65931f1a9b"),
    "random": (14, 3, "65573c62e19d99ae"),
}


def monoid_fingerprint(m):
    """Element count, J-length and a digest of the sorted element keys of
    the idempotents and of every element's key with its depth."""
    lines = sorted("idempotent " + repr(element_key(e))
                   for e in m.idempotents)
    lines += sorted(f"depth {element_key(x)!r} {m.depth(x)}"
                    for x in m.elements)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(m.elements), m.j_length(), digest[:16]


def fresh_monoid(g, **kw):
    an = Analysis(g)
    return StackMonoid(an, build_annotated(g, an).letters, **kw)


def test_monoid_fingerprint_goldens():
    grammars = {"g1": g1_grammar(), "loop": g_loop_grammar(),
                "square": square_grammar(), "G_1": grammar_gn(1),
                "G_2": grammar_gn(2), "G_3": grammar_gn(3),
                "random": grammar_from_text(RANDOM_361_TEXT)}
    assert {name: monoid_fingerprint(fresh_monoid(g))
            for name, g in grammars.items()} == MONOID_GOLDENS


def test_g1_monoid_golden(g1):
    m = g1.monoid
    assert len(m.elements) == 3
    (letter,) = sorted(m.gens)
    q = m.gens[letter]
    assert isinstance(q, Seg)
    # a second copy of the only letter is infeasible
    assert m.product(q, q) is ZERO
    assert sorted(m.depth(x) for x in m.elements) == [0, 1, 1]
    assert m.j_length() == 2
    assert len(m.idempotents) == 2


def test_loop_monoid_golden(loop):
    m = loop.monoid
    assert len(m.elements) == 3
    (letter,) = sorted(m.gens)
    e = m.gens[letter]
    # the loop letter is idempotent: any power of it is feasible
    assert m.product(e, e) is e
    assert sorted(m.depth(x) for x in m.elements) == [0, 1, 2]
    assert m.j_length() == 3


def test_square_monoid_golden(square):
    m = square.monoid
    assert len(m.elements) == 6
    assert len(m.idempotents) == 3
    assert m.j_length() == 3
    assert sorted(m.depth(x) for x in m.elements) == [0, 1, 1, 1, 2, 2]


def test_cap_bounds_the_generated_monoid():
    # both monoids generate ZERO, so every element counts against the cap
    for g in (square_grammar(), grammar_gn(2)):
        n = len(fresh_monoid(g).elements)
        with pytest.raises(CapExceeded, match="stack monoid cap"):
            fresh_monoid(g, cap=n - 1)
        m = fresh_monoid(g, cap=n)
        assert len(m.elements) == n
        assert ZERO in m.elements


def test_unit_and_zero_laws(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        for x in m.elements:
            assert m.product(ONE, x) is x
            assert m.product(x, ONE) is x
            assert m.product(ZERO, x) is ZERO
            assert m.product(x, ZERO) is ZERO
        # equality of elements is identity, so every product must be one
        # of the enumerated elements itself, not a structural copy
        ids = {id(x) for x in m.elements}
        for x, y in itertools.product(m.elements, repeat=2):
            assert id(m.product(x, y)) in ids


def test_associativity(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        for x, y, z in itertools.product(m.elements, repeat=3):
            assert m.product(m.product(x, y), z) == \
                m.product(x, m.product(y, z))


def test_product_of_fresh_copies(fixtures):
    # The product memo is keyed by operand identity.  Copies made and
    # dropped one after another tend to reuse one address, so a memo that
    # let its keys die would answer a copy of x with the product of an
    # earlier copy of another element.
    rng = random.Random(0)
    for st_ in fixtures.values():
        m = st_.monoid
        segs = [x for x in m.elements if isinstance(x, Seg)]
        for _ in range(200):
            x, y = rng.choice(segs), rng.choice(segs)
            fresh = Seg(x.b, x.y, x.m, x.a, x.x)
            assert m.product(fresh, y) is m.product(x, y)


def test_phi_is_a_morphism(fixtures):
    rng = random.Random(0)
    for st_ in fixtures.values():
        m = st_.monoid
        letters = sorted(m.gens, key=str)
        for _ in range(300):
            w1 = tuple(rng.choice(letters)
                       for _ in range(rng.randrange(4)))
            w2 = tuple(rng.choice(letters)
                       for _ in range(rng.randrange(4)))
            assert phi(m, w1 + w2) == m.product(phi(m, w1), phi(m, w2))
        assert phi(m, ()) is ONE


def test_phi_seq_matches_phi(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        letters = sorted(m.gens, key=str)
        for n in range(4):
            for w in itertools.product(letters, repeat=n):
                left = ONE
                for letter in w:
                    left = m.product(left, m.gens[letter])
                assert m.phi_seq(m.gens[l] for l in w) == left


def test_element_key_is_injective(fixtures):
    for st_ in fixtures.values():
        keys = [element_key(x) for x in st_.monoid.elements]
        assert len({repr(k) for k in keys}) == len(keys)
        assert sorted(keys) == sorted(keys)   # keys are mutually comparable


def test_mat_mul():
    m1 = frozenset({("a", "b"), ("b", "c")})
    m2 = frozenset({("x", "a"), ("y", "b")})
    assert mat_mul(m2, m1) == frozenset({("x", "b"), ("y", "c")})
    assert mat_mul(frozenset(), m1) == frozenset()


def test_depth_zero_iff_top(fixtures):
    # only elements J-above every idempotent class have depth 0; the unit
    # always does
    for st_ in fixtures.values():
        assert st_.monoid.depth(ONE) == 0


def test_j_length_bound(fixtures):
    for st_ in fixtures.values():
        n = len(st_.grammar.symbols.nonterminals)
        assert st_.monoid.j_length() <= (n * n + n + 2) // 2 + 2
