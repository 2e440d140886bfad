"""The finite stack-abstraction monoid and its Green's-relation structure."""

import dataclasses
import itertools
import random

from ixdcl.monoid import ONE, ZERO, Seg, element_key, mat_mul


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
    assert len(m.idempotents()) == 2


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
    assert len(m.idempotents()) == 3
    assert m.j_length() == 3
    assert sorted(m.depth(x) for x in m.elements) == [0, 1, 1, 1, 2, 2]


def test_unit_and_zero_laws(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        for x in m.elements:
            assert m.product(ONE, x) is x
            assert m.product(x, ONE) is x
            assert m.product(ZERO, x) is ZERO
            assert m.product(x, ZERO) is ZERO


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
            assert m.product(dataclasses.replace(x), y) is m.product(x, y)


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
            assert m.phi(w1 + w2) == m.product(m.phi(w1), m.phi(w2))
        assert m.phi(()) is ONE


def test_phi_seq_matches_phi(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        letters = sorted(m.gens, key=str)
        for n in range(4):
            for w in itertools.product(letters, repeat=n):
                assert m.phi_seq(m.gens[l] for l in w) == m.phi(w)


def test_feasibility(g1, loop):
    m = g1.monoid
    (l1,) = sorted(m.gens)
    assert m.feasible_stack((l1,))
    assert not m.feasible_stack((l1, l1))
    assert not m.feasible_stack(())
    ml = loop.monoid
    (l2,) = sorted(ml.gens)
    assert ml.feasible_stack((l2,) * 10)


def test_feasible_term(g1):
    m = g1.monoid
    an = g1.analysis
    useful = an.useful()
    (letter,) = sorted(m.gens)
    _, X = letter
    Y = an.act("f", X)
    assert m.feasible_term(("S", useful), ())
    assert m.feasible_term(("A", Y), (letter,))
    assert not m.feasible_term(("A", Y), (letter, letter))


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


def test_h_classes_partition_with_single_idempotent(fixtures):
    for st_ in fixtures.values():
        m = st_.monoid
        hs = m.h_classes()
        assert sorted(map(element_key, (x for h in hs for x in h))) == \
            sorted(map(element_key, m.elements))
        idem = set(map(id, m.idempotents()))
        for h in hs:
            assert sum(1 for x in h if id(x) in idem) <= 1


def test_j_length_bound(fixtures):
    for st_ in fixtures.values():
        n = len(st_.grammar.symbols.nonterminals)
        assert st_.monoid.j_length() <= (n * n + n + 2) // 2 + 2
