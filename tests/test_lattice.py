"""Lattice algebra: canonical bases, membership, completeness, transferrals
and bounded decompositions."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmatch.errors import BadVertex, BoundTooSmall, DimensionMismatch, NotInLattice
from kmatch.lattice import (
    bounded_decompose,
    find_transferral,
    generate_lattice,
    is_complete,
    lattice_contains,
    minimal_decomposition_bound,
    robust_edge_vectors,
    sum_vectors,
)
from kmatch.oracle import complete_complex, gen_divisibility_barrier


def brute_member(vectors, target, bound=6):
    """Independent oracle: exhaustive integer coefficient search."""
    vectors = list(vectors)
    if not vectors:
        return not any(target)
    for coeffs in product(range(-bound, bound + 1), repeat=len(vectors)):
        got = [0] * len(target)
        for c, v in zip(coeffs, vectors):
            for i, x in enumerate(v):
                got[i] += c * x
        if tuple(got) == tuple(target):
            return True
    return False


def test_generate_lattice_examples():
    lat = generate_lattice([(1, 2), (3, 0)])
    assert lattice_contains(lat, (4, 2))       # sum of generators
    assert not lattice_contains(lat, (0, 3))   # brute: no |a| <= 6 witness
    assert not brute_member([(1, 2), (3, 0)], (0, 3))
    zero = generate_lattice([], dimension=2)
    assert lattice_contains(zero, (0, 0))
    assert not lattice_contains(zero, (1, 0))


def test_contains_divisibility_facts():
    lat = generate_lattice([(1, 2), (3, 0)])
    assert lattice_contains(lat, (1, 2))
    assert not lattice_contains(lat, (5, 3))   # i(V) with |B| odd
    assert lattice_contains(lat, (0, 0))


def test_dimension_mismatch():
    lat = generate_lattice([(1, 2)])
    with pytest.raises(DimensionMismatch):
        lattice_contains(lat, (1, 2, 0))
    with pytest.raises(DimensionMismatch):
        generate_lattice([(1, 2), (1, 2, 3)])


def test_canonical_basis_unique():
    # same lattice from different generating sets
    a = generate_lattice([(1, 2), (3, 0)])
    b = generate_lattice([(4, 2), (3, 0), (1, 2)])
    c = generate_lattice([(1, 2), (4, 2), (7, 2)])
    assert a.basis == b.basis == c.basis


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                min_size=1, max_size=4))
@settings(max_examples=60)
def test_basis_spans_same_lattice(gens):
    lat = generate_lattice(gens, 3)
    relat = generate_lattice(lat.basis, 3) if lat.basis else lat
    for g in gens:
        assert lattice_contains(lat, g)
        if lat.basis:
            assert lattice_contains(relat, g)
    # closure under addition and negation
    if len(gens) >= 2:
        s = tuple(x + y for x, y in zip(gens[0], gens[1]))
        assert lattice_contains(lat, s)
    assert lattice_contains(lat, tuple(-x for x in gens[0]))


@given(st.data())
@settings(max_examples=40)
def test_canonical_basis_invariant_under_unimodular_moves(data):
    # rewriting the generators by invertible integer row operations keeps the
    # lattice, hence the canonical basis
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=2,
            max_size=3,
        )
    )
    base = generate_lattice(gens, 2)
    moved = [list(g) for g in gens]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(moved) - 1))
        j = data.draw(st.integers(0, len(moved) - 1))
        c = data.draw(st.integers(-2, 2))
        if i == j:
            moved[i] = [-x for x in moved[i]]
        else:
            moved[i] = [a + c * b for a, b in zip(moved[i], moved[j])]
    assert generate_lattice(moved, 2).basis == base.basis


def test_is_complete_examples():
    full = generate_lattice(sum_vectors(3, 2), 2)
    assert is_complete(full, 3)
    assert not is_complete(generate_lattice([(1, 2), (3, 0)]), 3)
    assert is_complete(generate_lattice([(1, 2), (2, 1)]), 3)


def test_is_complete_partite_groups():
    # refined parts 0,1 inside ambient part 0; parts 2,3 inside ambient 1
    groups = (0, 0, 1, 1)
    vecs = [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)]
    lat = generate_lattice(vecs, 4)
    assert is_complete(lat, 2, groups=groups)
    missing = generate_lattice([(1, 0, 1, 0), (0, 1, 0, 1)], 4)
    assert not is_complete(missing, 2, groups=groups)


def test_find_transferral():
    assert find_transferral(generate_lattice([(1, 2), (2, 1)])) is not None
    assert find_transferral(generate_lattice([(1, 2), (3, 0)])) is None
    assert find_transferral(generate_lattice([], dimension=1)) is None
    # partite mode: only same-group pairs count
    lat = generate_lattice([(1, -1, 0, 0)], 4)
    assert find_transferral(lat, groups=(0, 0, 1, 1)) == (0, 1)
    assert find_transferral(lat, groups=(0, 1, 2, 3)) is None


def test_bounded_decompose_worked_example():
    dec = bounded_decompose((3, 0), [(1, 2), (2, 1)], 3)
    assert dec.evaluate() == (3, 0)
    assert dec.positive_part == {(2, 1): 2}
    assert dec.negative_part == {(1, 2): 1}


def test_bounded_decompose_r1():
    dec = bounded_decompose((3,), [(3,)], 1)
    assert dec.coefficients == (((3,), 1),)


def test_bounded_decompose_errors():
    with pytest.raises(NotInLattice):
        bounded_decompose((0, 3), [(1, 2), (3, 0)], 6)
    with pytest.raises(BoundTooSmall):
        bounded_decompose((3, 0), [(1, 2), (2, 1)], 1)


@given(st.data())
@settings(max_examples=60)
def test_decompose_reevaluates(data):
    vecs = data.draw(
        st.lists(
            st.sampled_from(sum_vectors(3, 2)), min_size=1, max_size=3, unique=True
        )
    )
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(vecs), max_size=len(vecs))
    )
    target = tuple(
        sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(2)
    )
    dec = bounded_decompose(target, vecs, 3 * len(vecs))
    assert dec.evaluate() == target


def test_membership_matches_brute_force():
    rng = random.Random(5)
    vecs3 = sum_vectors(3, 3)
    for _ in range(40):
        gens = rng.sample(vecs3, rng.randint(1, 4))
        lat = generate_lattice(gens, 3)
        for target in vecs3:
            assert lattice_contains(lat, target) == brute_member(gens, target)


def test_transfer_constant_full_generator_set_needs_one():
    vecs = sum_vectors(3, 2)
    assert all(minimal_decomposition_bound(v, vecs).bound == 1 for v in vecs)


def test_robust_edge_vectors():
    cc = complete_complex(8, 3)
    rv = robust_edge_vectors(cc.iter_top(), cc.universe, Fraction(1, 10))
    assert rv.vectors() == [(3,)]
    # (3,0) has C(4,3) = 4 supporting edges: robust only below 4/8^3
    H = gen_divisibility_barrier([4, 4], 3, [(1, 2), (3, 0)])
    rv2 = robust_edge_vectors(H.iter_top(), H.universe, Fraction(1, 200))
    assert rv2.vectors() == [(1, 2), (3, 0)]
    rv2b = robust_edge_vectors(H.iter_top(), H.universe, Fraction(1, 100))
    assert rv2b.vectors() == [(1, 2)]
    rv3 = robust_edge_vectors(cc.iter_top(), cc.universe, 1)
    assert rv3.vectors() == []  # mu = 1 exceeds any possible count


def test_robust_edge_vectors_on_parts_and_vertices_outside_them():
    H = gen_divisibility_barrier([4, 4], 3, [(1, 2), (3, 0)])
    parts = [frozenset(range(4)), frozenset(range(4, 8))]
    rv = robust_edge_vectors(H.iter_top(), parts, Fraction(1, 200))
    assert rv.counts == (((1, 2), 24), ((3, 0), 4))
    assert rv == robust_edge_vectors(H.iter_top(), H.universe, Fraction(1, 200))
    # vertex 0 lies in no part, and neither does vertex 9 or -1
    for edges, cover in (
        (H.iter_top(), [frozenset(range(1, 4)), parts[1]]),
        ([(1, 2, 9)], parts),
        ([(-1, 1, 2)], parts),
    ):
        with pytest.raises(BadVertex):
            robust_edge_vectors(edges, cover, 0)


def test_lattice_json_roundtrip():
    from kmatch.lattice import IndexLattice

    lat = generate_lattice([(1, 2), (3, 0)])
    back = IndexLattice.from_json(lat.to_json())
    assert back == lat
