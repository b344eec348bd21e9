"""Brute-force solvers and instance generators."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kmatch.core import (
    VertexUniverse,
    build_complex,
    degree_sequences,
    index_vector,
    plain_allocation,
    validate_matching,
)
from kmatch.errors import BadParams, TooLarge, Unsatisfiable
from kmatch.fractional import FractionalMatching, build_lp, verify_fractional
from kmatch.lattice import generate_lattice, lattice_contains
from kmatch.oracle import (
    _dense_phase1,
    GenSpec,
    brute_force_fractional,
    brute_force_pm,
    complete_complex,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
)
from kmatch.simplex import solve_equality_feasibility


def test_brute_pm_complete():
    cc = complete_complex(6, 3)
    m = brute_force_pm(cc)
    assert m is not None and len(m) == 2 and validate_matching(cc, m)


def test_brute_pm_space_barrier_none():
    # |S| = 3 > 6/3: every edge has at most one planted vertex
    assert brute_force_pm(gen_space_barrier(6, 3, 1, 3)) is None


def test_brute_pm_divisibility_odd_none():
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    assert brute_force_pm(H) is None


def test_brute_pm_cap():
    with pytest.raises(TooLarge):
        brute_force_pm(complete_complex(18, 3))
    assert brute_force_pm(complete_complex(18, 3), cap=18) is not None


def test_brute_pm_relabel_invariant():
    rng = random.Random(0)
    uni = VertexUniverse.single(9)
    for _ in range(10):
        edges = set()
        while len(edges) < 12:
            edges.add(tuple(sorted(rng.sample(range(9), 3))))
        verdict = brute_force_pm(list(edges), vertices=range(9)) is not None
        perm = list(range(9))
        rng.shuffle(perm)
        relabeled = [tuple(sorted(perm[v] for v in e)) for e in edges]
        assert (brute_force_pm(relabeled, vertices=range(9)) is not None) == verdict


def test_gen_space_barrier_membership_rule():
    cx = gen_space_barrier(7, 3, 1, 3)
    planted = cx.planted_set
    for i in range(1, 4):
        for e in cx.level(i).tolist():
            assert sum(1 for v in e if v in planted) <= 1
    # full re-derivation on a small instance
    from itertools import combinations

    for i in range(1, 4):
        expect = {
            e for e in combinations(range(7), i) if len(set(e) & planted) <= 1
        }
        assert cx.level(i).tolist() == sorted(map(list, expect))


def test_gen_space_barrier_boundary_matchable():
    # |S| = floor(jn/k) keeps a perfect matching at small sizes
    for n in (6, 9, 12):
        cx = gen_space_barrier(n, 3, 1, n // 3)
        assert brute_force_pm(cx) is not None


def test_gen_space_barrier_empty_planted_is_complete():
    cx = gen_space_barrier(6, 3, 2, 0)
    assert cx.top_count() == 20


def test_gen_space_barrier_bad_params():
    with pytest.raises(BadParams):
        gen_space_barrier(6, 3, 0, 2)
    with pytest.raises(BadParams):
        gen_space_barrier(6, 3, 1, 9)


def test_gen_divisibility_matches_membership():
    gens = [(1, 2), (3, 0)]
    H = gen_divisibility_barrier([5, 3], 3, gens)
    lat = generate_lattice(gens, 2)
    assert H.top_count() == 25
    for e in H.iter_top():
        assert lattice_contains(lat, index_vector(e, H.universe))


def test_gen_divisibility_degenerate_lattices():
    from kmatch.lattice import sum_vectors

    full = gen_divisibility_barrier([4, 4], 3, sum_vectors(3, 2))
    assert full.top_count() == 56  # every triple
    empty = gen_divisibility_barrier([4, 4], 3, [])
    assert empty.top_count() == 0


def test_gen_random_dense_floor():
    cx = gen_random_dense(24, 3, p=0.9, degree_floor=(24, 14, 7), seed=11)
    assert degree_sequences(cx).plain >= (24, 14, 7)
    assert cx.achieved_degrees == degree_sequences(cx).plain


def test_gen_random_dense_p_one_complete():
    cx = gen_random_dense(8, 3, p=1.0, seed=0)
    assert cx.top_count() == 56


def test_gen_random_dense_p_zero_unsatisfiable():
    with pytest.raises(Unsatisfiable):
        gen_random_dense(9, 3, p=0.0, degree_floor=(1, 1, 1), seed=0, max_tries=3)


def test_gen_random_dense_deterministic():
    a = gen_random_dense(12, 3, p=0.7, seed=9)
    b = gen_random_dense(12, 3, p=0.7, seed=9)
    assert a.level(3).tolist() == b.level(3).tolist()


def test_brute_fractional():
    assert brute_force_fractional(complete_complex(4, 3))
    # an uncoverable vertex makes the system infeasible
    uni = VertexUniverse.single(5)
    cx = build_complex([(0, 1, 2)], uni, k=3, close=True)
    assert not brute_force_fractional(cx)
    # rows range over the pool, as brute_force_pm's vertices do
    six = complete_complex(9, 3).induced(range(6))
    assert brute_force_pm(six) is not None and brute_force_fractional(six)
    with pytest.raises(TooLarge):
        brute_force_fractional(complete_complex(40, 3))


def test_complete_complex_implicit_duck():
    cc = complete_complex(300, 3)  # too big to materialize: implicit
    from kmatch.core import CompleteComplex

    assert isinstance(cc, CompleteComplex)
    assert cc.top_count() == 4455100
    assert cc.has_top((0, 1, 2))
    assert not cc.has_top((0, 0, 1))
    small = cc.induced(range(6))
    assert small.top_count() == 20
    assert brute_force_pm(small, vertices=range(6)) is not None
    explicit = complete_complex(8, 3)
    assert explicit.closed and explicit.top_count() == 56


def test_genspec_roundtrip_and_dispatch():
    spec = GenSpec(kind="space-barrier", n=8, k=3, params={"j": 1, "s_size": 3})
    again = GenSpec.from_json(spec.to_json())
    assert again == spec
    cx = again.generate()
    assert degree_sequences(cx).plain[1] == 5
    with pytest.raises(BadParams):
        GenSpec(kind="nonsense")


def row_sums(columns, x, rows):
    """A x for sparse columns [(row, coefficient), ...] and a dense x."""
    sums = [Fraction(0)] * rows
    for col, xj in zip(columns, x):
        for i, a in col:
            sums[i] += a * xj
    return sums


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dense_oracle_agrees_with_the_checked_simplex(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(k, 10))
    top = data.draw(st.sets(st.sampled_from(list(combinations(range(n), k))),
                            min_size=1, max_size=25))
    cx = build_complex(sorted(top), VertexUniverse.single(n), k=k, close=True)
    # a restricted pool: drop vertices outside the least edge, so one edge stays
    drop = data.draw(st.sets(st.sampled_from(range(n)), max_size=3)).difference(min(top))
    if drop:
        cx = cx.induced(set(range(n)) - drop)
    event(f"dropped={len(drop)}")
    model = build_lp(cx, plain_allocation(k))
    rows = model.num_rows
    res = solve_equality_feasibility(model.csc, model.b)
    feasible, weights = brute_force_fractional(cx, with_solution=True)
    event(f"feasible={feasible}")
    assert feasible == res.feasible
    if feasible:
        point = [res.solution.get(j, 0) for j in range(model.num_cols)]
        assert min(point) >= 0 and row_sums(model.columns, point, rows) == model.b
        assert verify_fractional(cx, FractionalMatching(host=cx, weights=weights))["ok"]
    else:
        y = res.certificate
        assert all(sum(y[i] * a for i, a in col) <= 0 for col in model.columns)
        assert sum(yi * bi for yi, bi in zip(y, model.b)) > 0
    # scaling a row by a nonzero fraction changes no solution; the oracle
    # clears the denominators with one common lcm
    scales = [Fraction(data.draw(st.integers(-5, 5).filter(bool)), data.draw(st.integers(1, 6)))
              for _ in range(rows)]
    columns = [{i: a * scales[i] for i, a in col} for col in model.columns]
    scaled, sol = _dense_phase1(columns, [bi * c for bi, c in zip(model.b, scales)])
    assert scaled == feasible
    if feasible:
        assert min(sol) >= 0 and row_sums(model.columns, sol, rows) == model.b
