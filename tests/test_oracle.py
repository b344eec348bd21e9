"""Brute-force solvers and instance generators."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kmatch.core import (
    Matching,
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
    BRUTE_PM_CAP,
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


def _reference_brute_force_pm(host, vertices=None, cap=BRUTE_PM_CAP):
    """The search on lists of edge tuples: at each node, the options of every
    uncovered vertex are rebuilt from its incident edges."""
    edges = host.level(host.k).tolist() if hasattr(host, "level") else [sorted(e) for e in host]
    if vertices is None:
        vertices = host.vertex_pool if hasattr(host, "vertex_pool") else {v for e in edges for v in e}
    vertices = sorted(vertices)
    nv = len(vertices)
    if nv > cap:
        raise TooLarge(f"{nv} vertices exceeds brute-force cap {cap}")
    if nv == 0:
        return Matching.from_edges([])
    k = len(edges[0]) if edges else 0
    if k == 0 or nv % k != 0:
        return None
    pos = {v: i for i, v in enumerate(vertices)}
    pool = set(vertices)
    usable = []
    for e in edges:
        if pool.issuperset(e):
            m = 0
            for v in e:
                m |= 1 << pos[v]
            usable.append((m, e))
    incident = [[] for _ in range(nv)]
    for m, e in usable:
        for v in e:
            incident[pos[v]].append((m, e))
    memo = {}
    chosen = []

    def solve(remaining):
        if remaining == 0:
            return True
        if memo.get(remaining) is not None:
            return False
        best_opts = None
        r = remaining
        while r:
            low = r & -r
            i = low.bit_length() - 1
            opts = [(m, e) for m, e in incident[i] if m & remaining == m]
            if not opts:
                memo[remaining] = False
                return False
            if best_opts is None or len(opts) < len(best_opts):
                best_opts = opts
                if len(opts) == 1:
                    break
            r ^= low
        for m, e in best_opts:
            chosen.append(e)
            if solve(remaining & ~m):
                return True
            chosen.pop()
        memo[remaining] = False
        return False

    return Matching.from_edges(chosen) if solve((1 << nv) - 1) else None


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(2, 15), p=st.sampled_from([0.05, 0.15, 0.3, 0.6, 0.9]),
       seed=st.integers(0, 2**32 - 1), subset=st.booleans(),
       form=st.sampled_from(["system", "list", "array"]))
def test_bitset_search_returns_the_reference_matching(k, n, p, seed, subset, form):
    rng = random.Random(seed)
    top = [e for e in combinations(range(n), k) if rng.random() < p]
    vertices = None
    if subset:
        # a pool that leaves some top edges outside it
        vertices = sorted(rng.sample(range(n), rng.randint(0, n)))
    if form == "system":
        host = build_complex({k: top}, VertexUniverse.single(n), k=k) if top else top
    else:
        host = top if form == "list" else np.array(top, np.int64).reshape(len(top), k)
    want = _reference_brute_force_pm(host if form != "array" else top, vertices=vertices)
    event(f"subset={subset}, matched={want is not None}")
    assert brute_force_pm(host, vertices=vertices) == want


def test_bitset_search_without_edges_finds_none():
    # no edge at a nonempty vertex set, given as a list or a 0-row array
    assert brute_force_pm([], vertices=range(3)) is None
    assert brute_force_pm(np.zeros((0, 3), np.int64), vertices=range(3)) is None
    assert brute_force_pm([], vertices=[]) == Matching.from_edges([])


def test_bitset_search_past_64_vertices_and_edges():
    # a 66-cycle (two disjoint perfect matchings) and one of its matchings:
    # the vertex masks and the live-edge set both pass 64 bits
    cycle = [tuple(sorted((v, (v + 1) % 66))) for v in range(66)]
    for edges in (cycle, cycle[::2]):
        got = brute_force_pm(edges, vertices=range(66), cap=66)
        assert got == _reference_brute_force_pm(edges, vertices=range(66), cap=66)
        assert got is not None and len(got) == 33
    # two 33-cycles on the same 66 vertices: odd components, so the search
    # exhausts every branch
    odd = [tuple(sorted((a + v, a + (v + 1) % 33))) for a in (0, 33) for v in range(33)]
    assert brute_force_pm(odd, vertices=range(66), cap=66) is None
    assert _reference_brute_force_pm(odd, vertices=range(66), cap=66) is None


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
