"""Exact LP feasibility and the weight-disjoint extraction loop."""

import random
from fractions import Fraction

import pytest

from kmatch.core import (
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    plain_allocation,
)
from kmatch.errors import EmptyTopLevel, UnknownEdge
from kmatch.fractional import (
    FractionalMatching,
    build_lp,
    dump_lp,
    extract_weight_disjoint,
    solve_feasible,
    verify_fractional,
)
from kmatch.oracle import (
    brute_force_fractional,
    complete_complex,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
)

ALLOC3 = plain_allocation(3)


def test_build_lp_single_edge():
    uni = VertexUniverse.single(3)
    cx = build_complex([(0, 1, 2)], uni, close=True)
    model = build_lp(cx, ALLOC3)
    assert model.num_cols == 1 and model.num_rows == 3
    g = solve_feasible(model)
    assert g.weights == {(0, 1, 2): Fraction(1)}


def test_build_lp_k4_no_balance_rows():
    model = build_lp(complete_complex(4, 3), ALLOC3)
    assert model.num_cols == 4
    assert model.num_rows == 4  # one per vertex, single index vector
    g = solve_feasible(model)
    assert verify_fractional(complete_complex(4, 3), g, ALLOC3)["ok"]


def test_build_lp_balance_row_for_two_indices():
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    alloc = allocation_from_index_multiset([(1, 2), (3, 0)])
    model = build_lp(H, alloc)
    assert model.num_rows == 8 + 1
    assert len(model.balance_pairs) == 1
    text = dump_lp(model)
    assert "Minimize" in text and "Bounds" in text and "= 1" in text


def test_build_lp_empty_top():
    uni = VertexUniverse.single(3)
    cx = build_complex({3: []}, uni, k=3, close=True)
    with pytest.raises(EmptyTopLevel):
        build_lp(cx, ALLOC3)


def test_infeasible_oversized_planted_set():
    # |S| = 3 on 6 vertices: S needs total weight 3 but any edge carries at
    # most one S-vertex, so the matching weight (2) cannot cover it
    cx = gen_space_barrier(6, 3, 1, 3)
    model = build_lp(cx, ALLOC3)
    assert solve_feasible(model) is None
    total_weight_bound = 6 // 3  # rn/k
    assert total_weight_bound < 3
    assert brute_force_fractional(cx) is False


def test_empty_model_infeasible():
    uni = VertexUniverse.single(4)
    cx = build_complex([(0, 1, 2)], uni, k=3, close=True)  # vertex 3 uncovered
    model = build_lp(cx, ALLOC3)
    assert solve_feasible(model) is None


def test_verify_fractional_residuals():
    cc = complete_complex(4, 3)
    g = solve_feasible(build_lp(cc, ALLOC3))
    rep = verify_fractional(cc, g, ALLOC3)
    assert rep["ok"] and rep["max_vertex_residual"] == 0
    halved = FractionalMatching(
        host=cc, weights={e: w / 2 for e, w in g.weights.items()}
    )
    rep2 = verify_fractional(cc, halved, ALLOC3)
    assert not rep2["ok"]
    assert all(r == Fraction(-1, 2) for r in rep2["vertex_residuals"].values())
    with pytest.raises(UnknownEdge):
        verify_fractional(cc, FractionalMatching(host=cc, weights={(0, 1, 9): Fraction(1)}), ALLOC3)


def test_solver_verdict_stable_under_edge_reordering():
    rng = random.Random(3)
    cx = gen_random_dense(9, 3, p=0.4, seed=3)
    edges = list(cx.iter_top())
    base = solve_feasible(build_lp(cx, ALLOC3)) is not None
    for _ in range(3):
        rng.shuffle(edges)
        shuffled = build_complex({3: edges}, cx.universe, k=3, close=True)
        assert (solve_feasible(build_lp(shuffled, ALLOC3)) is not None) == base


def test_extraction_single_round_bound():
    # one matching: pair loads are bounded by the vertex constraint already
    cc = complete_complex(9, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 1, seed=0)
    assert res.completed
    assert res.pair_weights.min_weight() >= 1


def test_extraction_complete_n12():
    cc = complete_complex(12, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 2, seed=42)
    assert res.completed and len(res.matchings) == 2
    assert res.pair_weights.min_weight() >= 0
    for g in res.matchings:
        assert verify_fractional(cc, g, ALLOC3)["ok"]


def test_extraction_erosion_bound():
    # integral (greedy) rounds: after r of them at most r dead pairs sit at one vertex
    cc = complete_complex(18, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 5, seed=7)
    assert res.completed
    rounds = res.diagnostics["rounds"]
    for i, r in enumerate(rounds):
        assert r["max_dead_pairs"] <= i + 1


def test_extraction_k1_has_no_pairs():
    cx = build_complex([(0,), (1,), (2,)], VertexUniverse.single(3), close=True)
    res = extract_weight_disjoint(cx, plain_allocation(1), 3, seed=0)
    assert res.completed
    assert all(r["max_dead_pairs"] == 0 for r in res.diagnostics["rounds"])


def test_extraction_partial_prefix():
    # a single edge supports exactly two rounds before its pairs die
    uni = VertexUniverse.single(3)
    cx = build_complex([(0, 1, 2)], uni, close=True)
    res = extract_weight_disjoint(cx, ALLOC3, 5, seed=0)
    assert not res.completed
    assert len(res.matchings) == 2
    assert res.pair_weights.min_weight() == 0


def test_extraction_balanced_two_indices():
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    cx = gen_random_dense(6, 3, r=2, p=0.95, seed=4, allocation=alloc)
    res = extract_weight_disjoint(cx, alloc, 2, seed=4)
    assert len(res.matchings) >= 1
    for g in res.matchings:
        rep = verify_fractional(cx, g, alloc)
        assert rep["ok"], rep["balance_residuals"]


def test_solver_agrees_with_oracle_small():
    rng = random.Random(0)
    for trial in range(25):
        n = rng.choice([6, 9, 12])
        p = rng.choice([0.15, 0.3, 0.6, 0.9])
        cx = gen_random_dense(n, 3, p=p, seed=trial, max_tries=1)
        if cx.top_count() == 0:
            assert brute_force_fractional(cx) is False
            continue
        mine = solve_feasible(build_lp(cx, ALLOC3)) is not None
        assert mine == brute_force_fractional(cx)
