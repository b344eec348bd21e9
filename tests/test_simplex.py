"""The exact phase-1 simplex called directly: float-guided warm start, cold
restarts, exact points and exactly checked Farkas certificates."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch.simplex as simplex
from kmatch.core import (
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    plain_allocation,
)
from kmatch.fractional import build_lp
from kmatch.oracle import brute_force_fractional, gen_random_dense
from kmatch.simplex import solve_equality_feasibility

ALLOC3 = plain_allocation(3)


def _assert_point(columns, b, res):
    assert res.feasible and res.certificate is None
    assert all(v > 0 for v in res.solution.values())
    lhs = [Fraction(0)] * len(b)
    for j, v in res.solution.items():
        for i, a in columns[j]:
            lhs[i] += Fraction(a) * v
    assert lhs == [Fraction(bi) for bi in b]


def _assert_farkas(columns, b, res):
    assert not res.feasible and not res.solution
    y = res.certificate
    assert all(sum(y[i] * Fraction(a) for i, a in col) <= 0 for col in columns)
    assert sum(yi * Fraction(bi) for yi, bi in zip(y, b)) > 0


def test_negative_rhs_rows():
    # x0 - x1 = -2, x0 + x1 = 4  ->  x0 = 1, x1 = 3
    columns = [[(0, 1), (1, 1)], [(0, -1), (1, 1)]]
    b = [-2, 4]
    res = solve_equality_feasibility(columns, b)
    _assert_point(columns, b, res)
    assert res.solution == {0: 1, 1: 3}


def test_negative_rhs_infeasible_certificate_in_original_signs():
    # x0 + x1 = -1 has no nonnegative solution
    columns = [[(0, 1)], [(0, 1)]]
    res = solve_equality_feasibility(columns, [-1])
    _assert_farkas(columns, [-1], res)
    assert res.certificate[0] < 0


def test_degenerate_model():
    # a zero row, a duplicate row and a zero column: the basis keeps an
    # artificial at level zero, which the extracted point leaves out
    columns = [[(0, 1), (1, 1)], [(0, 1), (1, 1), (2, 1)], []]
    b = [1, 1, 0]
    res = solve_equality_feasibility(columns, b)
    _assert_point(columns, b, res)
    assert res.solution == {0: 1}


def test_empty_model_is_feasible():
    res = solve_equality_feasibility([], [])
    assert res.feasible and res.solution == {} and res.pivots == 0


def test_infeasible_certificate_passes_check():
    # every edge holds vertex 0, so vertices 2..5 cannot each be covered once
    edges = [(0, 1, v) for v in range(2, 6)]
    cx = build_complex(edges, VertexUniverse.single(6), close=True)
    model = build_lp(cx, ALLOC3)
    res = solve_equality_feasibility(model.columns, model.b)
    _assert_farkas(model.columns, model.b, res)


@pytest.mark.parametrize("y", [[1], [-1]])
def test_farkas_check_rejects_a_bad_certificate(y):
    # x0 + x1 = 1 is feasible, so no y passes: [1] fails y.A_j <= 0, [-1] fails y.b > 0
    with pytest.raises(ArithmeticError):
        simplex._farkas([[(0, 1)], [(0, 1)]], [1], [Fraction(v) for v in y], [Fraction(1)])


@pytest.mark.parametrize(
    "guide, wasted",
    [
        (None, 0),     # float failure or iteration cap
        ([0, 1], 2),   # the installed basis has x1 = -1
        ([0, 0], 1),   # the second entry is singular against the first
    ],
)
def test_cold_restart_paths(monkeypatch, guide, wasted):
    # x0 + x1 + 2 x2 = 2, x0 + 2 x1 + x2 = 1: only x2 = 1 is feasible
    columns = [[(0, 1), (1, 1)], [(0, 1), (1, 2)], [(0, 2), (1, 1)]]
    b = [2, 1]
    monkeypatch.setattr(simplex, "_float_basis", lambda cols, rhs: None)
    cold = solve_equality_feasibility(columns, b)
    monkeypatch.setattr(simplex, "_float_basis", lambda cols, rhs: guide)
    res = solve_equality_feasibility(columns, b)
    _assert_point(columns, b, res)
    assert res.solution == {2: 1}
    # install pivots are real exact pivots and count even when discarded
    assert res.pivots == cold.pivots + wasted


def test_warm_start_saves_exact_pivots(monkeypatch):
    model = build_lp(gen_random_dense(15, 3, p=0.5, seed=4, max_tries=1), ALLOC3)
    warm = solve_equality_feasibility(model.columns, model.b)
    monkeypatch.setattr(simplex, "_float_basis", lambda cols, rhs: None)
    cold = solve_equality_feasibility(model.columns, model.b)
    _assert_point(model.columns, model.b, warm)
    _assert_point(model.columns, model.b, cold)
    assert warm.pivots <= model.num_rows < cold.pivots


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verdict_agrees_with_dense_oracle(data):
    n = data.draw(st.integers(3, 12))
    triples = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    raw = data.draw(st.sets(triples.filter(lambda e: len(set(e)) == 3), min_size=1, max_size=30))
    cx = build_complex(list(raw), VertexUniverse.single(n), close=True)
    model = build_lp(cx, ALLOC3)
    # negating a row, or scaling it by a positive fraction, changes nothing
    # about feasibility
    flips = data.draw(st.lists(st.booleans(), min_size=model.num_rows, max_size=model.num_rows))
    scales = [Fraction(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6)))
              * (-1 if f else 1) for f in flips]
    columns = [[(i, a * scales[i]) for i, a in col] for col in model.columns]
    b = [bi * c for bi, c in zip(model.b, scales)]
    res = solve_equality_feasibility(columns, b)
    assert res.feasible == brute_force_fractional(cx)
    if res.feasible:
        _assert_point(columns, b, res)
    else:
        _assert_farkas(columns, b, res)


@pytest.mark.parametrize(
    "min_den, message",
    [
        (2, "inexact"),         # a later pivot divides by den > 1 and meets a remainder
        (1, "fails A x = b"),   # every division by 1 is exact; the point check catches it
    ],
)
def test_corrupted_basis_inverse_raises(monkeypatch, min_den, message):
    # one entry of D * B^-1 is off by one after the first pivot that leaves
    # D >= min_den; the solver must raise rather than return a point
    model = build_lp(gen_random_dense(15, 3, p=0.5, seed=4, max_tries=1), ALLOC3)
    monkeypatch.setattr(simplex, "_float_basis", lambda cols, rhs: None)
    real, done = simplex._pivot_rows, []

    def corrupt(tab, d, leave, den):
        den = real(tab, d, leave, den)
        if not done and den >= min_den:
            tab[leave][0] += 1
            done.append(den)
        return den

    monkeypatch.setattr(simplex, "_pivot_rows", corrupt)
    with pytest.raises(ArithmeticError, match=message):
        solve_equality_feasibility(model.columns, model.b)


TWO_PART_ALLOCS = [
    [(1, 2), (2, 1)],
    [(1, 2), (1, 2), (2, 1)],
    [(1, 2), (2, 1), (2, 1), (2, 1)],
    [(0, 3), (1, 2), (1, 2), (3, 0)],
]


def _corpus(count=200, seed=8):
    """Seeded LP models: single-part hosts with n <= 24 and two-part hosts with
    multi-index allocations (balance coefficients 1/2 and 1/3), rows negated at
    random, a quarter of them solved cold."""
    rng = random.Random(seed)
    for t in range(count):
        if t % 2:
            uni = VertexUniverse(("A", "B"), (rng.randint(3, 8), rng.randint(3, 8)))
            alloc = allocation_from_index_multiset(rng.choice(TWO_PART_ALLOCS))
        else:
            uni = VertexUniverse.single(rng.randint(4, 24))
            alloc = ALLOC3
        p = rng.uniform(0.1, 0.6)
        top = [e for e in combinations(range(uni.total), 3) if rng.random() < p]
        if not top:
            continue
        model = build_lp(build_complex(top, uni, close=True), alloc)
        flips = [rng.random() < 0.3 for _ in model.b]
        columns = [[(i, -a if flips[i] else a) for i, a in col] for col in model.columns]
        b = [-bi if f else bi for bi, f in zip(model.b, flips)]
        yield columns, b, rng.random() < 0.25


def test_pivot_path_digest(monkeypatch):
    # pins (feasible, solution, certificate, pivots) of every corpus model, so
    # a change of the entering or leaving rule, of the basis the install
    # keeps, or of the column scaling shows here
    real = simplex._float_basis
    digest = hashlib.sha256()
    for columns, b, cold in _corpus():
        monkeypatch.setattr(simplex, "_float_basis", (lambda cols, rhs: None) if cold else real)
        res = solve_equality_feasibility(columns, b)
        sol = sorted((j, str(v)) for j, v in res.solution.items())
        cert = None if res.certificate is None else [str(y) for y in res.certificate]
        digest.update(repr((res.feasible, sol, cert, res.pivots)).encode())
    assert digest.hexdigest() == "7418bb89c4f0c56872e4b22041be68cf61ed3bc80f651d20ff2c6297ad8c81a1"
