"""The exact phase-1 simplex called directly: float-guided warm start, cold
restarts, exact points and exactly checked Farkas certificates."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch.simplex as simplex
from kmatch.core import (
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    index_vector,
    plain_allocation,
)
from kmatch.fractional import FractionalMatching, build_lp, solve_feasible, verify_fractional
from kmatch.oracle import brute_force_fractional, gen_random_dense, gen_space_barrier
from kmatch.simplex import solve_equality_feasibility

ALLOC3 = plain_allocation(3)


def csc_from_columns(columns):
    """The solver's integer CSC arrays (ptr, rows, vals, scale) of hand-written
    sparse columns [(row, int or Fraction), ...]: column j is scaled by
    scale[j], the lcm of its own denominators; vals and scale are int64, or
    Python ints when an entry reaches 2^62."""
    ptr = np.cumsum([0] + [len(col) for col in columns], dtype=np.int64)
    rows = np.array([i for col in columns for i, _ in col], dtype=np.intp)
    dens = [a.denominator for col in columns for _, a in col]
    scale = [math.lcm(*dens[s:e]) for s, e in zip(ptr.tolist(), ptr[1:].tolist())]
    nums = [int(a * c) for col, c in zip(columns, scale) for _, a in col]
    return ptr, rows, _ints(nums), _ints(scale)


def _ints(values):
    return np.array(values, dtype=object if max(map(abs, values), default=0) >> 62 else np.int64)


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
    res = solve_equality_feasibility(csc_from_columns(columns), b)
    _assert_point(columns, b, res)
    assert res.solution == {0: 1, 1: 3}


def test_negative_rhs_infeasible_certificate_in_original_signs():
    # x0 + x1 = -1 has no nonnegative solution
    columns = [[(0, 1)], [(0, 1)]]
    res = solve_equality_feasibility(csc_from_columns(columns), [-1])
    _assert_farkas(columns, [-1], res)
    assert res.certificate[0] < 0


def test_degenerate_model():
    # a zero row, a duplicate row and a zero column: the basis keeps an
    # artificial at level zero, which the extracted point leaves out
    columns = [[(0, 1), (1, 1)], [(0, 1), (1, 1), (2, 1)], []]
    b = [1, 1, 0]
    res = solve_equality_feasibility(csc_from_columns(columns), b)
    _assert_point(columns, b, res)
    assert res.solution == {0: 1}


def test_empty_model_is_feasible():
    res = solve_equality_feasibility(csc_from_columns([]), [])
    assert res.feasible and res.solution == {} and res.pivots == 0


def test_infeasible_certificate_passes_check():
    # every edge holds vertex 0, so vertices 2..5 cannot each be covered once
    edges = [(0, 1, v) for v in range(2, 6)]
    cx = build_complex(edges, VertexUniverse.single(6), close=True)
    model = build_lp(cx, ALLOC3)
    res = solve_equality_feasibility(model.csc, model.b)
    _assert_farkas(model.columns, model.b, res)


@pytest.mark.parametrize("y", [[1], [-1]])
def test_farkas_check_rejects_a_bad_certificate(y):
    # x0 + x1 = 1 is feasible, so no y passes: [1] fails y.A_j <= 0, [-1] fails y.b > 0
    csc = (np.array([0, 1, 2]), np.array([0, 0]), np.array([1, 1]))
    with pytest.raises(ArithmeticError):
        simplex._farkas(csc, [1], y)


def test_column_dots_read_zero_on_empty_columns():
    # columns [], [(0, 2)], [], [(0, 1), (1, 3)], []: reduceat alone would
    # give an empty column the entry its segment starts at
    csc = (np.array([0, 0, 1, 1, 3, 3]), np.array([0, 0, 1]), np.array([2, 1, 3]))
    assert simplex._dots(np.array([5, 7]), csc).tolist() == [0, 10, 0, 26, 0]
    assert simplex._dots(None, csc).tolist() == [0, 4, 0, 10, 0]


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
    cold = solve_equality_feasibility(csc_from_columns(columns), b)
    monkeypatch.setattr(simplex, "_float_basis", lambda cols, rhs: guide)
    res = solve_equality_feasibility(csc_from_columns(columns), b)
    _assert_point(columns, b, res)
    assert res.solution == {2: 1}
    # install pivots are real exact pivots and count even when discarded
    assert res.pivots == cold.pivots + wasted


def test_warm_start_saves_exact_pivots(monkeypatch):
    model = build_lp(gen_random_dense(15, 3, p=0.5, seed=4, max_tries=1), ALLOC3)
    warm = solve_equality_feasibility(model.csc, model.b)
    monkeypatch.setattr(simplex, "_float_basis", lambda cols, rhs: None)
    cold = solve_equality_feasibility(model.csc, model.b)
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
    res = solve_equality_feasibility(csc_from_columns(columns), b)
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
        solve_equality_feasibility(model.csc, model.b)


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
        yield model, alloc, columns, b, rng.random() < 0.25


def _corpus_digest(monkeypatch):
    """sha256 of (feasible, solution, certificate, pivots) over the corpus."""
    real = simplex._float_basis
    digest = hashlib.sha256()
    for _, _, columns, b, cold in _corpus():
        monkeypatch.setattr(simplex, "_float_basis", (lambda cols, rhs: None) if cold else real)
        res = solve_equality_feasibility(csc_from_columns(columns), b)
        sol = sorted((j, str(v)) for j, v in res.solution.items())
        cert = None if res.certificate is None else [str(y) for y in res.certificate]
        digest.update(repr((res.feasible, sol, cert, res.pivots)).encode())
    return digest.hexdigest()


PIVOT_PATH_DIGEST = "7418bb89c4f0c56872e4b22041be68cf61ed3bc80f651d20ff2c6297ad8c81a1"


def test_pivot_path_digest(monkeypatch):
    # pins (feasible, solution, certificate, pivots) of every corpus model, so
    # a change of the entering or leaving rule, of the basis the install
    # keeps, or of the column scaling shows here
    assert _corpus_digest(monkeypatch) == PIVOT_PATH_DIGEST


def test_pivot_path_digest_on_python_ints(monkeypatch):
    # the object-dtype tableau takes the same pivots to the same answers
    monkeypatch.setattr(simplex, "_tableau_dtype", lambda a, rhs: object)
    assert _corpus_digest(monkeypatch) == PIVOT_PATH_DIGEST


def _reference_float_basis(cols, rhs):
    """The float guide with the cost row and the basic values kept apart from
    the tableau, each updated on its own: the guide must return its basis."""
    ptr, rows, vals = cols
    m, ncols = len(rhs), len(ptr) - 1
    tab = np.zeros((m, ncols + m))
    tab[rows, np.repeat(np.arange(ncols), np.diff(ptr))] = vals
    tab[:, ncols:] = np.eye(m)
    x = np.array(rhs, dtype=float)
    cost = np.concatenate([-tab[:, :ncols].sum(axis=0), np.zeros(m)])
    basis = list(range(ncols, ncols + m))
    for _ in range(simplex.FLOAT_PIVOTS_PER_ROW * m):
        enter = int(np.argmin(cost))
        if cost[enter] >= -simplex.FLOAT_TOL:
            return basis
        col = tab[:, enter]
        rows = np.flatnonzero(col > simplex.FLOAT_TOL)
        if rows.size == 0:
            return None
        leave = int(rows[np.argmin(x[rows] / col[rows])])
        piv = col[leave]
        tab[leave] /= piv
        x[leave] /= piv
        rows = np.flatnonzero(tab[:, enter])
        rows = rows[rows != leave]
        f = tab[rows, enter]
        tab[rows] -= f[:, None] * tab[leave]
        x[rows] -= f * x[leave]
        cost -= cost[enter] * tab[leave]
        basis[leave] = enter
    return None


def _guides_agree(csc, b):
    """Solve with both guides run on the solver's own float input; requires
    the same basis (or both None) and returns it."""
    real, bases = simplex._float_basis, []

    def both(cols, rhs):
        bases.append((real(cols, rhs), _reference_float_basis(cols, rhs)))
        return bases[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_float_basis", both)
        solve_equality_feasibility(csc, b)
    [(got, want)] = bases
    assert got == want
    return got


def test_float_guide_matches_the_reference_on_the_corpus():
    bases = [_guides_agree(csc_from_columns(columns), b) for _, _, columns, b, _ in _corpus()]
    assert sum(basis is not None for basis in bases) >= 150


TWO_VECTOR = allocation_from_index_multiset([(2, 1), (1, 2)])


@given(st.integers(4, 15), st.booleans(), st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_float_guide_matches_the_reference_on_dense_hosts(n, two_part, p, seed):
    # two-part hosts of n // 2 + n // 2 vertices carry the balance row of
    # the two-vector allocation, with entries -1 and +1
    host = gen_random_dense(n // 2 if two_part else n, 3, r=2 if two_part else 1, p=p, seed=seed, max_tries=1)
    if host.top_count():
        model = build_lp(host, TWO_VECTOR if two_part else ALLOC3)
        _guides_agree(model.csc, model.b)


def test_float_guide_matches_the_reference_on_tied_ratios():
    # every ratio test ties: all rows read 1 and every column is a 0/1 vector
    columns = [[(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 1)], [(1, 1), (2, 1)], [(0, 1)], [(2, 1)], [(1, 1)]]
    b = [1, 1, 1]
    assert _guides_agree(csc_from_columns(columns), b) is not None
    _assert_point(columns, b, solve_equality_feasibility(csc_from_columns(columns), b))


def test_float_guide_peak_memory_stays_near_its_tableau():
    # m = 75 rows and 57,193 columns: the (m+1) x (w+1) float tableau is
    # 34.8 MB, and the row update's column blocks add a few MB to it
    model = build_lp(gen_random_dense(75, 3, p=0.85, seed=1), ALLOC3)
    ptr, rows, vals, scale = model.csc
    cols = (ptr, rows, vals / np.repeat(scale, np.diff(ptr)))  # the solver's float input
    m, w = model.num_rows, model.num_cols + model.num_rows
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        basis = simplex._float_basis(cols, [float(v) for v in model.b])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert basis is not None
    assert peak <= 1.5 * (m + 1) * (w + 1) * 8


def test_build_lp_csc_matches_a_reference_edge_by_edge(monkeypatch):
    # vertex rows read 1 and balance rows +-1/m, each column scaled by the lcm
    # of its own denominators; the float guide reads the unscaled values
    real, guided = simplex._float_basis, []
    monkeypatch.setattr(simplex, "_float_basis",
                        lambda cols, rhs: guided.append(cols[2]) or real(cols, rhs))
    for model, alloc, _, _, _ in _corpus():
        host = model.host
        assert model.edges == sorted(host.iter_top())
        row = {v: i for i, v in enumerate(sorted(host.vertex_pool))}
        vectors = alloc.index_vectors()
        pairs = list(zip(vectors, vectors[1:]))
        assert model.balance_pairs == pairs
        reference = []
        for e in model.edges:
            vec = index_vector(e, host.universe)
            col = [(row[v], 1) for v in e]
            for t, (va, vb) in enumerate(pairs):
                if vec in (va, vb):
                    coef = Fraction(1 if vec == va else -1, alloc.multiplicity(vec))
                    col.append((len(row) + t, coef))
            reference.append(col)
        assert model.columns == reference
        for got, want in zip(model.csc, csc_from_columns(reference)):
            assert got.dtype == want.dtype == np.int64 and got.tolist() == want.tolist()
        solve_equality_feasibility(model.csc, model.b)
        floats = np.array([float(a) for col in reference for _, a in col])
        assert guided[-1].tobytes() == floats.tobytes()


def _fraction_report(system, weights, alloc):
    """Reference for verify_fractional: every sum taken in Fractions."""
    sums = {v: Fraction(0) for v in sorted(system.vertex_pool)}
    per_index = {}
    for e, w in weights.items():
        for v in e:
            sums[v] += w
        vec = index_vector(e, system.universe)
        per_index[vec] = per_index.get(vec, Fraction(0)) + w
    vertex = {v: s - 1 for v, s in sums.items()}
    balance = {}
    if alloc is not None:
        vectors = alloc.index_vectors()
        norm = {vec: per_index.get(vec, Fraction(0)) / alloc.multiplicity(vec) for vec in vectors}
        balance = {(a, b): norm[a] - norm[b] for a, b in zip(vectors, vectors[1:])}
    return {
        "ok": all(r == 0 for r in vertex.values()) and all(r == 0 for r in balance.values()),
        "vertex_residuals": vertex,
        "max_vertex_residual": max((abs(r) for r in vertex.values()), default=Fraction(0)),
        "balance_residuals": balance,
        "support": len(weights),
    }


def test_verify_fractional_int_sums_give_the_fraction_report():
    # on every feasible corpus point, two-part balance rows included, and on
    # the same point with one weight thirded, with and without the allocation
    checked = 0
    for model, alloc, _, _, _ in _corpus():
        frac = solve_feasible(model)
        if frac is None:
            continue
        edge = next(iter(frac.weights))
        off = dict(frac.weights)
        off[edge] /= 3
        for weights in (frac.weights, off):
            for al in (alloc, None):
                got = verify_fractional(model.host, FractionalMatching(model.host, weights), al)
                want = _fraction_report(model.host, weights, al)
                assert got == want
                residuals = [*got["vertex_residuals"].values(), *got["balance_residuals"].values()]
                assert all(type(r) is Fraction for r in residuals)
        assert verify_fractional(model.host, frac, alloc)["ok"]
        checked += 1
    assert checked >= 50


def test_tableau_dtype_keeps_big_entries_exact():
    # (3 * 2^31)^2, and a sum of three squares near 2^62, each wrap in int64
    near = 2**31 - 1
    for columns, norms in [([[(0, 3 * 2**31), (1, 1)], [(0, 1)]], [9 * 2**62 + 1, 1]),
                           ([[(0, near), (1, near), (2, near)]], [3 * near**2])]:
        a = csc_from_columns(columns)[:3]
        assert a[2].dtype == np.int64
        assert simplex._tableau_dtype(a, [1, 1, 1]) is object
        assert simplex._dots(None, a).tolist() == norms
    # small entries square in int64, and to the same values
    small = build_lp(gen_random_dense(12, 3, p=0.5, seed=2, max_tries=1), ALLOC3).csc[:3]
    assert simplex._dots(None, small).dtype == np.int64
    assert simplex._dots(None, small).tolist() == [3] * len(small[0][1:])


def test_tableau_dtype_follows_the_hadamard_bound(monkeypatch):
    real, seen = simplex._tableau_dtype, []

    def spy(a, rhs):
        seen.append(real(a, rhs))
        return seen[-1]

    monkeypatch.setattr(simplex, "_tableau_dtype", spy)
    # a frac-lp model at n = 24: H^2 = 24 * 3^23
    model = build_lp(gen_random_dense(24, 3, p=0.3, seed=1, max_tries=1), ALLOC3)
    _assert_point(model.columns, model.b, solve_equality_feasibility(model.csc, model.b))
    # at n = 45, 45 * 3^44 is past the int64 bound
    model = build_lp(gen_space_barrier(45, 3, 1, 16), ALLOC3)
    _assert_farkas(model.columns, model.b, solve_equality_feasibility(model.csc, model.b))
    assert seen == [np.int64, object]
