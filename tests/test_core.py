"""Core data model: complexes, index vectors, degrees, allocations, balance."""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, permutations, product, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmatch.core import (
    CompleteComplex,
    KComplex,
    KSystem,
    Matching,
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    close_down,
    degree_sequences,
    face_codes,
    edge_key,
    index_vector,
    is_p_partite,
    is_pf_partite,
    matching_stats,
    plain_allocation,
    row_codes,
    validate_matching,
)
from kmatch.errors import (
    BadVertex,
    ClosureViolation,
    IndexNotInAllocation,
    NotPartite,
)
from kmatch.oracle import complete_complex, gen_divisibility_barrier, gen_space_barrier


def test_universe_basics():
    uni = VertexUniverse.equipartition(2, 4)
    assert uni.r == 2 and uni.n == 4 and uni.total == 8
    assert uni.part_of(0) == 0 and uni.part_of(7) == 1
    assert list(uni.part_vertices(1)) == [4, 5, 6, 7]
    with pytest.raises(BadVertex):
        uni.part_of(8)


def test_index_vector_examples():
    uni = VertexUniverse.equipartition(2, 3)
    assert index_vector([], uni) == (0, 0)
    assert index_vector([0, 1, 3], uni) == (2, 1)
    # a triple meeting the second part in exactly two vertices
    assert index_vector([0, 3, 4], uni) == (1, 2)


@given(st.data())
def test_index_vector_additive(data):
    uni = VertexUniverse.equipartition(3, 4)
    verts = list(uni.vertices())
    s = data.draw(st.sets(st.sampled_from(verts), max_size=6))
    t = data.draw(st.sets(st.sampled_from([v for v in verts if v not in s]), max_size=6))
    si, ti = index_vector(s, uni), index_vector(t, uni)
    union = index_vector(s | t, uni)
    assert union == tuple(a + b for a, b in zip(si, ti))
    assert sum(si) == len(s)


def test_build_complex_closure_of_one_edge():
    uni = VertexUniverse.single(3)
    cx = build_complex([(0, 1, 2)], uni, close=True)
    assert cx.level(2).tolist() == [[0, 1], [0, 2], [1, 2]]
    assert cx.level(1).tolist() == [[0], [1], [2]]
    assert cx.level(0).shape == (1, 0)


def test_build_complex_closure_violation():
    # the face test names the first edge and the face it lacks
    uni = VertexUniverse.single(3)
    message = r"^3-edge \(0, 1, 2\) present but sub-edge \(1, 2\) missing$"
    with pytest.raises(ClosureViolation, match=message):
        build_complex(
            {3: [(0, 1, 2)], 2: [(0, 1), (0, 2)], 1: [(0,), (1,), (2,)]},
            uni,
            k=3,
            close=False,
        )


def test_space_barrier_generator_output_is_closed():
    # construction rule: i-sets with at most j vertices of S; closure holds
    cx = gen_space_barrier(6, 3, 1, 2)
    rebuilt = build_complex(
        {i: cx.level(i) for i in range(1, 4)}, cx.universe, k=3, close=False
    )
    assert rebuilt.level(3).tolist() == cx.level(3).tolist()


def test_levels_outside_0_to_k_raise():
    # build_complex, KSystem() and KComplex() refuse a level above k alike
    uni = VertexUniverse.single(6)
    levels = {2: [(0, 1)], 3: [(0, 1, 2)]}
    for build in (KSystem, KComplex, lambda u, k, lv: build_complex(lv, u, k=k, close=False),
                  lambda u, k, lv: build_complex(lv, u, k=k)):
        with pytest.raises(BadVertex, match="edge level exceeds k=2"):
            build(uni, 2, levels)
    with pytest.raises(BadVertex, match="edge level exceeds k=2"):
        KSystem(uni, 2, {-1: []})


def test_a_vertex_in_level_0_raises_with_or_without_closure():
    # level 0 holds only the empty edge, whether or not the levels are closed
    levels = {0: [(1,)], 3: [(0, 1, 2)]}
    for close in (True, False):
        with pytest.raises(BadVertex, match=r"edge \(1,\) is not a 0-set"):
            build_complex(levels, VertexUniverse.single(3), k=3, close=close)


def _reference_close_down(levels, k):
    """The downward closure as tuples in sets, subset by subset."""
    out = {i: {tuple(sorted(e)) for e in levels.get(i, ())} for i in range(k + 1)}
    for i in range(k, 0, -1):
        out[i - 1].update(chain.from_iterable(map(combinations, out[i], repeat(i - 1))))
    out[0].add(())
    return out


def _reference_rebuild(levels, pool):
    """The levels restricted to the edges inside pool, by a set filter."""
    return {i: set(filter(pool.issuperset, es)) for i, es in levels.items()}


def _levels_of(system) -> dict:
    return {i: system.level(i) for i in range(system.k + 1)}


def _assert_levels(system, want):
    for i in range(system.k + 1):
        assert list(map(tuple, system.level(i).tolist())) == sorted(want[i]), i


@st.composite
def _raw_levels(draw):
    """Levels of random i-sets for k in 1..4, each listed with its vertices
    in a random order and some listed twice, and a vertex pool."""
    k = draw(st.integers(1, 4))
    r = draw(st.integers(1, 2))
    uni = VertexUniverse.equipartition(r, draw(st.integers(k, 7)))
    levels = {}
    for i in range(1, k + 1):
        sets = list(combinations(range(uni.total), i))
        edges = draw(st.lists(st.sampled_from(sets), max_size=12))
        edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
        levels[i] = [tuple(draw(st.permutations(e))) for e in edges]
    pool = draw(st.sets(st.sampled_from(range(uni.total))))
    return uni, k, levels, frozenset(pool)


@settings(max_examples=200, deadline=None)
@given(_raw_levels())
def test_levels_equal_the_tuple_set_reference(case):
    # KSystem(), close_down, KComplex(), induced and rebuild against tuple
    # sets: sorted distinct rows, level 0 one empty row
    uni, k, levels, pool = case
    given_sets = {i: {tuple(sorted(e)) for e in levels.get(i, ())} for i in range(k + 1)}
    given_sets[0] = {()}
    closed = _reference_close_down(levels, k)
    rows = close_down(uni, k, levels)
    _assert_levels(rows, closed)
    system, cx = KSystem(uni, k, levels), KComplex(uni, k, _levels_of(rows))
    inside = {i: [e for e in es if pool.issuperset(e)] for i, es in levels.items()}
    closed_inside = _levels_of(close_down(uni, k, inside))
    for host, want, on_pool in ((system, given_sets, KSystem(uni, k, inside, vertex_pool=pool)),
                                (cx, closed, KComplex(uni, k, closed_inside, vertex_pool=pool))):
        _assert_levels(host, want)
        _assert_levels(host.induced(pool), _reference_rebuild(want, pool))
        flat = host.rebuild(VertexUniverse.single(uni.total), pool)
        assert flat.closed == host.closed and flat.universe.r == 1
        _assert_levels(flat, _reference_rebuild(want, pool))
        assert on_pool.vertex_pool == pool
        _assert_levels(on_pool, _reference_close_down(inside, k) if host.closed else
                       _reference_rebuild(given_sets, pool))
    for i in range(k + 1):
        for level in (system.level(i), cx.level(i), rows.level(i)):
            with pytest.raises(ValueError):
                level[...] = 0


def test_restrictions_mask_the_parent_rows(monkeypatch):
    # induced and rebuild keep the parent's rows inside the pool, read-only,
    # without sorting them again, without a face test and without sharing
    # the parent's edge table; a universe of another size raises
    import kmatch.core

    bare = gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)])
    cx = build_complex(bare.iter_top(), bare.universe)
    cx.edge_table()

    def refuse(*args, **kwargs):
        raise AssertionError("a restriction re-checked canonical rows")

    monkeypatch.setattr(kmatch.core, "_sorted_rows", refuse)
    monkeypatch.setattr(KSystem, "__init__", refuse)
    monkeypatch.setattr(KComplex, "__init__", refuse)
    pool = frozenset(range(1, 8))
    for host in (cx, bare):
        for sub in (host.induced(pool), host.rebuild(VertexUniverse.single(9), pool)):
            assert type(sub) is type(host) and sub.vertex_pool == pool
            for i in range(4):
                want = [e for e in host.level(i).tolist() if pool.issuperset(e)]
                assert sub.level(i).tolist() == want
                with pytest.raises(ValueError):
                    sub.level(i)[...] = 0
            top = list(host.iter_top())
            assert [sub.has_top(e) for e in top] == [pool.issuperset(e) for e in top]
            assert sub.edge_table().E.tolist() == sub.level(3).tolist()
        with pytest.raises(BadVertex, match="a universe of 10 vertices, not 9"):
            host.rebuild(VertexUniverse.single(10), pool)


def test_build_complex_bad_vertex():
    uni = VertexUniverse.single(3)
    with pytest.raises(BadVertex):
        build_complex([(0, 1, 7)], uni, close=True)


@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)), max_size=12))
@settings(max_examples=40)
def test_closure_idempotent(raw):
    uni = VertexUniverse.single(8)
    edges = [t for t in raw if len(set(t)) == 3]
    cx = build_complex(edges, uni, k=3, close=True)
    again = build_complex(
        {i: cx.level(i) for i in range(4)}, uni, k=3, close=True
    )
    assert all(again.level(i).tolist() == cx.level(i).tolist() for i in range(4))


def test_degree_sequences_space_barrier():
    # independent derivation: enumerate the construction from scratch
    n, k, j, s = 10, 3, 1, 4
    planted = set(range(s))
    uni = VertexUniverse.single(n)
    levels = {
        i: [e for e in combinations(range(n), i) if len(planted & set(e)) <= j]
        for i in range(1, k + 1)
    }
    expected = []
    for i in range(k):
        lower = levels.get(i, [()]) if i else [()]
        upper = set(levels[i + 1])
        expected.append(
            min(
                sum(1 for v in range(n) if v not in e and tuple(sorted(e + (v,))) in upper)
                for e in lower
            )
        )
    assert tuple(expected) == (10, 6, 5)
    cx = gen_space_barrier(n, k, j, s)
    assert degree_sequences(cx).plain == (10, 6, 5)


def test_degree_sequences_complete():
    assert degree_sequences(complete_complex(6, 3)).plain == (6, 5, 4)


def test_degree_sequences_divisibility_enumerated():
    # |A| = |B| = 4: pairs inside A extend only within A, giving n/2 - 2 = 2
    H = gen_divisibility_barrier([4, 4], 3, [(1, 2), (3, 0)])
    cx = build_complex({3: list(H.iter_top())}, H.universe, k=3, close=True)
    rep = degree_sequences(cx)
    assert rep.plain[2] == 2
    assert rep.plain[0] == 8 and rep.plain[1] == 7


def test_partite_degrees_require_partite_system():
    cx = complete_complex(6, 3)  # r=1: no untouched part to extend into
    with pytest.raises(NotPartite):
        degree_sequences(cx, partite=True)


def _edges(system, i) -> set:
    return set(map(tuple, system.level(i).tolist()))


# Reference degrees by direct enumeration, one function per kind: each
# extension is looked up edge by edge, independently of the counting pass.
def _plain_degrees(system) -> tuple:
    out = []
    for i in range(system.k):
        lower = _edges(system, i)
        upper = _edges(system, i + 1)
        if not lower:
            out.append(0)
            continue
        counts = Counter()
        for e in upper:
            for sub in combinations(e, i):
                counts[sub] += 1
        out.append(min(counts.get(e, 0) for e in lower))
    return tuple(out)


def test_degree_sequences_past_int64_codes():
    # 61 ** 11 > 2 ** 63: the face codes of the top level fall back to Python
    # ints and must count exactly what enumeration counts
    uni = VertexUniverse.single(61)
    top = [tuple(range(12)), tuple(range(6, 18)), tuple(range(49, 61))]
    bare = KSystem(uni, 12, {12: top, 11: [top[0][1:]]})
    for system in (build_complex({12: top}, uni, k=12), bare):
        assert degree_sequences(system).plain == _plain_degrees(system)
    rows = np.array([[60] * 11, [60] * 10 + [59], [0] * 10 + [1]])
    assert row_codes(rows, 61).tolist() == [61 ** 11 - 1, 61 ** 11 - 2, 1]


@pytest.mark.parametrize("total", [9, 61])
def test_face_codes_equal_the_codes_of_the_built_faces(total):
    # block t of face_codes is row_codes of the rows without column t, in
    # int64 and, for width 12 over 61 vertices, in the Python-int fallback
    rng = np.random.default_rng(total)
    for width in range(1, 13 if total == 61 else 9):
        E = np.sort(np.array([rng.choice(total, width, replace=False) for _ in range(7)]), axis=1)
        built = [row_codes(np.delete(E, t, axis=1), total) for t in range(width)]
        assert face_codes(E, total).tolist() == np.concatenate(built).tolist()


def _partite_degrees(system) -> tuple:
    uni = system.universe
    out = []
    for j in range(system.k):
        lower = _edges(system, j)
        upper = _edges(system, j + 1)
        best = None
        for e in lower:
            used = set(uni.part_of(v) for v in e)
            for p in range(uni.r):
                if p in used:
                    continue
                cnt = sum(1 for v in uni.part_vertices(p) if edge_key(e + (v,)) in upper)
                if best is None or cnt < best:
                    best = cnt
        out.append(best if best is not None else 0)
    return tuple(out)


def _f_degrees(system, alloc) -> tuple:
    uni = system.universe
    out = []
    for j in range(system.k):
        lower = _edges(system, j)
        upper = _edges(system, j + 1)
        by_index = {}
        for e in lower:
            by_index.setdefault(index_vector(e, uni), []).append(e)
        best = None
        for pattern, _ in alloc.functions:
            counts = [0] * uni.r
            for p in pattern[:j]:
                counts[p] += 1
            for e in by_index.get(tuple(counts), []):
                cnt = sum(
                    1
                    for v in uni.part_vertices(pattern[j])
                    if v not in e and edge_key(e + (v,)) in upper
                )
                if best is None or cnt < best:
                    best = cnt
        out.append(best if best is not None else 0)
    return tuple(out)


@st.composite
def _systems_and_allocations(draw):
    """Closed complexes and bare systems (random, unclosed lower levels) for
    k in {2, 3, 4} on r in {1, 2, 3} parts, some P-partite, with a random
    allocation or none."""
    k = draw(st.sampled_from([2, 3, 4]))
    r = draw(st.sampled_from([1, 2, 3]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    uni = VertexUniverse(tuple(f"V{j}" for j in range(r)), tuple(sizes))
    partite = r >= 2 and draw(st.booleans())

    def edges(i, most):
        cands = [
            e for e in combinations(uni.vertices(), i)
            if not partite or len({uni.part_of(v) for v in e}) == i
        ]
        return draw(st.lists(st.sampled_from(cands), max_size=most)) if cands else []

    if draw(st.booleans()):
        system = build_complex({k: edges(k, 16)}, uni, k=k, close=True)
    else:
        system = KSystem(uni, k, {i: edges(i, 8 if i < k else 16) for i in range(1, k + 1)})
    vectors = [v for v in product(range(k + 1), repeat=r) if sum(v) == k]
    alloc = None
    if draw(st.booleans()):
        alloc = allocation_from_index_multiset(
            draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
        )
    return system, alloc


@settings(max_examples=150, deadline=None)
@given(_systems_and_allocations())
def test_degree_sequences_match_enumeration(case):
    system, alloc = case
    rep = degree_sequences(system, alloc)
    assert rep.plain == _plain_degrees(system)
    if system.universe.r >= 2 and is_p_partite(system):
        assert rep.partite == _partite_degrees(system)
    else:
        assert rep.partite is None
    assert rep.f_degree == (None if alloc is None else _f_degrees(system, alloc))


@settings(max_examples=150, deadline=None)
@given(_systems_and_allocations())
def test_degree_sequences_on_the_edge_table_match_enumeration(case):
    # once the host has built its edge table, the top level is counted on it
    system, alloc = case
    system.edge_table()
    rep = degree_sequences(system, alloc)
    assert rep.plain == _plain_degrees(system)
    assert rep.f_degree == (None if alloc is None else _f_degrees(system, alloc))


def _set_counts(levels, k, n):
    """The common-link matrix and the plain degrees of leveled i-sets, by
    sets: L(v) is {e - v : v in e} over the k-sets e, and plain degree j is
    the least number of (j+1)-sets over a j-set, 0 on an empty level."""
    links = [{tuple(w for w in e if w != v) for e in levels[k] if v in e} for v in range(n)]
    common = [[len(links[u] & links[w]) for w in range(n)] for u in range(n)]
    plain = tuple(
        min((sum(tuple(sorted(e + (v,))) in levels[j + 1] for v in range(n) if v not in e)
             for e in levels[j]), default=0)
        for j in range(k)
    )
    return common, plain


@st.composite
def _face_systems(draw):
    """Hosts for k in 1..4 on at most 9 vertices in 1 to 3 parts, with their
    levels as sets of sorted tuples: a bare k-graph; the closure of a top
    level whose lower levels list every face or a random part of them, plus
    i-sets that no top edge contains; or a CompleteComplex and the explicit
    complete complex."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    uni = VertexUniverse(tuple(f"V{j}" for j in range(len(sizes))), tuple(sizes))
    every = {i: sorted(combinations(uni.vertices(), i)) for i in range(k + 1)}
    kind = draw(st.sampled_from(["bare", "closed", "complete"]))
    if kind == "complete":
        explicit = close_down(uni, k, {i: every[i] for i in range(1, k + 1)})
        return (CompleteComplex(uni, k), explicit), {i: set(es) for i, es in every.items()}
    top = draw(st.lists(st.sampled_from(every[k]), max_size=30)) if every[k] else []
    if kind == "bare":
        bare = {i: set() for i in range(1, k)} | {0: {()}, k: set(top)}
        return (KSystem(uni, k, {k: top}),), bare
    faces_of_top = _reference_close_down({k: top}, k)
    levels = {k: top}
    part = draw(st.booleans())
    for i in range(1, k):
        listed = [e for e in sorted(faces_of_top[i]) if not part or draw(st.booleans())]
        stray = draw(st.lists(st.sampled_from(every[i]), max_size=4)) if every[i] else []
        levels[i] = listed + stray
    return (close_down(uni, k, levels),), _reference_close_down(levels, k)


@settings(max_examples=200, deadline=None)
@given(_face_systems())
def test_faces_found_in_the_level_below_equal_the_set_counts(case):
    # common_links, the plain degrees and close_down's levels locate faces
    # in the codes of the level below; sets count them edge by edge
    hosts, levels = case
    for host in hosts:
        k, n = host.k, host.universe.total
        common, plain = _set_counts(levels, k, n)
        _assert_levels(host, levels)
        assert host.common_links().tolist() == common
        assert degree_sequences(host).plain == plain


def test_allocation_from_index_multiset_r1():
    alloc = allocation_from_index_multiset([(3,)])
    assert alloc.size == 6  # 3! copies of the constant function
    assert alloc.functions == (((0, 0, 0), 6),)
    assert alloc.multiplicity((3,)) == 1


def test_allocation_from_index_multiset_mixed():
    alloc = allocation_from_index_multiset([(1, 2)])
    assert alloc.size == 6
    funcs = dict(alloc.functions)
    assert set(funcs) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert all(c == 2 for c in funcs.values())


def _allocation_by_permutations(index_multiset):
    """The allocation's functions as first built: every one of the k!
    orderings of a realizing pattern, each distinct one counted k!/|orbit| times."""
    funcs = Counter()
    for v in index_multiset:
        base = tuple(j for j, c in enumerate(v) for _ in range(c))
        orbit = set(permutations(base))
        for pat in orbit:
            funcs[pat] += math.factorial(len(base)) // len(orbit)
    return tuple(sorted(funcs.items()))


# the index multisets with k <= 6 that the tests build allocations from
TEST_INDEX_MULTISETS = [
    [(1,)], [(3,)], [(1, 2)], [(1, 2)] * 3, [(2, 1), (1, 2)], [(1, 2), (2, 1)],
    [(1, 1, 1)], [(3, 0)], [(3, 0), (1, 2)], [(1, 2), (3, 0)],
    [(1, 2), (1, 2), (2, 1)], [(1, 2), (2, 1), (2, 1), (2, 1)], [(0, 3), (1, 2), (1, 2), (3, 0)],
] + [
    # every k-vector over up to 3 parts for k <= 6: the hypothesis strategies
    # of test_core and test_fractional draw their multisets from these
    [v] for k in range(1, 7) for r in range(1, 4)
    for v in product(range(k + 1), repeat=r) if sum(v) == k
]


def test_allocation_arrangements_match_the_permutation_closure():
    for index_multiset in TEST_INDEX_MULTISETS:
        alloc = allocation_from_index_multiset(index_multiset)
        assert alloc.functions == _allocation_by_permutations(index_multiset), index_multiset


def test_plain_allocation_of_twelve_is_fast():
    # the permutation closure had 12! orderings to collapse into one function
    start = time.perf_counter()
    alloc = plain_allocation(12)
    assert time.perf_counter() - start < 1
    assert alloc.functions == (((0,) * 12, math.factorial(12)),)


def test_allocation_empty():
    alloc = allocation_from_index_multiset([], r=2)
    assert alloc.size == 0


def test_allocation_permutation_closed():
    alloc = allocation_from_index_multiset([(2, 1), (1, 2)])
    funcs = dict(alloc.functions)
    for pattern, count in funcs.items():
        for i in range(len(pattern)):
            for j in range(len(pattern)):
                swapped = list(pattern)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert funcs.get(tuple(swapped)) == count


def test_matching_stats_single_index_alpha_zero():
    uni = VertexUniverse.single(6)
    m = Matching.from_edges([(0, 1, 2), (3, 4, 5)])
    stats = matching_stats(m, plain_allocation(3), uni)
    assert stats["alpha"] == 0
    assert stats["n_tilde"][(3,)] == 2


def test_matching_stats_alpha_ratio():
    # normalized counts {4, 5} give alpha = 1/5
    uni = VertexUniverse.equipartition(2, 27)
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    edges = []
    a_pool = list(uni.part_vertices(0))
    b_pool = list(uni.part_vertices(1))
    for t in range(5):
        edges.append((a_pool[2 * t], a_pool[2 * t + 1], b_pool[t]))
    for t in range(4):
        edges.append((a_pool[10 + t], b_pool[5 + 2 * t], b_pool[6 + 2 * t]))
    m = Matching.from_edges(edges)
    stats = matching_stats(m, alloc, uni)
    assert stats["alpha"] == Fraction(1, 5)


def test_matching_stats_unknown_index():
    uni = VertexUniverse.equipartition(2, 3)
    m = Matching.from_edges([(0, 1, 2)])  # index (3, 0)
    with pytest.raises(IndexNotInAllocation):
        matching_stats(m, allocation_from_index_multiset([(1, 2)]), uni)


# both hosts have the 3-sets of range(6) as their top edges, in a universe of 9
VALIDATION_HOSTS = {
    "explicit": lambda: build_complex({3: combinations(range(6), 3)}, VertexUniverse.single(9)),
    "complete": lambda: CompleteComplex(VertexUniverse.single(9), 3, vertex_pool=range(6)),
}


@pytest.mark.parametrize("host", sorted(VALIDATION_HOSTS))
@pytest.mark.parametrize("edges, cover, valid", [
    ([(0, 1, 2), (3, 4, 5)], range(6), True),
    ([(2, 1, 0), (5, 3, 4)], None, True),              # edges in any vertex order
    ([], None, True),
    ([(0, 1, 2), (6, 7, 8)], None, False),             # a non-edge
    ([(0, 1, 2), (2, 3, 4)], None, False),             # two edges share a vertex
    ([(0, 1, 2), (0, 1, 2)], None, False),             # a repeated edge
    ([(0, 1, 1)], None, False),                        # a repeated vertex
    ([(0, 1), (2, 3, 4)], None, False),                # wrong widths
    ([(0, 1, 2, 3)], None, False),
    ([(0, 1, 9)], None, False),                        # vertices outside the universe
    ([(-1, 0, 1)], None, False),
    ([(0, 1, 2 ** 70)], None, False),
    ([(0, 1, 2)], range(6), False),                    # misses the cover
    ([], range(6), False),
    ([(0, 1, 2), (3, 4, 5)], range(3), False),         # goes beyond the cover
])
def test_validate_matching(host, edges, cover, valid):
    matching = Matching(edges=tuple(map(tuple, edges)))
    assert validate_matching(VALIDATION_HOSTS[host](), matching, cover=cover) is valid


def test_is_pf_partite():
    assert is_pf_partite(complete_complex(6, 3), plain_allocation(3))
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    cx = build_complex({3: list(H.iter_top())}, H.universe, k=3, close=True)
    good = allocation_from_index_multiset([(3, 0), (1, 2)])
    bad = allocation_from_index_multiset([(3, 0)])
    assert is_pf_partite(cx, good)
    assert not is_pf_partite(cx, bad)


def test_f_degree_of_a_step_into_a_missing_part_is_zero():
    # an allocation over three parts on a two-part host: every level has a
    # lower edge whose next step needs a vertex of part 2, which no edge has
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    cx = build_complex({3: list(H.iter_top())}, H.universe, k=3)
    rep = degree_sequences(cx, allocation_from_index_multiset([(1, 1, 1)]))
    assert rep.plain == (8, 7, 2)
    assert rep.f_degree == (0, 0, 0)


def test_degree_and_partite_checks_build_no_edge_table():
    # a host that has not built its edge table is counted on its levels and
    # keeps no table: hosts kept alive in bulk would otherwise grow
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    alloc = allocation_from_index_multiset([(3, 0), (1, 2)])
    for host in (build_complex({3: list(H.iter_top())}, H.universe, k=3), complete_complex(6, 3)):
        degree_sequences(host, alloc if host.universe.r == 2 else None)
        is_p_partite(host)
        is_pf_partite(host, alloc if host.universe.r == 2 else plain_allocation(3))
        assert host._table is None


def test_plain_degree_invariants():
    cx = gen_space_barrier(8, 3, 1, 3)
    rep = degree_sequences(cx)
    assert rep.plain[0] == len(cx.level(1))
    nv = cx.universe.total
    assert all(rep.plain[j] <= nv - j for j in range(cx.k))


@given(st.lists(st.integers(0, 12), min_size=2, max_size=2))
def test_alpha_in_unit_interval(counts):
    # alpha lies in [0, 1] and vanishes exactly when counts agree
    uni = VertexUniverse.equipartition(2, 3 * (sum(counts) + 1))
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    a = list(uni.part_vertices(0))
    b = list(uni.part_vertices(1))
    edges = []
    ai = bi = 0
    for _ in range(counts[0]):
        edges.append((a[ai], b[bi], b[bi + 1]))
        ai += 1
        bi += 2
    for _ in range(counts[1]):
        edges.append((a[ai], a[ai + 1], b[bi]))
        ai += 2
        bi += 1
    m = Matching.from_edges(edges)
    stats = matching_stats(m, alloc, uni)
    assert 0 <= stats["alpha"] <= 1
    values = set(stats["n_tilde"].values())
    assert (stats["alpha"] == 0) == (len(values) == 1)
