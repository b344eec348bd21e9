"""Rounding: weight combination, sampling, coloring, nibble, regularity."""

import math
import random
import statistics
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from kmatch import rounding
from kmatch.core import (
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    index_vector,
    plain_allocation,
)
from kmatch.errors import IndexNotInAllocation, MixedHost
from kmatch.fractional import FractionalMatching, extract_weight_disjoint
from kmatch.oracle import complete_complex
from kmatch.rounding import (
    check_regularity,
    color_classes,
    combine_weights,
    nibble_match,
    sample_subgraph,
)

ALLOC3 = plain_allocation(3)


def test_combine_single():
    cc = complete_complex(6, 3)
    g = FractionalMatching(host=cc, weights={(0, 1, 2): Fraction(1), (3, 4, 5): Fraction(1)})
    combined = combine_weights([g])
    assert combined == {(0, 1, 2): Fraction(1, 2), (3, 4, 5): Fraction(1, 2)}


def test_combine_disjoint_supports():
    cc = complete_complex(12, 3)
    g1 = FractionalMatching(host=cc, weights={(0, 1, 2): Fraction(1)})
    g2 = FractionalMatching(host=cc, weights={(3, 4, 5): Fraction(1)})
    combined = combine_weights([g1, g2])
    assert combined == {(0, 1, 2): Fraction(1, 2), (3, 4, 5): Fraction(1, 2)}


def test_combine_mixed_host():
    g1 = FractionalMatching(host=complete_complex(6, 3), weights={(0, 1, 2): Fraction(1)})
    g2 = FractionalMatching(host=complete_complex(9, 3), weights={(0, 1, 2): Fraction(1)})
    with pytest.raises(MixedHost):
        combine_weights([g1, g2])


def test_combine_pipeline_weights_at_most_one():
    cc = complete_complex(30, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 8, seed=2)
    combined = combine_weights(res.matchings)
    assert max(combined.values()) <= 1


def test_combine_non_dyadic_weights_and_past_one():
    # halved sums over the common denominator 14 of 1/3, 2/7, 5/14 and 1,
    # returned as Fractions; a sum of exactly 2 is kept, past it asserts
    cc = complete_complex(9, 3)
    g1 = FractionalMatching(host=cc, weights={
        (0, 1, 2): Fraction(1, 3), (3, 4, 5): Fraction(5, 14), (6, 7, 8): Fraction(1)})
    g2 = FractionalMatching(host=cc, weights={(0, 1, 2): Fraction(2, 7), (3, 4, 5): Fraction(1)})
    combined = combine_weights([g1, g2])
    assert combined == {
        (0, 1, 2): Fraction(13, 42), (3, 4, 5): Fraction(19, 28), (6, 7, 8): Fraction(1, 2)}
    assert all(type(w) is Fraction for w in combined.values())
    assert combine_weights([g1, g1])[6, 7, 8] == 1
    with pytest.raises(AssertionError, match=r"combined weight 3/2 > 1 on \(6, 7, 8\)"):
        combine_weights([g1, g1, g1])


def test_sample_non_dyadic_weights_draw_as_the_fraction_test():
    # the keep test in ints over the common denominator keeps exactly the
    # edges that random() < g(e) keeps on Fractions, with the same draws
    cc = complete_complex(7, 3)
    weights = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 14), Fraction(1))
    g = {e: weights[i % 4] for i, e in enumerate(cc.iter_top())}
    degree = {}
    for e, w in g.items():
        for v in e:
            degree[v] = degree.get(v, Fraction(0)) + w
    assert len(set(degree.values())) > 1
    for seed in range(50):
        rng = random.Random(seed)
        want = [e for e in sorted(g) if g[e] >= 1 or rng.random() < g[e]]
        H = sample_subgraph(cc, g, seed=seed)
        assert H.edges == want, seed
        assert H.expected_degree == Fraction(sum(degree.values()), len(degree))


def test_sample_zero_and_one():
    cc = complete_complex(6, 3)
    empty = sample_subgraph(cc, {}, seed=0)
    assert empty.edges == []
    g = {e: Fraction(1) for e in cc.iter_top()}
    full = sample_subgraph(cc, g, seed=0)
    assert sorted(full.edges) == sorted(cc.iter_top())


def test_sample_mean_degree_concentrates():
    # 20 matchings halved: expected degree 10; mean over all vertices and
    # seeds should sit within 3 sigma of the binomial aggregate
    n, ell_in = 120, 20
    cc = complete_complex(n, 3)
    res = extract_weight_disjoint(cc, ALLOC3, ell_in, seed=5)
    assert res.completed
    g = combine_weights(res.matchings)
    expected = ell_in / 2
    means = []
    for seed in range(20):
        H = sample_subgraph(cc, g, seed=seed)
        assert H.expected_degree == Fraction(ell_in, 2)
        means.append(H.stats["mean_degree"])
    grand = statistics.mean(means)
    draws = 20 * n * expected  # aggregated Bernoulli mass
    sigma = math.sqrt(20 * n * expected * 0.5) * 3 / (20 * n)
    assert abs(grand - expected) <= 3 * max(sigma, 0.05)


def test_color_classes_sizes():
    # ten edges of one index vector split into m=3 classes sized {4,3,3}
    uni = VertexUniverse.equipartition(2, 15)
    alloc = allocation_from_index_multiset([(1, 2)] * 3)
    a = list(uni.part_vertices(0))
    b = list(uni.part_vertices(1))
    edges = []
    bi = 0
    for i in range(10):
        edges.append((a[i], b[bi % 15], b[(bi + 1) % 15]))
        bi += 2
    cx = build_complex({3: edges}, uni, k=3, close=True)
    H = sample_subgraph(cx, {e: Fraction(1) for e in cx.iter_top()}, seed=0)
    H = color_classes(H, alloc, seed=1)
    sizes = sorted(
        (c["size"] for c in H.stats["classes"]), reverse=True
    )
    assert sizes == [4, 3, 3]


def test_color_classes_single_index():
    cc = complete_complex(6, 3)
    H = sample_subgraph(cc, {e: Fraction(1) for e in cc.iter_top()}, seed=0)
    H = color_classes(H, ALLOC3, seed=0)
    assert H.num_classes == 1


def test_color_classes_unknown_index():
    uni = VertexUniverse.equipartition(2, 3)
    cx = build_complex({3: [(0, 1, 2)]}, uni, k=3, close=True)  # index (3, 0)
    H = sample_subgraph(cx, {(0, 1, 2): Fraction(1)}, seed=0)
    with pytest.raises(IndexNotInAllocation):
        color_classes(H, allocation_from_index_multiset([(1, 2)]), seed=0)


def test_nibble_single_family():
    # one disjoint edge per color class: the nibble returns exactly that family
    uni = VertexUniverse.equipartition(2, 9)
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    a = list(uni.part_vertices(0))
    b = list(uni.part_vertices(1))
    edges = [(a[0], b[0], b[1]), (a[1], a[2], b[2])]
    cx = build_complex({3: edges}, uni, k=3, close=True)
    H = sample_subgraph(cx, {e: Fraction(1) for e in cx.iter_top()}, seed=0)
    H = color_classes(H, alloc, seed=0)
    result = nibble_match(H, 16, seed=0)
    assert sorted(result.matching.edges) == sorted(
        tuple(sorted(e)) for e in edges
    )


def test_nibble_rejects_every_overlapping_tuple():
    # the two color classes' only edges share vertex a0, so every drawn tuple
    # is rejected and the nibble ends with nothing matched
    uni = VertexUniverse.equipartition(2, 9)
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    a = list(uni.part_vertices(0))
    b = list(uni.part_vertices(1))
    cx = build_complex({3: [(a[0], b[0], b[1]), (a[0], a[1], b[2])]}, uni, k=3, close=True)
    H = sample_subgraph(cx, {e: Fraction(1) for e in cx.iter_top()}, seed=0)
    H = color_classes(H, alloc, seed=0)
    assert H.num_classes == 2
    result = nibble_match(H, 1, seed=0)
    assert result.matching.edges == ()
    assert result.uncovered == tuple(range(18))
    assert result.flag == "round-limit"
    assert result.covered_fraction == 0.0
    assert result.best_trace == ()


def test_nibble_empty():
    cc = complete_complex(6, 3)
    H = sample_subgraph(cc, {}, seed=0)
    result = nibble_match(H, 0, seed=0)
    assert len(result.matching) == 0
    assert result.flag == "round-limit"
    assert len(result.uncovered) == 6


def test_nibble_reproducible_and_monotone():
    cc = complete_complex(60, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 10, seed=3)
    g = combine_weights(res.matchings)
    runs = []
    for _ in range(2):
        H = sample_subgraph(cc, g, seed=17)
        H = color_classes(H, ALLOC3, seed=17)
        runs.append(nibble_match(H, 3, seed=17))
    assert runs[0].matching.edges == runs[1].matching.edges
    assert runs[0].uncovered == runs[1].uncovered
    trace = runs[0].best_trace
    assert list(trace) == sorted(trace)


def _sample60():
    cc = complete_complex(60, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 10, seed=3)
    H = sample_subgraph(cc, combine_weights(res.matchings), seed=17)
    return color_classes(H, ALLOC3, seed=17)


def test_nibble_stops_at_the_cap_in_collapsed_mode():
    # greedy starts at 16 edges; the walk then stops at the first matching
    # that leaves at most the cap, ceil((60 - cap) / 3) edges
    H = _sample60()
    assert H.num_classes == 1
    for cap, size in ((9, 17), (6, 18)):
        result = nibble_match(H, cap, seed=17)
        assert result.flag == "ok"
        assert result.best_trace[0] < len(result.matching) == size
        assert len(result.uncovered) == cap
    # short of the cap the walk spends its budget and says so
    result = nibble_match(H, 3, seed=17)
    assert result.flag == "round-limit" and len(result.uncovered) > 3


def test_nibble_stops_at_the_cap_in_two_class_mode():
    # each accepted tuple covers 6 of the 18 vertices; the rounds stop at the
    # first tuple that brings the uncovered count to the cap
    uni = VertexUniverse.equipartition(2, 9)
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    edges = [e for e in combinations(range(18), 3)
             if index_vector(e, uni) in ((1, 2), (2, 1))]
    cx = build_complex({3: edges}, uni, k=3, close=True)
    H = sample_subgraph(cx, {e: Fraction(1) for e in cx.iter_top()}, seed=0)
    H = color_classes(H, alloc, seed=0)
    assert H.num_classes == 2
    for cap in (12, 6):
        result = nibble_match(H, cap, seed=0)
        assert result.flag == "ok"
        assert len(result.uncovered) == cap
        assert len(result.matching) == (18 - cap) // 3
    result = nibble_match(H, 0, seed=0)
    assert result.flag == "round-limit" and len(result.uncovered) > 0


def test_nibble_walk_stops_short_of_its_budget_without_a_perfect_matching(monkeypatch):
    # vertex 20 lies in no edge, so the sample has no perfect matching; at a
    # cap of k the walk stops at 6 edges instead of drawing its whole budget
    rng = random.Random(0)
    edges = [e for e in combinations(range(20), 3) if rng.random() < 0.05]
    cx = build_complex({3: edges}, VertexUniverse.single(21), k=3, close=True)
    H = sample_subgraph(cx, {e: Fraction(1) for e in cx.iter_top()}, seed=0)
    H = color_classes(H, ALLOC3, seed=0)
    assert H.stats["degrees"][20] == 0

    class CountingRandom(random.Random):
        draws = 0

        def randrange(self, *args):
            CountingRandom.draws += 1
            return super().randrange(*args)

    monkeypatch.setattr(rounding, "random", SimpleNamespace(Random=CountingRandom))
    result = nibble_match(H, 3, seed=0)
    assert result.flag == "ok" and len(result.uncovered) == 3
    assert result.best_trace == (5, 6)
    assert 0 < CountingRandom.draws < rounding.NIBBLE_DRAWS_PER_VERTEX * 21


def test_check_regularity_complete_sample_fails_small_ell():
    cc = complete_complex(12, 3)
    H = sample_subgraph(cc, {e: Fraction(1) for e in cc.iter_top()}, seed=0)
    rep = check_regularity(H, tau=0.2, ell=5)
    assert not rep["degree_pass"]
    assert rep["mean_degree"] == math.comb(11, 2)


def test_check_regularity_empty_fails():
    cc = complete_complex(6, 3)
    H = sample_subgraph(cc, {}, seed=0)
    rep = check_regularity(H, tau=0.2, ell=5)
    assert not rep["degree_pass"]
    assert rep["max_degree"] == 0
