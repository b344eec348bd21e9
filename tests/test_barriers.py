"""Barrier search and verification against independent exhaustion oracles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np
import pytest

from kmatch.barriers import (
    DivBarrierCert,
    _count_inside,
    _count_top_overflow,
    SpaceBarrierCert,
    divisibility_barrier_search,
    space_barrier_search,
    verify_divisibility_barrier,
    verify_space_barrier,
)
from kmatch.core import CompleteComplex, VertexUniverse, build_complex, plain_allocation
from kmatch.errors import MalformedCert
from kmatch.lattice import find_transferral, generate_lattice, is_complete
from kmatch.fractional import build_lp, solve_feasible
from kmatch.oracle import (
    brute_force_pm,
    complete_complex,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
)
from kmatch.pipeline import (
    PipelineConfig,
    decide,
    host_view,
    space_barrier_stage,
    verify_certificate,
)


def oracle_space_exhaustion(system, beta, p):
    """Independent: scan every planted set of the right size directly."""
    n = system.universe.part_sizes[0]
    want = (p * n) // system.k
    threshold = beta * Fraction(n) ** (p + 1)
    for s in combinations(sorted(system.vertex_pool), want):
        inside = frozenset(s)
        count = sum(1 for e in system.level(p + 1) if inside.issuperset(e))
        if count <= threshold:
            return True
    return False


def test_planted_space_found_and_verified():
    js = gen_space_barrier(6, 3, 1, 2)
    cert = space_barrier_search(js, Fraction(1, 100))
    assert cert is not None and cert.exhaustive
    assert cert.edge_count == 0
    assert verify_space_barrier(js, cert)


def test_complete_no_space_cert_at_small_beta():
    cc = complete_complex(6, 3)
    beta = Fraction(1, 100)
    assert space_barrier_search(cc, beta) is None
    assert not any(oracle_space_exhaustion(cc, beta, p) for p in (1, 2))


def test_search_agrees_with_exhaustion_oracle():
    beta = Fraction(1, 40)
    for seed in range(6):
        cx = gen_random_dense(9, 3, p=0.5 + 0.08 * seed, seed=seed)
        found = space_barrier_search(cx, beta) is not None
        oracle = any(oracle_space_exhaustion(cx, beta, p) for p in (1, 2))
        assert found == oracle


def test_space_local_search_on_larger_instance():
    js = gen_space_barrier(24, 3, 1, 10)
    cert = space_barrier_search(js, Fraction(1, 1000))
    assert cert is not None and not cert.exhaustive
    assert verify_space_barrier(js, cert)


def test_space_malformed_certs():
    js = gen_space_barrier(6, 3, 1, 2)
    good = space_barrier_search(js, Fraction(1, 100))
    with pytest.raises(MalformedCert):
        verify_space_barrier(
            js,
            SpaceBarrierCert(
                p=good.p, part_sets=((0,),), edge_count=0,
                beta=good.beta, part_size=6, exhaustive=True,
            ),
        )
    with pytest.raises(MalformedCert):
        verify_space_barrier(
            js,
            SpaceBarrierCert(
                p=5, part_sets=good.part_sets, edge_count=0,
                beta=good.beta, part_size=6, exhaustive=True,
            ),
        )


def test_space_search_reproducible():
    js = gen_space_barrier(24, 3, 1, 10)
    a = space_barrier_search(js, Fraction(1, 1000))
    b = space_barrier_search(js, Fraction(1, 1000))
    assert a.part_sets == b.part_sets


PARTS_5_3 = (tuple(range(5)), tuple(range(5, 8)))  # gen_divisibility_barrier([5, 3], ...)


def test_divisibility_found_and_verified():
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    cert = divisibility_barrier_search(H, Fraction(1, 100), 2, [PARTS_5_3])
    assert cert is not None and not cert.exhaustive
    assert [len(p) for p in cert.parts] == [5, 3]
    assert verify_divisibility_barrier(H, cert)


def test_divisibility_even_b_still_a_barrier():
    # the lattice shape is the certificate; i(V) membership is not its job
    H = gen_divisibility_barrier([4, 4], 3, [(1, 2), (3, 0)])
    parts = (tuple(range(4)), tuple(range(4, 8)))
    cert = divisibility_barrier_search(H, Fraction(1, 300), 2, [parts])
    assert cert is not None
    assert verify_divisibility_barrier(H, cert)


def test_complete_no_divisibility_at_small_mu():
    cc = complete_complex(9, 3)
    every = set_partitions(sorted(cc.vertex_pool), 3)
    assert divisibility_barrier_search(cc, Fraction(1, 100), 3, every) is None


def test_divisibility_mu_raised_flips_verification():
    # raising mu past (1,2)'s support count changes the recomputed lattice,
    # so the original certificate no longer verifies
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    cert = divisibility_barrier_search(H, Fraction(1, 100), 2, [PARTS_5_3])
    assert cert is not None
    raised = DivBarrierCert(
        parts=cert.parts,
        min_part_size=cert.min_part_size,
        lattice=cert.lattice,
        mu=Fraction(16, 512),  # threshold 16 > count(1,2) = 15
        exhaustive=False,
    )
    assert not verify_divisibility_barrier(H, raised)


def test_divisibility_min_part_size_fails_verification():
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    cert = divisibility_barrier_search(H, Fraction(1, 100), 2, [PARTS_5_3])
    small = DivBarrierCert(
        parts=cert.parts,
        min_part_size=4,  # B has only 3 vertices
        lattice=cert.lattice,
        mu=cert.mu,
        exhaustive=False,
    )
    assert not verify_divisibility_barrier(H, small)


def test_divisibility_candidates_path():
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    parts = (tuple(range(5)), tuple(range(5, 8)))
    cert = divisibility_barrier_search(
        H, Fraction(1, 100), 2, candidates=[parts]
    )
    assert cert is not None and not cert.exhaustive
    wrong = (tuple(range(4)), tuple(range(4, 8)))
    assert (
        divisibility_barrier_search(H, Fraction(1, 100), 2, candidates=[wrong])
        is None
        or verify_divisibility_barrier(
            H,
            divisibility_barrier_search(H, Fraction(1, 100), 2, candidates=[wrong]),
        )
    )


def test_every_returned_cert_passes_its_verifier():
    for seed in range(4):
        cx = gen_random_dense(9, 3, p=0.35 + 0.1 * seed, seed=20 + seed)
        sc = space_barrier_search(cx, Fraction(1, 40))
        if sc is not None:
            assert verify_space_barrier(cx, sc)
        dc = divisibility_barrier_search(
            cx, Fraction(1, 200), 2, set_partitions(sorted(cx.vertex_pool), 3)
        )
        if dc is not None:
            assert verify_divisibility_barrier(cx, dc)


def test_certificates_round_trip_through_json():
    space = space_barrier_search(gen_space_barrier(9, 3, 1, 4), Fraction(1, 100))
    large = space_barrier_search(gen_space_barrier(18, 3, 1, 7), Fraction(1, 1000))
    div = divisibility_barrier_search(
        gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]), Fraction(1, 100), 2, [PARTS_5_3]
    )
    assert space.exhaustive and not large.exhaustive
    for cert in (space, large):
        assert SpaceBarrierCert.from_json(cert.to_json()) == cert
    assert DivBarrierCert.from_json(div.to_json()) == div
    # the partite grouping survives the round trip too
    grouped = DivBarrierCert(
        parts=div.parts, min_part_size=div.min_part_size, lattice=div.lattice,
        mu=div.mu, exhaustive=div.exhaustive, ambient_groups=(0, 1),
        robust_vectors=div.robust_vectors,
    )
    assert DivBarrierCert.from_json(grouped.to_json()) == grouped


def set_partitions(items, max_parts):
    """Independent: every set partition into at most max_parts blocks, as
    restricted growth strings filtered from all label tuples, in
    lexicographic order."""
    out = []
    for labels in product(range(max_parts), repeat=len(items)):
        if all(c <= max(labels[:i], default=-1) + 1 for i, c in enumerate(labels)):
            blocks = [[] for _ in range(max(labels) + 1)]
            for v, c in zip(items, labels):
                blocks[c].append(v)
            out.append(tuple(tuple(b) for b in blocks))
    return out


def first_barrier_by_counting(system, mu, min_part_size, candidates):
    """Reference: the first candidate with no part below min_part_size whose
    robust vectors, counted edge by edge, span an incomplete lattice with no
    transferral; as (parts, sorted robust vectors, lattice), or None."""
    k, n = system.k, len(system.vertex_pool)
    edges = [tuple(e) for e in system.level(k).tolist()]
    for parts in candidates:
        if any(len(p) < min_part_size for p in parts):
            continue
        part_of = {v: j for j, p in enumerate(parts) for v in p}
        counts = Counter(tuple(sum(part_of[v] == j for v in e) for j in range(len(parts)))
                         for e in edges)
        vectors = sorted(v for v, c in counts.items() if c >= mu * n ** k)
        lat = generate_lattice(vectors, len(parts))
        if not is_complete(lat, k) and find_transferral(lat) is None:
            return parts, vectors, lat
    return None


@pytest.mark.parametrize(
    "n, k, p, seed",
    [(6, 2, 0.5, 1), (8, 2, 0.7, 2), (6, 3, 0.4, 3), (9, 3, 0.6, 4), (9, 3, 0.9, 5),
     (8, 4, 0.5, 6), (8, 4, 0.9, 7)],
)
def test_divisibility_search_returns_the_first_barrier_candidate(n, k, p, seed):
    cx = gen_random_dense(n, k, p=p, seed=seed)
    assert cx.top_count() > 0
    every = set_partitions(sorted(cx.vertex_pool), k)
    for mu in (Fraction(1, 500), Fraction(1, 60), Fraction(1, 15)):
        for min_part_size in (0, 2, 3):
            cert = divisibility_barrier_search(cx, mu, min_part_size, every)
            want = first_barrier_by_counting(cx, mu, min_part_size, every)
            assert (cert is None) == (want is None), (mu, min_part_size)
            if cert is not None:
                assert (cert.parts, sorted(cert.robust_vectors)) == want[:2]
                assert cert.lattice.basis == want[2].basis
                assert verify_divisibility_barrier(cx, cert)


def first_sparse_by_count_inside(system, beta):
    """Reference: the first planted set the exhaustive space search should
    return, by a plain loop over _count_inside in product-of-combinations
    order; (p, sets, count, number of sets tried before it), or the total
    number of planted sets when none is sparse."""
    uni = system.universe
    n = uni.part_sizes[0]
    tried = 0
    for p in range(1, system.k):
        want = p * n // system.k
        threshold = beta * Fraction(n) ** (p + 1)
        per_part = [list(uni.part_vertices(j)) for j in range(uni.r)]
        for chosen in product(*(combinations(avail, want) for avail in per_part)):
            count = _count_inside(system, p + 1, frozenset(chain.from_iterable(chosen)))
            if count <= threshold:
                return p, chosen, count, tried
            tried += 1
    return tried


def test_exhaustive_space_search_matches_count_inside_loop():
    seen = set()
    hosts = [gen_space_barrier(n, 3, j, s, r=r)
             for r, n in ((1, 9), (1, 12), (2, 5), (2, 6)) for j in (1, 2) for s in (2, 4)]
    hosts += [gen_random_dense(n, 3, r=r, p=p, seed=s, max_tries=1)
              for r, n in ((1, 9), (2, 6)) for p in (0.5, 0.9) for s in (1, 2)]
    # one sparse planted set at each side of the first two block edges
    # (blocks of 16, then 32 sets): the t-th triple, the only one spanning no 2-edge
    triples = list(combinations(range(9), 3))
    for t in (15, 16, 47, 48):
        planted = set(triples[t])
        hosts.append(build_complex([e for e in triples if len(planted.intersection(e)) <= 1],
                                   VertexUniverse.single(9), k=3))
    hits = set()
    for cx in hosts:
        for beta in (Fraction(1, 100), Fraction(1, 8)):
            ref = first_sparse_by_count_inside(cx, beta)
            if isinstance(ref, int):
                assert space_barrier_search(cx, beta) is None
                continue
            p, chosen, count, index = ref
            cert = space_barrier_search(cx, beta)
            assert cert.exhaustive and cert.p == p and cert.edge_count == count
            assert cert.part_sets == tuple(tuple(sorted(s)) for s in chosen)
            seen.add((cx.universe.r, p))
            hits.add(index)
    assert seen == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert {15, 16, 47, 48} <= hits


def test_top_overflow_count_equals_the_loop_count():
    # the mask count against the per-edge loop it replaced, on explicit hosts
    # and on an implicit complete one, at every p from 0 to k
    hosts = [gen_random_dense(12, 3, p=0.7, seed=3), gen_space_barrier(12, 4, 1, 4),
             CompleteComplex(VertexUniverse.single(9), 3, vertex_pool=range(1, 9))]
    rng = random.Random(0)
    for host in hosts:
        pool = sorted(host.vertex_pool)
        for _ in range(20):
            inside = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            for p in range(host.k + 1):
                loop = sum(1 for e in host.iter_top() if len(inside.intersection(e)) > p)
                assert _count_top_overflow(host, inside, p) == loop


def lp_infeasible(system):
    """Independent of the search: the exact LP has no perfect fractional
    matching (no top edge at all counts as infeasible)."""
    if not system.top_count():
        return True
    return solve_feasible(build_lp(system, plain_allocation(system.k))) is None


def test_lp_space_search_plants_inside_the_planted_set():
    # pools of 15-24 vertices: every barrier is read off the Farkas support.
    # |S| > j n / 3 blocks a perfect matching; s >= n - 1 at j = 1 and s = n
    # at j = 2 leave no top edge at all
    shapes = [(n, j, s) for n in (15, 18, 24) for j in (1, 2)
              for s in range(j * n // 3 + 1, n + 1)]
    assert {(15, 1, 14), (15, 2, 15), (18, 1, 17), (24, 1, 23)} <= set(shapes)
    for n, j, s in shapes:
        planted = gen_space_barrier(n, 3, j, s)
        cx = host_view(planted)
        cert = space_barrier_stage(cx)
        assert cert is not None, (n, j, s)
        assert verify_space_barrier(cx, cert)
        assert cert.vertex_set() <= planted.planted_set, (n, j, s)
        assert cert.edge_count == 0 and cert.top_overflow_count == 0
        assert cert.exhaustive is False


def test_lp_space_search_none_on_matchable_hosts():
    hosts = [gen_random_dense(n, 3, p=0.85, seed=seed) for n in (15, 18, 21, 24) for seed in (0, 1)]
    hosts += [gen_divisibility_barrier(shape, 3, [(1, 2), (3, 0)]) for shape in ([9, 6], [10, 6])]
    for cx in map(host_view, hosts):
        assert len(cx.vertex_pool) > 14
        assert space_barrier_stage(cx) is None


def test_lp_space_search_reports_only_infeasible_lps():
    # the planted (n, 1, n/3 + 2) barrier with missing 3-edges added at random:
    # a near barrier whose LP is feasible blocks nothing and is not reported
    rng = np.random.default_rng(11)
    outcomes = set()
    for n in (15, 18):
        planted = gen_space_barrier(n, 3, 1, n // 3 + 2)
        kept = set(planted.iter_top())
        for q in (0.0, 0.03, 0.1, 0.3):
            edges = [e for e in combinations(range(n), 3) if e in kept or rng.random() < q]
            cx = host_view(build_complex({3: edges}, VertexUniverse.single(n), k=3, close=True))
            cert = space_barrier_search(cx, Fraction(1, 100))
            infeasible = lp_infeasible(cx)
            if cert is not None:
                assert infeasible and verify_space_barrier(cx, cert)
                assert cert.top_overflow_count == 0
            outcomes.add((cert is not None, infeasible))
    assert (True, True) in outcomes and (False, False) in outcomes


def perturbed_space_barrier(n, j, s, q, seed):
    """The planted (n, j, s) barrier plus each missing 3-edge, in combinations
    order, with probability q, closed into a complex."""
    planted = gen_space_barrier(n, 3, j, s)
    top = set(planted.iter_top())
    rng = random.Random(seed)
    added = [e for e in combinations(range(n), 3) if e not in top and rng.random() < q]
    return build_complex({3: sorted(top) + added}, planted.universe, k=3, close=True)


@pytest.mark.parametrize("n, j, s, q, seed", [
    (15, 1, 7, 0.01, 2), (15, 1, 7, 0.01, 4), (18, 1, 8, 0.003, 7), (21, 1, 9, 0.003, 3),
])
def test_lp_space_search_tries_p_below_a_stray_edge(n, j, s, q, seed):
    # each host has an LP-infeasible planted set S that some added top edge
    # meets in 2 vertices; p = 1 still plants a set with at most beta n^2
    # 2-edges inside, so decide reports the barrier instead of Inconclusive
    cx = perturbed_space_barrier(n, j, s, q, seed)
    cert = decide(cx, PipelineConfig(seed=1))
    assert cert.tag == "SpaceBarrier" and cert.payload["p"] == 1
    assert verify_certificate(host_view(cx), cert)
    if n == 15:
        assert brute_force_pm(cx, cap=15) is None
