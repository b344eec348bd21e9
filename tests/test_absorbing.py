"""Reachability, closed partitions, absorber construction, and absorption."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch.absorbing
from kmatch.absorbing import (
    AbsorberConfig,
    _leftover_sets,
    absorb,
    build_absorber,
    closed_partition,
)
from kmatch.core import (
    KSystem,
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    degree_sequences,
    plain_allocation,
    validate_matching,
)
from kmatch.errors import (
    AbsorberUnavailable,
    AbsorptionFailed,
    BudgetExhausted,
    PreconditionFailed,
)
from kmatch.oracle import (
    brute_force_pm,
    complete_complex,
    gen_divisibility_barrier,
    gen_random_dense,
)

ALLOC3 = plain_allocation(3)


def close_graph(H):
    return build_complex({3: list(H.iter_top())}, H.universe, k=3, close=True)


def test_common_links_complete():
    # in the complete 3-complex on 6 vertices, L(u) & L(w) is every pair
    # avoiding u and w, and L(u) every pair avoiding u
    common = complete_complex(6, 3).common_links()
    for u in range(6):
        for w in range(6):
            assert common[u, w] == math.comb(5 if u == w else 4, 2)


def test_common_links_divisibility_cross_pairs_are_zero():
    # u in A, w in B: a common witness pair would need both even and odd
    # B-intersection, so every cross-part count is exactly zero, and every
    # in-part count is positive
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    common = H.common_links()
    for u in range(8):
        for w in range(8):
            assert (common[u, w] > 0) == ((u < 5) == (w < 5)), (u, w)


def test_common_links_isolated_vertex():
    # one triple: each of its vertices has a one-pair link that no other
    # vertex shares, and the other vertices have empty links
    uni = VertexUniverse.single(6)
    cx = build_complex({3: [(0, 1, 2)]}, uni, k=3, close=True)
    common = cx.common_links()
    assert common.tolist() == [[int(u == w < 3) for w in range(6)] for u in range(6)]


def test_closed_partition_complete_single_part():
    cc = complete_complex(9, 3)
    cp = closed_partition(cc, delta=Fraction(1, 6), alpha=Fraction(1, 100))
    assert len(cp.parts) == 1
    assert cp.witness[0][1] == 1


def test_closed_partition_divisibility_splits():
    H = close_graph(gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]))
    cp = closed_partition(H, delta=Fraction(1, 8), alpha=Fraction(1, 1000))
    assert [len(p) for p in cp.parts] == [5, 3]


def _reference_partition(system, alpha):
    """Components of u ~ v <=> |L(u) & L(v)| >= ceil(alpha |V|^(k-1)) inside
    each input part, from explicit link sets, and which of them are cliques."""
    links = {v: set() for v in system.vertex_pool}
    for e in system.iter_top():
        for v in e:
            links[v].add(tuple(w for w in e if w != v))
    need = math.ceil(alpha * len(links) ** (system.k - 1))
    part_of = system.universe.part_of
    adj = {v: {u for u in links if u != v and part_of(u) == part_of(v)
               and len(links[u] & links[v]) >= need} for v in links}
    comps, seen = [], set()
    for v in sorted(links):
        if v in seen:
            continue
        comp, frontier = {v}, [v]
        while frontier:
            new = adj[frontier.pop()] - comp
            comp |= new
            frontier.extend(new)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    cliques = [all(adj[u] >= set(c) - {u} for u in c) for c in comps]
    return comps, cliques


@pytest.mark.parametrize("host, delta, alpha, sizes, ts", [
    (gen_random_dense(15, 3, p=0.6, seed=2), Fraction(1, 6), Fraction(1, 100), [15], [1]),
    (close_graph(gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])),
     Fraction(1, 8), Fraction(1, 1000), [5, 3], [1, 1]),
    (gen_random_dense(9, 3, r=2, p=0.7, seed=4,
                      allocation=allocation_from_index_multiset([(1, 2), (2, 1)])),
     Fraction(1, 6), Fraction(1, 200), [9, 9], [1, 1]),
    # sparse hosts at a large alpha: parts that are not reach cliques get t = 2
    (gen_random_dense(8, 3, p=0.2, seed=1, max_tries=1), Fraction(1, 100), Fraction(1, 100),
     [4, 4], [2, 2]),
    (gen_random_dense(8, 3, p=0.2, seed=5, max_tries=1), Fraction(1, 100), Fraction(1, 100),
     [6, 2], [2, 1]),
])
def test_closed_partition_is_the_exact_reach_components(host, delta, alpha, sizes, ts):
    cp = closed_partition(host, delta, alpha)
    comps, cliques = _reference_partition(host, alpha)
    assert list(cp.parts) == comps and [len(p) for p in comps] == sizes
    assert [t for _, t in cp.witness] == [1 if c else 2 for c in cliques] == ts
    assert closed_partition(host, delta, alpha) == cp  # nothing is sampled


def test_closed_partition_delta_too_big():
    with pytest.raises(PreconditionFailed):
        closed_partition(complete_complex(6, 3), delta=Fraction(3, 2), alpha=Fraction(1, 100))


def test_closed_partition_coarsenings():
    H = close_graph(gen_divisibility_barrier([4, 4], 3, [(1, 2), (3, 0)]))
    cp = closed_partition(H, delta=Fraction(1, 8), alpha=Fraction(1, 1000))
    coars = cp.coarsenings()
    assert any(len(c) == 1 for c in coars)  # the merge of everything
    assert any(len(c) == 2 for c in coars)


def test_absorber_dense_r1():
    cx = gen_random_dense(30, 3, p=0.9, seed=3)
    cfg = AbsorberConfig(
        seed=5, phi=Fraction(1, 10), epsilon=Fraction(7, 10), mu=Fraction(1, 500),
        family_target=2,
    )
    state = build_absorber(cx, ALLOC3, cfg)
    assert len(state.family.sets) == 2
    assert all(len(s) == 9 for s in state.family.sets)
    # each member absorbs a k-set: random leftovers of capacity() k-sets are
    # absorbed, and the matchings validate exactly
    avail = sorted(set(cx.vertex_pool) - state.w_vertices)
    for seed in range(5):
        leftover = random.Random(seed).sample(avail, state.capacity() * cx.k)
        m = absorb(state, leftover)
        assert validate_matching(cx, m, cover=state.w_vertices | set(leftover))
    # recorded matching of W validates, and brute force confirms J[W] matchable
    assert validate_matching(cx, state.w_matching, cover=state.w_vertices)
    induced = cx.induced(state.w_vertices)
    assert brute_force_pm(induced, vertices=sorted(state.w_vertices), cap=18) is not None


def test_absorber_divisibility_unavailable():
    H = close_graph(gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]))
    cp = closed_partition(H, delta=Fraction(1, 8), alpha=Fraction(1, 1000))
    with pytest.raises(AbsorberUnavailable):
        build_absorber(H, ALLOC3, AbsorberConfig(mu=Fraction(1, 200)), partition=cp)


def test_absorber_budget_exhausted():
    cx = gen_random_dense(30, 3, p=0.9, seed=3)
    cfg = AbsorberConfig(phi=Fraction(3, 10), epsilon=Fraction(1, 10), mu=Fraction(1, 500))
    with pytest.raises(BudgetExhausted):
        build_absorber(cx, ALLOC3, cfg)


def test_absorber_plan_larger_than_pool_fails_before_any_try(monkeypatch):
    # a t=1 member needs k^2 = 9 vertices; a budget above the 6-vertex pool
    # (as the pipeline's epsilon_eff gives at n=6) must not start 400 tries
    def never(*args):
        raise AssertionError("member construction attempted")

    monkeypatch.setattr(kmatch.absorbing, "_build_absorber_member", never)
    cx = gen_random_dense(6, 3, p=1.0, seed=0)
    cfg = AbsorberConfig(epsilon=Fraction(15, 6), family_target=1)
    with pytest.raises(BudgetExhausted, match="needs 9 vertices, the pool has 6"):
        build_absorber(cx, ALLOC3, cfg)


def test_leftover_count_is_exact():
    # phi * |V| / k is exactly 1 here, as the pipeline's phi = 3/|V| gives at
    # |V| = 273; in floats 1/91 * 273 rounds up past 3, and its ceiling would
    # size the absorber's reserves for two leftover k-sets
    assert math.ceil(float(Fraction(1, 91)) * 273 / 3) == 2
    assert _leftover_sets(Fraction(1, 91), 273, 3) == 1
    assert _leftover_sets(Fraction(1, 100), 30, 3) == 1  # never below one


def test_absorb_empty_returns_recorded_matching():
    cx = gen_random_dense(30, 3, p=0.9, seed=3)
    cfg = AbsorberConfig(
        seed=5, phi=Fraction(1, 10), epsilon=Fraction(7, 10), mu=Fraction(1, 500),
        family_target=2,
    )
    state = build_absorber(cx, ALLOC3, cfg)
    m = absorb(state, [])
    assert m.vertex_set() == state.w_vertices
    assert validate_matching(cx, m, cover=state.w_vertices)


def test_absorb_r1_identity_decomposition():
    cx = gen_random_dense(30, 3, p=0.9, seed=7)
    cfg = AbsorberConfig(
        seed=2, phi=Fraction(1, 5), epsilon=Fraction(8, 10), mu=Fraction(1, 500),
        family_target=2,
    )
    state = build_absorber(cx, ALLOC3, cfg)
    dec = state.decomposition_table[(3,)]
    assert dec.positive_part == {(3,): 1} and not dec.negative_part
    rng = random.Random(1)
    avail = sorted(set(cx.vertex_pool) - state.w_vertices)
    leftover = rng.sample(avail, 6)
    m = absorb(state, leftover)
    assert m.vertex_set() == state.w_vertices | set(leftover)
    assert validate_matching(cx, m, cover=m.vertex_set())


def test_absorb_two_part_worked_example():
    # cross-only instance: robust vectors {(1,2),(2,1)}; an all-A triple
    # decomposes as (3,0) = 2*(2,1) - 1*(1,2), drawing one reserve edge and
    # re-partitioning six vertices into two (2,1)-sets
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    cx = gen_random_dense(18, 3, r=2, p=1.0, seed=0, allocation=alloc)
    cfg = AbsorberConfig(
        seed=3, phi=Fraction(1, 12), epsilon=Fraction(25, 36), mu=Fraction(1, 400),
        family_target=2,
    )
    state = build_absorber(cx, alloc, cfg)
    dec = state.decomposition_table[(3, 0)]
    assert dec.positive_part == {(2, 1): 2}
    assert dec.negative_part == {(1, 2): 1}
    assert (1, 2) in state.reserves and state.reserves[(1, 2)]
    avail_a = sorted(
        set(cx.universe.part_vertices(0)) & (set(cx.vertex_pool) - state.w_vertices)
    )
    leftover = avail_a[:3]
    assert len(leftover) == 3
    m = absorb(state, leftover)
    assert m.vertex_set() == state.w_vertices | set(leftover)
    assert validate_matching(cx, m, cover=m.vertex_set())


def test_absorber_balancing_extension_adds_edges():
    # members and reserves leave W with five (1,2) edges and three (2,1)
    # edges; a W budget of 30 vertices leaves room for two more (2,1) edges
    alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
    cx = gen_random_dense(18, 3, r=2, p=1.0, seed=0, allocation=alloc)
    cfg = AbsorberConfig(
        seed=0, phi=Fraction(1, 12), epsilon=Fraction(5, 6), mu=Fraction(1, 400),
        family_target=2,
    )
    state = build_absorber(cx, alloc, cfg)
    assert state.extension == ((3, 6, 28), (7, 12, 26))
    assert not any(f.startswith("balancing extension") for f in state.flags)
    counts = state.w_matching.per_index_counts(cx.universe)
    assert counts == {(1, 2): 5, (2, 1): 5}
    assert validate_matching(cx, state.w_matching, cover=state.w_vertices)


def test_absorb_rejects_overlap_and_bad_size():
    cx = gen_random_dense(30, 3, p=0.9, seed=3)
    cfg = AbsorberConfig(
        seed=5, phi=Fraction(1, 10), epsilon=Fraction(7, 10), mu=Fraction(1, 500),
        family_target=2,
    )
    state = build_absorber(cx, ALLOC3, cfg)
    w = sorted(state.w_vertices)
    with pytest.raises(AbsorptionFailed):
        absorb(state, [w[0], w[1], w[2]])
    outside = sorted(set(cx.vertex_pool) - state.w_vertices)
    with pytest.raises(AbsorptionFailed):
        absorb(state, outside[:4])


def test_absorber_bookkeeping_no_reuse():
    cx = gen_random_dense(30, 3, p=0.9, seed=11)
    cfg = AbsorberConfig(
        seed=5, phi=Fraction(1, 5), epsilon=Fraction(8, 10), mu=Fraction(1, 500),
        family_target=2,
    )
    state = build_absorber(cx, ALLOC3, cfg)
    rng = random.Random(4)
    avail = sorted(set(cx.vertex_pool) - state.w_vertices)
    leftover = rng.sample(avail, 6)  # two k-sets: uses both members once
    m = absorb(state, leftover)
    assert validate_matching(cx, m, cover=state.w_vertices | set(leftover))


def test_proposition_neighborhood_floor_statistical():
    # dense instances: reachable in-part neighborhoods sit near the top
    # degree, per the double-counting bound delta_{k-1} - sqrt(eta) n
    eta = Fraction(1, 100)
    for seed in (0, 1):
        cx = gen_random_dense(18, 3, p=0.95, seed=seed)
        rep = degree_sequences(cx, ALLOC3)
        floor = rep.f_degree[-1] - float(eta) ** 0.5 * 18
        common = cx.common_links()
        need = math.ceil(eta * 18 ** 2)  # at least eta |V|^(k-1) common pairs
        for v in (0, 7, 17):
            assert sum(common[v, u] >= need for u in range(18) if u != v) >= floor


# the report of the sampled coverage audit, which states saved before its
# removal carry under family.coverage
_OLD_COVERAGE = {"per_vector": {"3": {"trials": 30, "pass_rate": 1.0}}, "samples": 30,
                 "passed": True}


@pytest.mark.parametrize("old_coverage_key", [False, True])
def test_absorber_state_json_roundtrip_replays(old_coverage_key):
    import json

    from kmatch.absorbing import AbsorberState

    cx = gen_random_dense(30, 3, p=0.9, seed=3)
    cfg = AbsorberConfig(
        seed=5, phi=Fraction(1, 10), epsilon=Fraction(7, 10), mu=Fraction(1, 500),
        family_target=2,
    )
    state = build_absorber(cx, ALLOC3, cfg)
    blob = json.loads(json.dumps(state.to_json()))  # through real serialization
    assert blob["w_vertices"] == sorted(state.w_vertices)
    assert sorted(blob["family"]) == ["internal_pms", "sets", "t"]
    if old_coverage_key:
        blob["family"]["coverage"] = _OLD_COVERAGE
    replayed = AbsorberState.from_json(cx, blob)
    assert replayed.to_json() == state.to_json()  # the old key is ignored
    rng = random.Random(8)
    avail = sorted(set(cx.vertex_pool) - state.w_vertices)
    for size in range(state.capacity() + 1):
        leftover = rng.sample(avail, size * cx.k)
        m = absorb(replayed, leftover)
        assert m.edges == absorb(state, leftover).edges
        assert validate_matching(cx, m, cover=state.w_vertices | set(leftover))


def test_edge_table_built_once_per_host(monkeypatch):
    import kmatch.core as core

    builds = []
    original = core._edge_table

    def counting(system):
        builds.append(1)
        return original(system)

    monkeypatch.setattr(core, "_edge_table", counting)
    cx = gen_random_dense(30, 3, p=0.9, seed=5)
    cp = closed_partition(cx, delta=Fraction(1, 6), alpha=Fraction(1, 1000))
    cfg = AbsorberConfig(seed=1, phi=Fraction(1, 5), epsilon=Fraction(7, 10),
                         mu=Fraction(1, 500), family_target=2)
    state = build_absorber(cx, ALLOC3, cfg, partition=cp)
    assert state.family.t == 1  # t=1 members draw their witnesses from the links
    assert len(builds) == 1
    # E is the top level itself; the CSR lists each vertex's edges in row
    # order; vectors decode
    table = cx.edge_table()
    assert table.E is cx.level(3)
    incident = {}
    for e in cx.iter_top():
        for v in e:
            incident.setdefault(v, []).append(list(e))
    for v in range(cx.universe.total):
        assert table.E[table.ids[table.ptr[v]:table.ptr[v + 1]]].tolist() == incident[v]
    assert [table.vectors[i] for i in table.vid] == [(3,)] * cx.top_count()
    # a new host builds its own
    cx.induced(range(27)).edge_table()
    assert len(builds) == 2


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 4),
    n=st.integers(1, 8),
    picks=st.lists(st.integers(0, 10 ** 6), max_size=30),
)
def test_common_links_equal_pairwise_link_intersections(k, n, picks):
    # random top levels, empty ones and isolated vertices included
    cands = list(combinations(range(n), k))
    top = [cands[i % len(cands)] for i in picks] if cands else []
    system = KSystem(VertexUniverse.single(n), k, {k: top})
    links = {}
    for e in set(top):
        for v in e:
            links.setdefault(v, set()).add(tuple(w for w in e if w != v))
    common = system.common_links()
    assert common.shape == (n, n)
    for u in range(n):
        for w in range(n):
            assert common[u, w] == len(links.get(u, set()) & links.get(w, set()))


def test_common_links_on_an_implicit_complete_host():
    host = complete_complex(300, 3).induced(range(8))
    assert host.implicit
    common = host.common_links()
    assert common[0, 1] == common[6, 7] == math.comb(6, 2)
    assert common[3, 3] == math.comb(7, 2) and common[8, 9] == 0
    assert len(closed_partition(host, delta=Fraction(1, 6), alpha=Fraction(1, 100)).parts) == 1


def test_t2_member_keeps_its_witness_matchings():
    # a closed partition whose one part is not a reach clique, so members are
    # built at t = 2 from sampled witness sets that the exact search matches
    import hashlib
    import json

    cx = gen_random_dense(24, 3, p=0.5, seed=0, max_tries=1)
    cp = closed_partition(cx, delta=Fraction(1, 8), alpha=Fraction(1, 15))
    assert [t for _, t in cp.witness] == [2]
    cfg = AbsorberConfig(seed=0, mu=Fraction(1, 500), phi=Fraction(1, 10),
                         epsilon=Fraction(9, 10), family_target=1)
    state = build_absorber(cx, ALLOC3, cfg, partition=cp)
    assert state.family.t == 2
    assert [len(s) for s in state.family.sets] == [18]
    blob = json.dumps(state.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "ab40599c9dd58d8dec4cc3b5887965a7c7da1db10e658b6b248ff78867d29731"
    )
    rng = random.Random(0)
    outside = sorted(set(cx.vertex_pool) - state.w_vertices)
    for _ in range(3):
        leftover = rng.sample(outside, cx.k)
        m = absorb(state, leftover)
        assert validate_matching(cx, m, cover=state.w_vertices | set(leftover))
