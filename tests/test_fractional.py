"""Exact LP feasibility and the weight-disjoint extraction loop."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmatch.core import (
    CompleteComplex,
    KSystem,
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    index_vector,
    plain_allocation,
)
from kmatch.errors import EmptyTopLevel, UnknownEdge
from kmatch.fractional import (
    FractionalMatching,
    PairWeights,
    _alive,
    _greedy_integer_pm,
    build_lp,
    dump_lp,
    edge_pairs,
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
    # ints on the vertex rows, exact Fractions on the balance row only
    nrows = 8
    assert all(type(a) is int and a == 1 for col in model.columns for i, a in col if i < nrows)
    assert all(type(a) is Fraction for col in model.columns for i, a in col if i >= nrows)
    # the same text as when every coefficient was a Fraction
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "27546055d8f31f57ba0c8e86d3d8556305ffae0dd14f0c302a8bb1051b491b1e"


def test_dump_lp_bytes_are_pinned():
    # a one-part host, and a two-part host whose balance row reads 1/2 and
    # -1/3: the same text as when build_lp wrote lists of (row, coef) tuples
    one = build_lp(gen_random_dense(15, 3, p=0.5, seed=4, max_tries=1), ALLOC3)
    rng = random.Random(5)
    uni = VertexUniverse(("A", "B"), (6, 5))
    top = [e for e in combinations(range(uni.total), 3) if rng.random() < 0.5]
    alloc = allocation_from_index_multiset([(1, 2), (1, 2), (2, 1), (2, 1), (2, 1)])
    two = build_lp(build_complex(top, uni, close=True), alloc)
    assert {str(a) for col in two.columns for i, a in col if i >= 11} == {"1/2", "-1/3"}
    assert [hashlib.sha256(dump_lp(m).encode()).hexdigest() for m in (one, two)] == [
        "5eaceaef6298814a1f34972c878a0fe8bc4d02df8ca172acc09bfedcb385eb93",
        "468a441f79d8d2f12b616596312515a2d64b31e4ab5dbc34d51556011abc41f8",
    ]


def test_build_lp_reads_an_implicit_host_as_its_explicit_copy():
    implicit = CompleteComplex(VertexUniverse.single(6), 3)
    explicit, model = build_lp(complete_complex(6, 3), ALLOC3), build_lp(implicit, ALLOC3)
    assert model.host is implicit and model.edges == explicit.edges
    assert all((a == b).all() for a, b in zip(model.csc, explicit.csc))
    assert dump_lp(model) == dump_lp(explicit)


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


@pytest.mark.parametrize("implicit", [True, False])
def test_verify_fractional_support_check_agrees_with_has_top(implicit):
    # the support is checked by one has_top_rows call on its sorted rows:
    # an edge listed out of order passes, and an edge with a repeated,
    # out-of-pool or out-of-universe vertex, or of the wrong width, raises
    uni = VertexUniverse.single(6)
    host = CompleteComplex(uni, 3, vertex_pool=range(5))
    if not implicit:
        host = KSystem(uni, 3, {3: list(host.iter_top())}, vertex_pool=range(5))
    candidates = [(0, 1, 2), (2, 0, 1), (4, 3, 1), (0, 1, 5), (0, 0, 1), (0, 1, 6), (-1, 0, 1), (0, 1), (0, 1, 2, 3)]
    assert [host.has_top(e) for e in candidates] == [True] * 3 + [False] * 6
    for e in candidates:
        frac = FractionalMatching(host, {e: Fraction(1)})
        if host.has_top(e):
            assert verify_fractional(host, frac)["support"] == 1
        else:
            with pytest.raises(UnknownEdge):
                verify_fractional(host, frac)


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


# integral rounds charge 1, LP rounds charge vertex weights such as 1/3 and 2/3
_CHARGES = st.sampled_from([1, 2, Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1, 6), 0])


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_edge_alive_is_exact_residual_at_least_one(k, data):
    edges = list(combinations(range(6), k))
    charges = data.draw(st.lists(st.tuples(st.sampled_from(edges), _CHARGES), max_size=12))
    pairs = PairWeights()
    for charged, amount in charges:
        for pr in edge_pairs(charged):
            pairs.charge(pr, amount)
        for e in edges:
            exact = all(pairs.w.get(pr, 2) >= 1 for pr in combinations(e, 2))
            assert pairs.edge_alive(e) == exact
        rescan = Counter()
        for (u, v), wt in pairs.w.items():
            if wt < 1:
                rescan.update((u, v))
        assert pairs.dead_pairs_at() == dict(rescan)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_alive_mask_follows_the_dead_pairs(k, data):
    # one PairWeights over two hosts, its mask of each read between charges:
    # each read equals edge_alive on every top edge
    hosts = [KSystem(VertexUniverse.single(7), k, {k: data.draw(st.lists(
        st.sampled_from(list(combinations(range(7), k))), min_size=1, unique=True))})
        for _ in range(2)]
    pairs = PairWeights()
    for _ in range(data.draw(st.integers(1, 6))):
        for charged in data.draw(st.lists(st.sampled_from(list(combinations(range(7), k))), max_size=3)):
            for pr in edge_pairs(charged):
                pairs.charge(pr, data.draw(_CHARGES))
        host = data.draw(st.sampled_from(hosts))
        table = host.edge_table()
        assert _alive(table, pairs, 7).tolist() == [pairs.edge_alive(e) for e in host.iter_top()]


def _incidence(system) -> dict:
    """vertex -> its top edges in iter_top order, by a plain pass."""
    incident = {}
    for e in system.iter_top():
        for v in e:
            incident.setdefault(v, []).append(e)
    return incident


def _assert_edge_table(system):
    """The edge table equals the top level, its CSR the reference incidence,
    and its vector ids decode to index_vector."""
    table, uni = system.edge_table(), system.universe
    tops = list(system.iter_top())
    assert table.E is system.level(system.k)
    assert table.E.tolist() == [list(e) for e in tops]
    incident = _incidence(system)
    for v in range(uni.total):
        got = [tops[i] for i in table.ids[table.ptr[v]:table.ptr[v + 1]]]
        assert got == incident.get(v, [])
    assert [table.vectors[i] for i in table.vid] == [index_vector(e, uni) for e in tops]


def test_edge_table_matches_reference_and_is_built_once(monkeypatch):
    import kmatch.core as core

    _assert_edge_table(gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]))
    # 40 parts: index vectors too long to pack into one int64 code
    many = VertexUniverse.equipartition(40, 1)
    _assert_edge_table(KSystem(many, 3, {3: [(0, 1, 2), (5, 17, 39), (1, 2, 38)]}))
    builds = []
    original = core._edge_table

    def counting(system):
        builds.append(1)
        return original(system)

    monkeypatch.setattr(core, "_edge_table", counting)
    cx = gen_random_dense(12, 3, p=0.9, seed=5)
    assert extract_weight_disjoint(cx, ALLOC3, 3, seed=1).diagnostics["greedy_hits"] == 3
    assert len(builds) == 1
    assert cx.edge_table() is cx.edge_table()
    _assert_edge_table(cx)
    assert len(builds) == 1


_LP_FALLBACK_HOST = dict(n=30, k=3, p=0.92, degree_floor=(30, 18, 10), seed=178118052)


def test_lp_rounds_read_the_host_edge_table(monkeypatch):
    # the match-lp-fallback golden host: at ell 25, seed 1 the greedy misses
    # twice, and both LP rounds read the live rows of the host's one table
    import kmatch.core as core

    builds = []
    original = core._edge_table
    monkeypatch.setattr(core, "_edge_table", lambda system: builds.append(1) or original(system))
    host = gen_random_dense(**_LP_FALLBACK_HOST)
    res = extract_weight_disjoint(host, ALLOC3, 25, seed=1)
    assert res.diagnostics["lp_solves"] == 2
    assert len(builds) == 1


def test_an_lp_round_past_the_column_cap_ends_extraction(monkeypatch):
    # the round reports its live edge count; at exactly the cap it solves
    import kmatch.fractional as fractional

    host = gen_random_dense(**_LP_FALLBACK_HOST)
    monkeypatch.setattr(fractional, "LP_COLUMN_CAP", 100)
    res = extract_weight_disjoint(host, ALLOC3, 25, seed=1)
    live = sum(map(res.pair_weights.edge_alive, host.iter_top()))
    assert live > 100 and res.diagnostics["lp_solves"] == 0
    assert res.diagnostics["rounds"][-1] == {"round": 22, "status": "empty-or-oversized", "columns": live}
    monkeypatch.setattr(fractional, "LP_COLUMN_CAP", live)
    assert extract_weight_disjoint(host, ALLOC3, 25, seed=1).diagnostics["lp_solves"] == 2


def _pruned_system(system, pairs: PairWeights):
    """Reference for an LP round's host: the live top edges as a KSystem of
    their own, on the same pool."""
    live = [e for e in system.iter_top() if pairs.edge_alive(e)]
    return KSystem(system.universe, system.k, {system.k: live}, vertex_pool=system.vertex_pool)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 4), r=st.integers(1, 2), data=st.data())
def test_lp_round_model_equals_build_lp_of_the_pruned_system(k, r, data):
    import kmatch.fractional as fractional

    uni = VertexUniverse.equipartition(r, data.draw(st.integers(k, 10 // r)))
    top = data.draw(st.lists(st.sampled_from(list(combinations(range(uni.total), k))),
                             min_size=1, unique=True))
    host = KSystem(uni, k, {k: top})
    drop = data.draw(st.sets(st.sampled_from(range(uni.total)), max_size=3))
    if drop:  # a restricted pool
        host = host.induced(set(range(uni.total)) - drop)
    splits = [(a, k - a) for a in range(k + 1)] if r == 2 else [(k,)]
    alloc = allocation_from_index_multiset(
        data.draw(st.lists(st.sampled_from(splits), min_size=r, max_size=3))
    )
    charges = data.draw(st.dictionaries(
        st.sampled_from(list(combinations(range(uni.total), 2))),
        st.sampled_from([1, Fraction(1, 2), Fraction(3, 2)]), max_size=8)).items()
    pruned, models = [], []

    def missing_greedy(system, alloc, pairs, rng):
        for pr, amount in charges:
            pairs.charge(pr, amount)
        pruned.append(_pruned_system(system, pairs))
        return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractional, "_greedy_integer_pm", missing_greedy)
        mp.setattr(fractional, "solve_feasible", lambda model: models.append(model))
        res = extract_weight_disjoint(host, alloc, 1)
    (reference,) = pruned
    if reference.top_count() == 0:
        assert models == []
        assert res.diagnostics["rounds"] == [{"round": 0, "status": "empty-or-oversized", "columns": 0}]
        return
    (model,) = models
    want = build_lp(reference, alloc)
    assert model.host is host
    assert (model.edges, model.b, model.row_names) == (want.edges, want.b, want.row_names)
    assert model.balance_pairs == want.balance_pairs
    for got, ref in zip(model.csc, want.csc):
        assert got.dtype == ref.dtype and got.tolist() == ref.tolist()


def _set_greedy(system, alloc, pairs, rng, tries=60):
    """Reference for the explicit branch of _greedy_integer_pm: the same
    draws, made over sets, with incidence lists and index vectors built here."""
    pool = system.vertex_pool
    total, k = len(pool), system.k
    if total % k or total == 0:
        return None
    vectors = alloc.index_vectors()
    msum = sum(alloc.multiplicity(v) for v in vectors)
    quotas = {}
    for vec in vectors:
        q = Fraction(total, k * msum) * alloc.multiplicity(vec)
        if q.denominator != 1:
            return None
        quotas[vec] = int(q)
    incident = _incidence(system)
    vec_of = {e: index_vector(e, system.universe) for e in system.iter_top()}
    for _ in range(tries):
        free = set(pool)
        need = dict(quotas)
        chosen = []
        while free:
            v = rng.choice(sorted(free))
            cands = [
                e for e in incident.get(v, ())
                if free.issuperset(e) and need.get(vec_of[e], 0) > 0 and pairs.edge_alive(e)
            ]
            if not cands:
                break
            e = cands[rng.randrange(len(cands))]
            chosen.append(e)
            need[vec_of[e]] -= 1
            free.difference_update(e)
        else:
            return chosen
    return None


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 4),
    r=st.integers(1, 2),
    data=st.data(),
)
def test_array_greedy_equals_set_greedy(k, r, data):
    # parts of k * m vertices, at most 12 in all, so that most quotas are whole
    uni = VertexUniverse.equipartition(r, k * data.draw(st.integers(1, max(1, 12 // (k * r)))))
    host_rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    density = data.draw(st.sampled_from([0.5, 0.8, 1.0]))
    top = [e for e in combinations(range(uni.total), k) if host_rng.random() < density]
    system = KSystem(uni, k, {k: top})
    drop = data.draw(st.integers(0, uni.total // k - 1)) * k
    if drop:  # a restricted pool, k vertices at a time
        system = system.induced(host_rng.sample(range(uni.total), uni.total - drop))
    # vectors of (a, k - a) over two parts, some with multiplicity; the
    # edges of every other vector have no quota
    splits = [(a, k - a) for a in range(k + 1)] if r == 2 else [(k,)]
    alloc = allocation_from_index_multiset(
        data.draw(st.lists(st.sampled_from(splits), min_size=r, max_size=2))
    )
    pairs = PairWeights()
    for pr in data.draw(st.lists(st.sampled_from(list(combinations(range(uni.total), 2))),
                                 max_size=6)):
        pairs.charge(pr, data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(3, 2)])))
    tries = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2 ** 32))
    rng_set, rng_array = random.Random(seed), random.Random(seed)
    want = _set_greedy(system, alloc, pairs, rng_set, tries)
    assert _greedy_integer_pm(system, alloc, pairs, rng_array, tries) == want
    assert rng_array.getstate() == rng_set.getstate()


def _greedy_as_set_greedy(system, alloc, pairs, rng, tries=60):
    """_greedy_integer_pm, asserted to return what _set_greedy returns and to
    leave rng in the same state."""
    rng_set = random.Random()
    rng_set.setstate(rng.getstate())
    want = _set_greedy(system, alloc, pairs, rng_set, tries)
    assert _greedy_integer_pm(system, alloc, pairs, rng, tries) == want
    assert rng.getstate() == rng_set.getstate()
    return want


def test_greedy_equals_set_greedy_on_fixed_hosts(monkeypatch):
    import kmatch.fractional as fractional

    # the match-dense30-a golden host over 10 extraction rounds, each round's
    # greedy on the pairs that the rounds before it killed
    host = gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=1001)
    dead = []

    def checked(system, alloc, pairs, rng):
        dead.append(len(pairs.dead))
        return _greedy_as_set_greedy(system, alloc, pairs, rng)

    monkeypatch.setattr(fractional, "_greedy_integer_pm", checked)
    res = extract_weight_disjoint(host, ALLOC3, 10, seed=1)
    assert res.completed and len(dead) == 10 and dead[0] == 0 < dead[-1]
    # two vectors with two edges of quota each: every hit exhausts one quota
    # before its last step
    alloc = allocation_from_index_multiset([(2, 1), (1, 2)])
    two = gen_random_dense(6, 3, r=2, p=0.9, seed=0, allocation=alloc)
    hits = [_greedy_as_set_greedy(two, alloc, PairWeights(), random.Random(s)) for s in range(8)]
    for hit in hits:
        assert Counter(index_vector(e, two.universe) for e in hit) == {(2, 1): 2, (1, 2): 2}
    # a restricted pool, with dead pairs
    induced = gen_random_dense(15, 3, p=0.7, seed=3).induced(range(3, 15))
    pairs = PairWeights()
    for pr in [(3, 4), (5, 9), (6, 14), (10, 11)]:
        pairs.charge(pr, Fraction(3, 2))
    hits = [_greedy_as_set_greedy(induced, ALLOC3, pairs, random.Random(s)) for s in range(8)]
    for hit in hits:
        assert sorted(v for e in hit for v in e) == list(range(3, 15))
        assert all(map(pairs.edge_alive, hit))
