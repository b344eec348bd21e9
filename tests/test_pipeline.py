"""Pipeline orchestration: certificates, modes, and reproducibility."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmatch.core import (
    KSystem,
    Matching,
    VertexUniverse,
    allocation_from_index_multiset,
    build_complex,
    index_vector,
    matching_stats,
    plain_allocation,
    validate_matching,
)
from kmatch.errors import AbsorptionFailed, BadParams, TooLarge
from kmatch.fractional import _index_quotas, extract_weight_disjoint
from kmatch.oracle import (
    brute_force_pm,
    complete_complex,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
)
from kmatch.pipeline import (
    ALPHA,
    BETA,
    EPSILON,
    GAMMA,
    MU,
    PHI,
    SEARCH_WORK,
    STEP_WORK,
    Certificate,
    PipelineConfig,
    decide,
    host_view,
    run_matching_pipeline,
    space_barrier_stage,
    verify_certificate,
    _descent_work,
    _exact_search,
)

ALLOC3 = plain_allocation(3)


def test_hierarchy_constants_ordered():
    assert PHI < EPSILON < ALPHA < GAMMA < min(MU, BETA)


def test_pipeline_complete():
    cert = run_matching_pipeline(complete_complex(30, 3), None, PipelineConfig(seed=1))
    assert cert.tag == "PerfectMatching"
    assert cert.payload["alpha"] == "0"
    m = Matching.from_edges([tuple(e) for e in cert.payload["edges"]])
    assert validate_matching(complete_complex(30, 3), m, cover=range(30))


def test_pipeline_planted_space_never_false_pm():
    # |S| = 5 > 12/3 = 4: no perfect matching exists
    js = gen_space_barrier(12, 3, 1, 5)
    assert brute_force_pm(js) is None
    cert = run_matching_pipeline(js, None, PipelineConfig(seed=2))
    assert cert.tag in ("SpaceBarrier", "DivisibilityBarrier", "Inconclusive")


@pytest.mark.parametrize("n, j, s", [(9, 1, 4), (12, 2, 9), (15, 1, 6), (18, 1, 7), (24, 1, 9)])
def test_pipeline_reports_the_space_barrier_of_decides_stage(n, j, s):
    # extraction fails on a planted space barrier, and the fallback is the
    # stage decide runs, on the whole host
    H = gen_space_barrier(n, 3, j, s)
    cert = run_matching_pipeline(H, None, PipelineConfig(seed=1))
    stage = space_barrier_stage(host_view(H))
    assert cert.tag == "SpaceBarrier"
    assert cert.payload == stage.to_json()
    assert cert.diagnostics["stages"][-1] == {"stage": "space-barrier", "status": "verified"}


def test_pipeline_divisibility_via_absorber():
    from kmatch.pipeline import _ensure_complex

    H = _ensure_complex(gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)]))
    cert = run_matching_pipeline(H, None, PipelineConfig(seed=3))
    assert cert.tag == "DivisibilityBarrier"
    assert sorted(map(len, cert.payload["parts"])) == [3, 6]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("seed", range(4))
def test_pipeline_partite_allocation(n, seed):
    # the absorber decomposes and cuts only partite k-sets under an
    # allocation with one vertex per part, so no valid host is rejected
    alloc = allocation_from_index_multiset([(1, 1, 1)])
    host = gen_random_dense(n, 3, r=3, p=0.9, seed=seed, allocation=alloc)
    cert = run_matching_pipeline(host, alloc, PipelineConfig(seed=seed))
    assert cert.tag == "PerfectMatching"
    assert verify_certificate(host, cert)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("seed", range(4))
def test_decide_partite_allocation(n, seed):
    # the exact search fills the allocation's quotas, so decide returns a
    # balanced matching where the plain divisibility notions see a barrier
    alloc = allocation_from_index_multiset([(1, 1, 1)])
    host = gen_random_dense(n, 3, r=3, p=0.9, seed=seed, allocation=alloc)
    cert = decide(host, alloc)
    assert cert.tag == "PerfectMatching"
    assert cert.payload["alpha"] == "0"
    assert verify_certificate(host_view(host, alloc), cert)


def test_decide_partite_allocation_of_ten_parts():
    # F has 10! maps; decide reads its prefixes and steps off I(F)
    alloc = allocation_from_index_multiset([(1,) * 10])
    host = gen_random_dense(2, 10, r=10, p=0.9, seed=1, allocation=alloc)
    cert = decide(host, alloc)
    assert cert.tag == "PerfectMatching"
    assert cert.payload["alpha"] == "0"
    assert verify_certificate(host_view(host, alloc), cert)


def test_decide_rejects_a_host_outside_the_allocation():
    # edges of every index vector are not PF-partite for one vertex per part:
    # decide raises before any stage, so neither the exact search, which
    # would match the (1, 1, 1) edges of the first host, nor the space stage,
    # which finds a barrier on the second, runs
    alloc = allocation_from_index_multiset([(1, 1, 1)])
    for host in (gen_random_dense(4, 3, r=3, p=0.9, seed=0), gen_space_barrier(4, 3, 1, 3, r=3)):
        with pytest.raises(BadParams, match="not PF-partite"):
            decide(host, alloc)


def test_pipeline_bad_inputs():
    with pytest.raises(BadParams):
        run_matching_pipeline(complete_complex(7, 3), None, PipelineConfig())


def test_decide_dense_matches_oracle():
    for seed in range(4):
        cx = gen_random_dense(12, 3, p=0.9, seed=40 + seed)
        cert = decide(cx)
        oracle = cert.diagnostics.get("oracle")
        assert oracle is not None
        assert not oracle["contradicts"]


def test_decide_planted_barriers():
    assert decide(gen_space_barrier(12, 3, 1, 5)).tag == "SpaceBarrier"
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    assert decide(H).tag == "DivisibilityBarrier"
    # even |B|: certificate still reported; matchability is a separate question
    H2 = gen_divisibility_barrier([4, 4], 3, [(1, 2), (3, 0)])
    assert decide(H2).tag == "DivisibilityBarrier"


def test_decide_non_divisible_count():
    cx = gen_random_dense(10, 3, p=0.9, seed=1)
    cert = decide(cx)
    assert cert.tag in ("Inconclusive", "SpaceBarrier", "DivisibilityBarrier")


def test_reproducible_certificates():
    cx = gen_random_dense(12, 3, p=0.9, seed=77)
    a = decide(cx).dumps()
    b = decide(cx).dumps()
    assert a == b
    c = run_matching_pipeline(complete_complex(30, 3), None, PipelineConfig(seed=9)).dumps()
    d = run_matching_pipeline(complete_complex(30, 3), None, PipelineConfig(seed=9)).dumps()
    assert c == d


def test_certificate_shape():
    cert = Certificate(tag="Inconclusive", payload={"reason": "x"})
    blob = cert.to_json()
    assert set(blob) == {"tag", "payload", "diagnostics"}
    assert not cert.conclusive


def test_reported_alpha_matches_recomputation():
    from kmatch.core import matching_stats

    cert = run_matching_pipeline(complete_complex(30, 3), None, PipelineConfig(seed=6))
    assert cert.tag == "PerfectMatching"
    m = Matching.from_edges([tuple(e) for e in cert.payload["edges"]])
    stats = matching_stats(m, ALLOC3, complete_complex(30, 3).universe)
    assert str(stats["alpha"]) == cert.payload["alpha"]


def test_alpha_representation_ratio_bound():
    # the assembled matching's normalized-count ratios beat the bound
    # (r - |F| (eps + phi)) / (r + |F|^2 (eps + phi)) computed from the
    # measured absorber and leftover fractions
    cx = gen_random_dense(30, 3, p=0.9, seed=33)
    cert = run_matching_pipeline(cx, None, PipelineConfig(seed=8))
    assert cert.tag == "PerfectMatching"
    n = 30
    eps_phi = Fraction(cert.payload["absorber_size"], n) + Fraction(
        cert.payload["leftover_size"], n
    )
    f_size = ALLOC3.size
    bound = Fraction(1 - f_size * eps_phi, 1 + f_size ** 2 * eps_phi)
    values = [Fraction(v) for v in cert.payload["n_tilde"].values()]
    min_ratio = min(a / b for a in values for b in values if b > 0)
    assert min_ratio >= min(bound, 1)
    assert min_ratio >= 1 - Fraction(cert.payload["alpha"])


def test_r1_models_with_pm_always_feasible():
    # the indicator of any perfect matching satisfies the vertex rows
    from kmatch.fractional import build_lp, solve_feasible

    for seed in (0, 1, 2):
        cx = gen_random_dense(12, 3, p=0.75, seed=60 + seed)
        pm = brute_force_pm(cx)
        if pm is None:
            continue
        assert solve_feasible(build_lp(cx, ALLOC3)) is not None


def test_erosion_bound_holds_for_lp_rounds(monkeypatch):
    # an exact-LP round with fractional weights kills more pairs at a vertex
    # than the round count; the load bound (k-1)r must still hold
    import kmatch.pipeline as pipeline

    runs = []

    def recording(*args, **kwargs):
        runs.append(extract_weight_disjoint(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(pipeline, "extract_weight_disjoint", recording)
    cx = gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=178118052)
    cert = run_matching_pipeline(cx, None, PipelineConfig(ell=15, seed=2))
    assert cert.tag == "PerfectMatching"
    diag = runs[-1].diagnostics
    assert diag["lp_solves"] > 0
    assert any(r["max_dead_pairs"] > i + 1 for i, r in enumerate(diag["rounds"]))


def test_absorb_programming_error_propagates(monkeypatch):
    # only KmatchError is an honest absorption failure; a bug must surface
    import kmatch.pipeline as pipeline

    def broken(state, leftover):
        raise RuntimeError("bug inside absorb")

    monkeypatch.setattr(pipeline, "absorb", broken)
    with pytest.raises(RuntimeError, match="bug inside absorb"):
        run_matching_pipeline(complete_complex(30, 3), None, PipelineConfig(seed=1))


def test_absorption_failure_ends_inconclusive(monkeypatch):
    # a typed absorption failure is reported, with its stage, as Inconclusive
    import kmatch.pipeline as pipeline

    def failing(state, leftover):
        raise AbsorptionFailed("no unused absorber for a leftover k-set")

    monkeypatch.setattr(pipeline, "absorb", failing)
    cert = run_matching_pipeline(complete_complex(30, 3), None, PipelineConfig(seed=1))
    assert cert.tag == "Inconclusive"
    assert cert.payload == {"reason": "absorption failed: no unused absorber for a leftover k-set"}
    assert cert.diagnostics["stages"][-1] == {
        "stage": "absorb", "status": "failed", "why": "no unused absorber for a leftover k-set",
    }


def test_decide_rejects_an_implicit_host():
    # C(60, 4) top edges are past the explicit limit; the barrier searches
    # need explicit levels, so decide refuses with a typed error
    host = complete_complex(60, 4)
    assert host.implicit
    with pytest.raises(TooLarge, match=str(math.comb(60, 4))):
        decide(host)


def test_matching_pipeline_rejects_an_implicit_host():
    # C(300, 3) top edges are past the explicit limit; the pipeline reads
    # degree sequences and levels, so it refuses with a typed error
    host = complete_complex(300, 3)
    assert host.implicit
    with pytest.raises(TooLarge, match=str(math.comb(300, 3))):
        run_matching_pipeline(host, None)
    # fractional extraction still runs on the implicit host
    assert extract_weight_disjoint(host, ALLOC3, 1, seed=0).completed


@pytest.mark.parametrize("n", [15, 18, 30])
def test_pipeline_computes_one_common_link_product_per_host(monkeypatch, n):
    # the closed partition reads the host's common-link product, and no later
    # stage computes one again, on the host or on the host without W
    import kmatch.core as core

    hosts = []
    original = core._common_links

    def counting(system):
        hosts.append(id(system))
        return original(system)

    monkeypatch.setattr(core, "_common_links", counting)
    host = gen_random_dense(n, 3, p=0.85, seed=915)
    cert = run_matching_pipeline(host, None, PipelineConfig(seed=12))
    assert cert.tag == "PerfectMatching"
    assert len(hosts) == len(set(hosts)) == 1


@pytest.mark.parametrize("n", [12, 15, 30])
def test_pipeline_builds_degrees_and_closed_partition_once_per_host(monkeypatch, n):
    # the degree sequences and the closed partition are built once per host;
    # only the divisibility fallback, which ends the run, builds its own
    import kmatch.pipeline as pipeline

    calls = {"degree_sequences": 0, "closed_partition": 0}

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    host = gen_random_dense(n, 3, p=0.85, seed=915)
    cert = run_matching_pipeline(host, None, PipelineConfig(seed=12))
    assert cert.tag == "PerfectMatching"
    assert calls == {"degree_sequences": 1, "closed_partition": 1}


@pytest.mark.parametrize("host_seed, seed, kept", [(1008521273, 25, 0), (158063559, 21, 1)])
def test_rounding_reports_the_regularity_of_the_kept_sample(monkeypatch, host_seed, seed, kept):
    # every attempt misses, so the first attempt with the fewest uncovered
    # vertices is kept; its own sample's regularity is the one reported
    import kmatch.pipeline as pipeline

    checks, misses = [], []
    check, nibble = pipeline.check_regularity, pipeline.nibble_match

    def checking(*args, **kwargs):
        checks.append(check(*args, **kwargs))
        return checks[-1]

    def nibbling(*args, **kwargs):
        result = nibble(*args, **kwargs)
        misses.append(len(result.uncovered))
        return result

    monkeypatch.setattr(pipeline, "check_regularity", checking)
    monkeypatch.setattr(pipeline, "nibble_match", nibbling)
    cert = run_matching_pipeline(gen_random_dense(9, 3, p=0.8, seed=host_seed), None,
                                 PipelineConfig(seed=seed))
    assert cert.payload["reason"].startswith("rounding left")
    assert len(misses) == pipeline.NIBBLE_ATTEMPTS
    assert misses.index(min(misses)) == kept
    rounding = next(s for s in cert.diagnostics["stages"] if s["stage"] == "rounding")
    assert rounding["uncovered"] == misses[kept]
    want = {key: checks[kept][key] for key in ("degree_pass", "codegree_pass")}
    assert rounding["regularity"] == want
    # the last sample disagrees, so reporting it would fail the check above
    assert want != {key: checks[-1][key] for key in want}


def test_rounding_passes_its_leftover_budget_to_the_nibble(monkeypatch):
    # the nibble stops where the pipeline accepts: each call receives the
    # rounding stage's max_leftover, and here the kept result leaves exactly
    # that many vertices for the absorber
    import kmatch.pipeline as pipeline

    caps, nibble = [], pipeline.nibble_match

    def spying(sampled, max_uncovered, seed):
        caps.append(max_uncovered)
        return nibble(sampled, max_uncovered, seed)

    monkeypatch.setattr(pipeline, "nibble_match", spying)
    cx = gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=1003)
    cert = run_matching_pipeline(cx, None, PipelineConfig(ell=10, seed=3))
    assert cert.tag == "PerfectMatching"
    rounding = next(s for s in cert.diagnostics["stages"] if s["stage"] == "rounding")
    assert caps == [rounding["max_leftover"]] == [3]
    assert rounding["uncovered"] == cert.payload["leftover_size"] == 3


def _space_graph(n, s, q):
    """k = 2: the first n/2 - s vertices are joined to every vertex, and the
    other n/2 + s, B, hold only the q disjoint edges of pairs of B's first
    vertices; a perfect matching exists iff q >= s."""
    a = n // 2 - s
    edges = [e for e in combinations(range(n), 2) if e[0] < a]
    edges += [(a + 2 * i, a + 2 * i + 1) for i in range(q)]
    return build_complex({2: edges}, VertexUniverse.single(n), k=2, close=True)


def _perturbed_space(n, k, j, s, q, seed):
    """gen_space_barrier(n, k, j, s) plus each missing k-set with probability q."""
    cx = gen_space_barrier(n, k, j, s)
    rng = random.Random(seed)
    have = set(map(tuple, cx.level(k).tolist()))
    extra = [e for e in combinations(range(n), k) if e not in have and rng.random() < q]
    levels = {i: [tuple(row) for row in cx.level(i).tolist()] for i in range(1, k + 1)}
    levels[k] += extra
    return build_complex(levels, cx.universe, k=k, close=True)


def _refuse_pipeline_stages(monkeypatch):
    import kmatch.pipeline as pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("decide ran a matching pipeline stage")

    for stage in ("build_absorber", "extract_weight_disjoint", "sample_subgraph",
                  "color_classes", "nibble_match", "absorb"):
        monkeypatch.setattr(pipeline, stage, refuse)


@pytest.mark.parametrize("build", [
    lambda: _space_graph(40, 1, 2),
    lambda: _perturbed_space(27, 3, 2, 19, 0.003, 1),
    lambda: _perturbed_space(20, 4, 3, 16, 0.003, 0),
], ids=["k2-space40", "k3-perturbed27", "k4-perturbed20"])
def test_decide_matches_by_exact_search_where_the_greedy_misses(monkeypatch, build):
    # the greedy misses and no barrier is found; the matching pipeline ended
    # Inconclusive on these hosts, and the exact search finds a balanced
    # perfect matching without any of its stages. On the k = 3 host the
    # search takes 506,141 steps when it tries the options in row order
    _refuse_pipeline_stages(monkeypatch)
    host = build()
    cert = decide(host)
    assert cert.tag == "PerfectMatching" and cert.payload["alpha"] == "0"
    assert cert.diagnostics["stages"][0]["stage"] == "exact-search"
    assert verify_certificate(host_view(host), cert)
    assert decide(host).dumps() == cert.dumps()


def test_decide_matches_a_host_that_a_set_partition_seems_to_block():
    # two crossing triples make the [7, 5] divisibility host matchable, but
    # parts 0-6 and 7-11 still have an incomplete, transferral-free robust
    # lattice; the closed partition's coarsenings hold no barrier, and the
    # exact search, past its first bound of one descent, matches the host in
    # 39,839 work units
    gen = gen_divisibility_barrier([7, 5], 3, [(1, 2), (3, 0)])
    edges = [tuple(e) for e in gen.level(3).tolist()] + [(0, 4, 9), (2, 6, 9)]
    host = build_complex(edges, VertexUniverse.single(12), k=3)
    assert brute_force_pm(host) is not None
    cert = decide(host)
    assert cert.tag == "PerfectMatching"
    assert cert.diagnostics["stages"] == [{"stage": "exact-search", "status": "ok", "work": 39839}]
    assert verify_certificate(host_view(host), cert)


def _divisibility_with_triples(shape, gens, c, seed):
    """The divisibility host of `shape` and `gens` plus c triples drawn from
    all of them, on one part."""
    n = sum(shape)
    top = [tuple(e) for e in gen_divisibility_barrier(list(shape), 3, gens).level(3).tolist()]
    top += random.Random(seed).sample(list(combinations(range(n), 3)), c)
    return build_complex(top, VertexUniverse.single(n), k=3)


SEEMINGLY_BLOCKED = [
    *[pytest.param(lambda a=a: _perturbed_space(12, 4, *a), id=f"k4-space12-{a}")
      for a in [(1, 4, 0.01, 2), (2, 7, 0.003, 0), (2, 7, 0.003, 1), (2, 7, 0.01, 0),
                (2, 7, 0.03, 2), (3, 10, 0.003, 1)]],
    pytest.param(lambda: _divisibility_with_triples([9, 3], [(2, 1), (0, 3)], 1, 1), id="div9x3"),
    *[pytest.param(lambda g=g, c=c, seed=seed: _divisibility_with_triples([3, 3], g, c, seed),
                   id=f"div3x3-{g[0]}-c{c}-seed{seed}")
      for g, cs in [([(1, 2), (3, 0)], (1, 2, 3)), ([(2, 1), (0, 3)], (2, 3))]
      for c in cs for seed in (0, 1)],
]


@pytest.mark.parametrize("build", SEEMINGLY_BLOCKED)
def test_decide_matches_where_a_space_barrier_blocks_nothing(build):
    # on each host the space stage returns a verified barrier although the
    # host has a perfect matching, so the search's first run, bounded by one
    # descent's work, must find the matching before that stage runs. On the
    # six-vertex hosts it backtracks first: a run that stopped at its first
    # dead end would leave them to the barrier
    host = build()
    assert brute_force_pm(host) is not None
    assert space_barrier_stage(host_view(host)) is not None
    cert = decide(host)
    assert cert.tag == "PerfectMatching" and cert.payload["alpha"] == "0"
    assert verify_certificate(host_view(host), cert)
    assert cert.diagnostics["stages"][0]["status"] == "ok"


def test_exact_search_stops_at_its_bound(monkeypatch):
    # with the barrier stages off, the planted space barrier reaches the
    # search, which has no matching to find and stops at its work bound
    import kmatch.pipeline as pipeline

    monkeypatch.setattr(pipeline, "space_barrier_stage", lambda system: None)
    monkeypatch.setattr(pipeline, "divisibility_barrier_stage", lambda system, alloc=None: None)
    cert = decide(gen_space_barrier(45, 3, 1, 16))
    assert cert.payload == {"reason": f"the exact search stopped at its work bound of {SEARCH_WORK}"}
    (stage,) = cert.diagnostics["stages"]
    assert stage["status"] == "bound" and stage["work"] > SEARCH_WORK


def test_exhausted_search_ends_inconclusive():
    # vertex 14 lies in no edge: no barrier stage sees it, and the search
    # fails at once on the vertex with no option
    host = KSystem(VertexUniverse.single(15), 3,
                   {3: [e for e in combinations(range(15), 3) if 14 not in e]})
    cert = decide(host)
    assert cert.payload == {
        "reason": "the exact search found no perfect matching that fills the allocation's quotas",
    }
    assert cert.diagnostics["stages"] == [{"stage": "exact-search", "status": "exhausted", "work": 0}]


def test_exact_search_does_not_backtrack_on_a_dense_host():
    # each of the 30 steps tries one edge and reads the incidences of at
    # most k + 1 vertices; the last one also reads the edges' vector ids
    host = host_view(gen_random_dense(90, 3, p=0.85, seed=1000))
    status, edges, work = _exact_search(host, {(3,): 30}, SEARCH_WORK)
    assert status == "ok"
    assert validate_matching(host, Matching.from_edges(edges), cover=range(90))
    degree = int(np.diff(host.edge_table().ptr).max())
    assert work <= _descent_work(host) == 30 * (STEP_WORK + 4 * degree) + host.top_count()


def _check_search(host, alloc):
    """The search agrees with the oracle on existence, and its matching
    validates with alpha 0."""
    nv = len(host.vertex_pool)
    status, edges, _ = _exact_search(host, _index_quotas(alloc, nv, host.k), SEARCH_WORK)
    assert status != "bound"
    assert (status == "ok") == (brute_force_pm(host) is not None)
    if status == "ok":
        found = Matching.from_edges(edges)
        assert validate_matching(host, found, cover=host.vertex_pool)
        assert matching_stats(found, alloc, host.universe)["alpha"] == 0


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from([2, 3, 4]), data=st.data())
def test_exact_search_agrees_with_the_oracle(k, data):
    # random top levels on up to 12 vertices, with isolated vertices, on the
    # whole universe or on a restricted pool
    size = k * data.draw(st.integers(1, 12 // k))
    n = data.draw(st.integers(size, 12))
    pool = sorted(data.draw(st.permutations(range(n)))[:size])
    picks = data.draw(st.lists(st.integers(0, 10 ** 6), max_size=40))
    cands = list(combinations(pool, k))
    host = KSystem(VertexUniverse.single(n), k, {k: [cands[i % len(cands)] for i in picks]})
    _check_search(host.induced(pool), plain_allocation(k))


@settings(max_examples=100, deadline=None)
@given(m=st.sampled_from([3, 6]), picks=st.lists(st.integers(0, 10 ** 6), max_size=40))
def test_exact_search_fills_two_vector_quotas(m, picks):
    # two parts of m vertices and edges of index (2, 1) or (1, 2) only: a
    # perfect matching has m/3 edges of each, so any the oracle finds is
    # balanced
    uni = VertexUniverse.equipartition(2, m)
    alloc = allocation_from_index_multiset([(2, 1), (1, 2)])
    cands = [e for e in combinations(range(2 * m), 3) if index_vector(e, uni) in ((2, 1), (1, 2))]
    host = KSystem(uni, 3, {3: [cands[i % len(cands)] for i in picks]})
    _check_search(host, alloc)


def test_exact_search_fills_every_quota():
    # under {(3,0), (2,1), (1,2), (0,3)} a balanced matching of two parts of
    # 6 has one edge of each vector: the four edges inside the parts match
    # perfectly, but not in balance, until a (2,1) and a (1,2) edge join them
    uni = VertexUniverse.equipartition(2, 6)
    quotas = _index_quotas(allocation_from_index_multiset([(3, 0), (2, 1), (1, 2), (0, 3)]), 12, 3)
    inside = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    host = KSystem(uni, 3, {3: inside})
    assert brute_force_pm(host) is not None
    assert _exact_search(host, quotas, SEARCH_WORK)[0] == "exhausted"
    wider = KSystem(uni, 3, {3: inside + [(3, 4, 9), (5, 10, 11)]})
    status, edges, _ = _exact_search(wider, quotas, SEARCH_WORK)
    assert status == "ok"
    assert sorted(edges) == [(0, 1, 2), (3, 4, 9), (5, 10, 11), (6, 7, 8)]
