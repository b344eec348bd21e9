"""Pipeline orchestration: certificates, modes, and reproducibility."""

import math
from fractions import Fraction

import pytest

from kmatch.core import (
    Matching,
    allocation_from_index_multiset,
    plain_allocation,
    validate_matching,
)
from kmatch.errors import AbsorptionFailed, BadParams, TooLarge
from kmatch.fractional import extract_weight_disjoint
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
    Certificate,
    PipelineConfig,
    decide,
    host_view,
    run_matching_pipeline,
    space_barrier_stage,
    verify_certificate,
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
    # the greedy witness fills the allocation's quotas, so decide returns a
    # balanced matching where the plain divisibility notions see a barrier
    alloc = allocation_from_index_multiset([(1, 1, 1)])
    host = gen_random_dense(n, 3, r=3, p=0.9, seed=seed, allocation=alloc)
    cert = decide(host, PipelineConfig(seed=seed), alloc)
    assert cert.tag == "PerfectMatching"
    assert cert.payload["alpha"] == "0"
    assert verify_certificate(host_view(host, alloc), cert)


def test_decide_rejects_a_host_outside_the_allocation():
    # edges of every index vector are not PF-partite for one vertex per part;
    # the greedy witness, which would match the (1, 1, 1) edges, does not run
    alloc = allocation_from_index_multiset([(1, 1, 1)])
    host = gen_random_dense(4, 3, r=3, p=0.9, seed=0)
    with pytest.raises(BadParams, match="not PF-partite"):
        decide(host, PipelineConfig(seed=0), alloc)


def test_pipeline_bad_inputs():
    with pytest.raises(BadParams):
        run_matching_pipeline(complete_complex(7, 3), None, PipelineConfig())


def test_decide_dense_matches_oracle():
    for seed in range(4):
        cx = gen_random_dense(12, 3, p=0.9, seed=40 + seed)
        cert = decide(cx, PipelineConfig(seed=seed))
        oracle = cert.diagnostics.get("oracle")
        assert oracle is not None
        assert not oracle["contradicts"]


def test_decide_planted_barriers():
    assert decide(gen_space_barrier(12, 3, 1, 5), PipelineConfig(seed=1)).tag == "SpaceBarrier"
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    assert decide(H, PipelineConfig(seed=1)).tag == "DivisibilityBarrier"
    # even |B|: certificate still reported; matchability is a separate question
    H2 = gen_divisibility_barrier([4, 4], 3, [(1, 2), (3, 0)])
    assert decide(H2, PipelineConfig(seed=1)).tag == "DivisibilityBarrier"


def test_decide_non_divisible_count():
    cx = gen_random_dense(10, 3, p=0.9, seed=1)
    cert = decide(cx, PipelineConfig(seed=1))
    assert cert.tag in ("Inconclusive", "SpaceBarrier", "DivisibilityBarrier")


def test_reproducible_certificates():
    cx = gen_random_dense(12, 3, p=0.9, seed=77)
    a = decide(cx, PipelineConfig(seed=9)).dumps()
    b = decide(cx, PipelineConfig(seed=9)).dumps()
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
def test_decide_computes_one_common_link_product_per_host(monkeypatch, n):
    # the divisibility stage and the pipeline both build the closed
    # partition above the exhaustive range; they share the host's product.
    # The greedy witness is switched off so that decide runs both of them
    import kmatch.core as core
    import kmatch.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_greedy_integer_pm", lambda *args, **kwargs: None)
    hosts = []
    original = core._common_links

    def counting(system):
        hosts.append(id(system))
        return original(system)

    monkeypatch.setattr(core, "_common_links", counting)
    cert = decide(gen_random_dense(n, 3, p=0.85, seed=915), PipelineConfig(seed=12))
    assert cert.tag == "PerfectMatching"
    assert len(hosts) == len(set(hosts)) == 1


@pytest.mark.parametrize("n", [12, 15, 30])
def test_decide_builds_degrees_and_closed_partition_once_per_host(monkeypatch, n):
    # the divisibility stage and the matching pipeline read the same degree
    # sequences and, above the exhaustive range, the same closed partition;
    # the greedy witness is switched off so that decide runs both of them
    import kmatch.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_greedy_integer_pm", lambda *args, **kwargs: None)
    calls = {"degree_sequences": 0, "closed_partition": 0}

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    cert = decide(gen_random_dense(n, 3, p=0.85, seed=915), PipelineConfig(seed=12))
    assert cert.tag == "PerfectMatching"
    assert calls == {"degree_sequences": 1, "closed_partition": 1}


@pytest.mark.parametrize("host_seed, seed, kept", [(1008521273, 25, 0), (158063559, 21, 1)])
def test_rounding_reports_the_regularity_of_the_kept_sample(monkeypatch, host_seed, seed, kept):
    # every attempt misses, so the first attempt with the fewest uncovered
    # vertices is kept; its own sample's regularity is the one reported. The
    # greedy witness is switched off so that decide reaches the rounding
    import kmatch.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_greedy_integer_pm", lambda *args, **kwargs: None)
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
    cert = decide(gen_random_dense(9, 3, p=0.8, seed=host_seed), PipelineConfig(seed=seed))
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
