"""Pipeline orchestration: certificates, modes, and reproducibility."""

import math
from fractions import Fraction

import pytest

from kmatch.core import Matching, plain_allocation, validate_matching
from kmatch.errors import BadFamily, BadParams, TooLarge
from kmatch.fractional import FractionalMatching, extract_weight_disjoint
from kmatch.oracle import (
    brute_force_pm,
    complete_complex,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
)
from kmatch.pipeline import (
    Certificate,
    PipelineConfig,
    decide,
    run_general,
    run_matching_pipeline,
)

ALLOC3 = plain_allocation(3)


def test_config_ordering_enforced():
    PipelineConfig()  # defaults satisfy the ordering
    with pytest.raises(BadParams):
        PipelineConfig(phi=Fraction(1, 2), epsilon=Fraction(1, 4))
    with pytest.raises(BadParams):
        PipelineConfig(gamma=Fraction(1, 4), mu=Fraction(1, 5), beta=Fraction(1, 5))


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


def test_pipeline_divisibility_via_absorber():
    from kmatch.pipeline import _ensure_complex

    H = _ensure_complex(gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)]))
    cert = run_matching_pipeline(H, None, PipelineConfig(seed=3))
    assert cert.tag == "DivisibilityBarrier"
    assert sorted(map(len, cert.payload["parts"])) == [3, 6]


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


def test_general_mode_delegated():
    cx = gen_random_dense(30, 3, p=0.9, seed=21)
    cert = run_general(cx, config=PipelineConfig(seed=4))
    assert cert.tag == "PerfectMatching"
    assert cert.diagnostics["degree_floor"]["ok"]


def test_general_mode_external_family_validated():
    cc = complete_complex(12, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 2, seed=0)
    cert = run_general(cc, config=PipelineConfig(seed=4), external_family=res.matchings)
    assert cert.tag == "PerfectMatching"


def test_general_mode_bad_family():
    cc = complete_complex(6, 3)
    overload = FractionalMatching(host=cc, weights={(0, 1, 2): Fraction(1)})
    ok = FractionalMatching(
        host=cc, weights={(0, 1, 2): Fraction(1), (3, 4, 5): Fraction(1)}
    )
    with pytest.raises(BadFamily):
        run_general(cc, config=PipelineConfig(seed=1), external_family=[overload])
    # three copies of the same matching push pair loads over 2
    with pytest.raises(BadFamily):
        run_general(cc, config=PipelineConfig(seed=1), external_family=[ok, ok, ok])


def test_general_mode_empty_family_inconclusive():
    cc = complete_complex(6, 3)
    cert = run_general(cc, config=PipelineConfig(seed=1), external_family=[])
    assert cert.tag == "Inconclusive"


def test_general_mode_reports_degree_floor_violation():
    cx = gen_random_dense(12, 3, p=0.4, seed=2)
    cert = run_general(cx, config=PipelineConfig(seed=2))
    assert cert.diagnostics["degree_floor"]["ok"] is False


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
    cert = run_matching_pipeline(cx, None, PipelineConfig(ell=15, seed=324388370))
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


def test_decide_rejects_an_implicit_host():
    # C(60, 4) top edges are past the explicit limit; the barrier searches
    # need explicit levels, so decide refuses with a typed error
    host = complete_complex(60, 4)
    assert host.implicit
    with pytest.raises(TooLarge, match=str(math.comb(60, 4))):
        decide(host)
