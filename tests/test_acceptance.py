"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import random
import statistics
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from kmatch.absorbing import AbsorberConfig, absorb, build_absorber
from kmatch.cli import main as cli_main
from kmatch.core import (
    Matching,
    degree_sequences,
    plain_allocation,
    validate_matching,
)
from kmatch.errors import KmatchError
from kmatch.fractional import (
    build_lp,
    extract_weight_disjoint,
    solve_feasible,
    verify_fractional,
)
from kmatch.khg import save_khg
from kmatch.lattice import (
    bounded_decompose,
    find_transferral,
    generate_lattice,
    is_complete,
    lattice_contains,
    robust_edge_vectors,
    sum_vectors,
)
from kmatch.oracle import (
    brute_force_fractional,
    brute_force_pm,
    complete_complex,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
)
from kmatch.pipeline import (
    GAMMA,
    PipelineConfig,
    decide,
    host_view,
    run_matching_pipeline,
    verify_certificate,
)
from kmatch.rounding import (
    check_regularity,
    color_classes,
    combine_weights,
    nibble_match,
    sample_subgraph,
)

ALLOC3 = plain_allocation(3)


def report(number, ok, detail):
    line = f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_lattice_oracle_equivalence():
    """contains() agrees with bounded coefficient search on every k-vector."""
    start = time.time()
    checked = 0
    disagreements = 0
    for r in (1, 2, 3):
        kvecs = sum_vectors(3, r)
        for size in range(1, 5):
            for gens in combinations(kvecs, size):
                A = np.array(gens, dtype=np.int64)
                grids = np.meshgrid(*([np.arange(-6, 7)] * len(gens)), indexing="ij")
                coeffs = np.stack([g.ravel() for g in grids], axis=1)
                reachable = set(map(tuple, (coeffs @ A).tolist()))
                lat = generate_lattice(gens, r)
                for target in kvecs:
                    checked += 1
                    if lattice_contains(lat, target) != (tuple(target) in reachable):
                        disagreements += 1
    elapsed = time.time() - start
    report(
        1,
        disagreements == 0 and elapsed < 60,
        f"{checked} membership queries, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_02_divisibility_example():
    """The odd-|B| instance: robust vectors, lattice facts, and no matching."""
    start = time.time()
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    rv = robust_edge_vectors(H.iter_top(), H.universe, Fraction(1, 100))
    ok = rv.vectors() == [(1, 2), (3, 0)]
    lat = generate_lattice(rv.vectors(), 2)
    ok &= not is_complete(lat, 3)
    ok &= find_transferral(lat) is None
    ok &= not lattice_contains(lat, (5, 3))
    ok &= brute_force_pm(H) is None
    elapsed = time.time() - start
    report(2, ok and elapsed < 1, f"all five facts exact, {elapsed:.2f}s")


def test_criterion_03_space_barrier_arithmetic():
    """Degree display of the planted construction, and no matching above the
    volume bound, across 50 parameterizations."""
    ok = degree_sequences(gen_space_barrier(10, 3, 1, 4)).plain == (10, 6, 5)
    params = []
    for k in (2, 3, 4):
        for n in range(4, 13):
            if n * 1 > 12:
                continue
            for j in range(1, k):
                for s in range(j * n // k + 1, n + 1):
                    params.append((n, k, j, s))
    params = params[:50]
    assert len(params) == 50
    failures = [
        (n, k, j, s)
        for n, k, j, s in params
        if brute_force_pm(gen_space_barrier(n, k, j, s)) is not None
    ]
    report(
        3,
        ok and not failures,
        f"degree display (10, 6, 5) exact; 50/50 oversized planted sets unmatchable",
    )


def test_criterion_04_fractional_cross_check():
    """Production solver vs the independent dense simplex, 200 instances."""
    sizes = [6, 9, 12, 15, 18, 21, 24]
    densities = [0.12, 0.2, 0.35, 0.5, 0.7, 0.9]
    agree = 0
    exact = True
    total = 200
    for trial in range(total):
        n = sizes[trial % len(sizes)]
        p = densities[(trial // len(sizes)) % len(densities)]
        cx = gen_random_dense(n, 3, p=p, seed=trial, max_tries=1)
        if cx.top_count() == 0:
            agree += brute_force_fractional(cx) is False
            continue
        g = solve_feasible(build_lp(cx, ALLOC3))
        verdict = g is not None
        oracle = brute_force_fractional(cx)
        agree += verdict == oracle
        if g is not None:
            rep = verify_fractional(cx, g, ALLOC3)
            exact &= rep["ok"]
    report(4, agree == total and exact, f"{agree}/{total} verdicts agree, all solutions exact")


def test_criterion_05_extraction_pair_loads():
    """Pair loads never exceed 2 (exact residuals >= 0), 50 dense instances."""
    sizes = [12, 24, 36, 48, 60]
    all_ok = True
    completed = 0
    for trial in range(50):
        n = sizes[trial % len(sizes)]
        p = 0.85 + 0.03 * (trial % 4)
        cx = gen_random_dense(n, 3, p=p, seed=300 + trial)
        ell = max(2, math.ceil(GAMMA * n))
        res = extract_weight_disjoint(cx, ALLOC3, ell, seed=trial)
        all_ok &= res.pair_weights.min_weight() >= 0
        completed += res.completed
    report(5, all_ok, f"pair loads bounded on 50/50 prefixes ({completed} complete)")


def test_criterion_06_rounding_coverage():
    """Coverage and regularity of the sampled rounding at n = 300."""
    cc = complete_complex(300, 3)
    res = extract_weight_disjoint(cc, ALLOC3, 30, seed=7)
    assert res.completed
    g = combine_weights(res.matchings)
    covers = []
    reg_passes = 0
    worst = 0.0
    for seed in range(10):
        start = time.time()
        H = sample_subgraph(cc, g, seed=seed)
        H = color_classes(H, ALLOC3, seed=seed)
        rep = check_regularity(H, tau=0.2, ell=15)
        reg_passes += rep["degree_pass"] and rep["codegree_pass"]
        nr = nibble_match(H, 6, seed=seed)
        covers.append(nr.covered_fraction)
        worst = max(worst, time.time() - start)
    med = statistics.median(covers)
    report(
        6,
        med >= 0.95 and worst < 60 and reg_passes >= 9,
        f"median coverage {med:.3f}, regularity {reg_passes}/10, slowest run {worst:.1f}s",
    )


def test_criterion_07_absorption_correctness():
    """build_absorber + absorb on random leftovers: verified matchings only."""
    rng = random.Random(2024)
    built = 0
    absorbed = 0
    invalid = 0
    for trial in range(100):
        cx = gen_random_dense(30, 3, p=0.85 + 0.05 * (trial % 3), seed=700 + trial)
        cfg = AbsorberConfig(
            seed=trial,
            phi=Fraction(1, 5),
            epsilon=Fraction(7, 10),
            mu=Fraction(1, 500),
            family_target=2,
        )
        try:
            state = build_absorber(cx, ALLOC3, cfg)
        except KmatchError:
            continue
        built += 1
        # a leftover of up to capacity() k-sets, each checked exactly by absorb
        avail = sorted(set(cx.vertex_pool) - state.w_vertices)
        size = 3 * rng.randint(0, state.capacity())
        size = min(size, len(avail) - len(avail) % 3)
        leftover = rng.sample(avail, size)
        try:
            m = absorb(state, leftover)
        except KmatchError:
            continue  # fails the criterion: every built absorber must absorb
        absorbed += 1
        if not validate_matching(cx, m, cover=state.w_vertices | set(leftover)):
            invalid += 1
    report(
        7,
        invalid == 0 and built >= 90 and absorbed == built,
        f"{built}/100 absorbers built, {absorbed} absorbed, {invalid} invalid matchings",
    )


def test_criterion_08_decomposition_identity():
    """Bounded decompositions re-evaluate to their targets exactly."""
    rng = random.Random(9)
    checked = 0
    for _ in range(1000):
        r = rng.choice([1, 2, 3])
        kvecs = sum_vectors(3, r)
        gens = rng.sample(kvecs, rng.randint(1, min(4, len(kvecs))))
        coeffs = [rng.randint(-3, 3) for _ in gens]
        target = tuple(
            sum(c * v[i] for c, v in zip(coeffs, gens)) for i in range(r)
        )
        bound = max(max(abs(c) for c in coeffs), 1)
        dec = bounded_decompose(target, gens, bound)
        assert dec.evaluate() == target
        assert max((abs(c) for _, c in dec.coefficients), default=0) <= bound
        checked += 1
    worked = bounded_decompose((3, 0), [(1, 2), (2, 1)], 3)
    ok = (
        worked.evaluate() == (3, 0)
        and worked.positive_part == {(2, 1): 2}
        and worked.negative_part == {(1, 2): 1}
    )
    report(8, checked == 1000 and ok, f"{checked}/1000 identities exact, worked example exact")


def _mixture_instances():
    out = []
    for i in range(50):  # dense
        n = [6, 9, 12][i % 3]
        out.append(("dense", gen_random_dense(n, 3, p=0.8 + 0.1 * (i % 2), seed=900 + i)))
    planted = []
    for n in (6, 9, 12):
        for j in (1, 2):
            for s in range(j * n // 3 + 1, n + 1):
                planted.append((n, j, s))
    for i in range(25):  # space barriers
        n, j, s = planted[i % len(planted)]
        out.append(("space", gen_space_barrier(n, 3, j, s)))
    div_shapes = [(5, 3), (4, 4), (6, 3), (3, 3), (5, 4), (6, 4), (7, 3), (4, 3)]
    gens_cycle = [[(1, 2), (3, 0)], [(2, 1), (0, 3)]]
    for i in range(25):  # divisibility
        sizes = div_shapes[i % len(div_shapes)]
        out.append(
            ("div", gen_divisibility_barrier(sizes, 3, gens_cycle[i % 2]))
        )
    return out


def test_criterion_09_trichotomy_vs_oracle():
    """decide is never contradicted by brute force on small instances, and
    every instance that has a perfect matching ends in one."""
    instances = _mixture_instances()
    assert len(instances) == 100
    contradictions = 0
    unverified = 0
    matchable = 0
    missed = 0
    for i, (_, system) in enumerate(instances):
        cert = decide(system, PipelineConfig(seed=i))
        view = host_view(system)
        oracle_pm = brute_force_pm(view, cap=12)
        unverified += not verify_certificate(view, cert)
        contradictions += cert.tag == "PerfectMatching" and oracle_pm is None
        if oracle_pm is not None:
            matchable += 1
            missed += cert.tag != "PerfectMatching"
    report(
        9,
        contradictions == 0 and unverified == 0 and missed == 0,
        f"0 contradictions, 0 unverified certificates, {matchable - missed}/{matchable} "
        f"matchable instances end in a perfect matching",
    )


def test_criterion_10_end_to_end_scale():
    """n = 60 dense instances: verified perfect matchings at alpha = 0."""
    successes = 0
    invalid = 0
    worst = 0.0
    for trial in range(20):
        cx = gen_random_dense(
            60, 3, p=0.92, degree_floor=(60, 36, 20), seed=1000 + trial
        )
        start = time.time()
        cert = run_matching_pipeline(cx, None, PipelineConfig(seed=trial, ell=30))
        worst = max(worst, time.time() - start)
        if cert.tag == "PerfectMatching":
            m = Matching.from_edges([tuple(e) for e in cert.payload["edges"]])
            valid = validate_matching(cx, m, cover=cx.vertex_pool)
            if valid and cert.payload["alpha"] == "0":
                successes += 1
            else:
                invalid += 1
        elif cert.tag != "Inconclusive":
            invalid += 1
    report(
        10,
        successes >= 16 and invalid == 0 and worst < 300,
        f"{successes}/20 verified matchings at alpha=0, {invalid} invalid, "
        f"slowest {worst:.1f}s",
    )


def test_criterion_11_reproducibility(tmp_path, capsys):
    """Byte-identical JSON output across repeated runs, every subcommand."""
    save_khg(gen_random_dense(12, 3, p=0.9, seed=5), tmp_path / "dense.khg")
    save_khg(
        gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]), tmp_path / "div.khg"
    )
    save_khg(gen_random_dense(30, 3, p=0.9, seed=3), tmp_path / "d30.khg")
    spec = {"kind": "space-barrier", "n": 9, "k": 3, "params": {"j": 1, "s_size": 4}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    gen_out = str(tmp_path / "gen.khg")
    invocations = [
        ["decide", str(tmp_path / "dense.khg"), "--json", "--seed", "11"],
        ["match", str(tmp_path / "dense.khg"), "--json", "--seed", "11"],
        ["frac", str(tmp_path / "dense.khg"), "--ell", "3", "--json", "--seed", "11"],
        ["barriers", str(tmp_path / "div.khg"), "--json", "--seed", "11"],
        ["gen", str(tmp_path / "spec.json"), "-o", gen_out, "--json", "--seed", "11"],
        ["absorb-demo", str(tmp_path / "d30.khg"), "--json", "--seed", "11"],
        ["oracle", str(tmp_path / "div.khg"), "--json", "--seed", "11"],
    ]
    mismatched = []
    for argv in invocations:
        outs = []
        for _ in range(2):
            cli_main(list(argv))
            outs.append(capsys.readouterr().out)
        if outs[0] != outs[1]:
            mismatched.append(argv[0])
    with capsys.disabled():
        report(11, not mismatched, f"{len(invocations)} subcommands byte-identical twice"
               if not mismatched else f"mismatch in {mismatched}")
