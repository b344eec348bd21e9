"""End-to-end orchestration: the decision trichotomy, and the paper's
matching pipeline.

`decide` runs four stages: a greedy perfect matching, the space and
divisibility barrier searches, a bounded exact search for a perfect
matching, and a brute-force cross-check on small hosts.
`run_matching_pipeline` runs the paper's absorber, restriction,
weight-disjoint fractional family, rounding and absorption.

Inconclusive is a first-class outcome: the underlying theorems are
asymptotic, and at desk scale a heuristic stage can fail without disproving
matchability, and the exact search can stop at its bound. Every emitted
certificate passes its verifier before it leaves this module; failure paths
carry stage diagnostics instead of guesses.

The hierarchy constants PHI < EPSILON < ALPHA < GAMMA < min(MU, BETA) are
module constants, not settings: each stage derives its effective desk-scale
threshold from the instance (recorded in the diagnostics) and uses the
constant only as a cap or a floor, because the nominal constants are
asymptotic and would otherwise make every small instance look like a barrier
or starve the absorber of capacity. PipelineConfig holds only the seed and
the extraction count ell.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .absorbing import AbsorberConfig, _leftover_sets, absorb, build_absorber, closed_partition
from .barriers import (
    DivBarrierCert,
    SpaceBarrierCert,
    divisibility_barrier_search,
    space_barrier_search,
    verify_divisibility_barrier,
    verify_space_barrier,
)
from .core import (
    Matching,
    VertexUniverse,
    build_complex,
    degree_sequences,
    is_pf_partite,
    matching_stats,
    plain_allocation,
    validate_matching,
)
from .errors import (
    AbsorberUnavailable,
    BadParams,
    BudgetExhausted,
    KmatchError,
    MalformedCert,
    PreconditionFailed,
    TooLarge,
)
from .fractional import PairWeights, _greedy_integer_pm, _index_quotas, extract_weight_disjoint
from .oracle import brute_force_pm
from .rounding import (
    check_regularity,
    color_classes,
    combine_weights,
    nibble_match,
    sample_subgraph,
)

NIBBLE_ATTEMPTS = 8  # sample-and-nibble rounds tried before the best one is kept
# decide's exact search stops once its work passes SEARCH_WORK: the incidence
# entries it reads, plus STEP_WORK for each edge it tries, the fixed cost of a
# step in the same units
SEARCH_WORK = 100_000_000
STEP_WORK = 2_000

# the proofs' hierarchy 1/n << PHI << EPSILON << ALPHA << GAMMA << MU, BETA;
# stages read these only as caps or floors, and GAMMA sets the default ell
PHI = Fraction(1, 100)
EPSILON = Fraction(5, 100)
ALPHA = Fraction(10, 100)
GAMMA = Fraction(15, 100)
MU = Fraction(20, 100)
BETA = Fraction(20, 100)


@dataclass
class PipelineConfig:
    """The seed and the extraction count ell (derived from GAMMA when unset)."""

    ell: int = None
    seed: int = 0

    def __post_init__(self):
        if type(self.seed) is not int:
            raise BadParams(f"seed must be an integer, got {self.seed!r}")
        # ell is derived by the stage that reads it when unset
        if self.ell is not None and (type(self.ell) is not int or self.ell < 0):
            raise BadParams(f"ell must be a nonnegative integer, got {self.ell!r}")

    @classmethod
    def from_json(cls, data, **overrides):
        if isinstance(data, str):
            data = json.loads(data)
        merged = dict(data)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(merged) - set(cls.__dataclass_fields__))
        if unknown:
            raise BadParams(f"unknown config keys: {', '.join(unknown)}")
        return cls(**merged)

    def echo(self) -> dict:
        return {"ell": self.ell, "seed": self.seed}


@dataclass
class Certificate:
    """Tagged, verified outcome of the decision pipeline."""

    tag: str                      # PerfectMatching | SpaceBarrier | DivisibilityBarrier | Inconclusive
    payload: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def conclusive(self) -> bool:
        return self.tag != "Inconclusive"

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "payload": self.payload,
            "diagnostics": self.diagnostics,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def _effective_mu(system, cap) -> Fraction:
    """Robustness threshold scaled to the instance: a vector needs at least
    max(2, 5% of the top level) supporting edges."""
    m = system.top_count()
    nv = len(system.vertex_pool)
    want = max(Fraction(2), Fraction(m, 20))
    derived = want / Fraction(nv) ** system.k
    return min(cap, derived)


def _effective_beta(system) -> Fraction:
    """Space threshold scaled to the instance: a quarter of the sparsest level
    density a complete complex would show at the planted-set sizes."""
    uni = system.universe
    n = uni.part_sizes[0]
    best = None
    for p in range(1, system.k):
        size = (p * n) // system.k
        dens = Fraction(math.comb(size, p + 1), 4 * n ** (p + 1))
        if best is None or dens < best:
            best = dens
    if best is None or best == 0:
        best = Fraction(1, 100)
    return min(BETA, best)


def _min_part_size(system, degrees, mu_eff) -> int:
    dk1 = degrees.f_degree[-1] if degrees.f_degree else degrees.plain[-1]
    nv = len(system.vertex_pool)
    return max(1, math.ceil(dk1 - float(mu_eff) * nv))


def _closed_partition(system):
    """The closed partition that the divisibility stage and the absorber read;
    raises PreconditionFailed when a vertex reaches too little of its part."""
    return closed_partition(system, delta=Fraction(1, 2 * system.k),
                            alpha=_effective_mu(system, ALPHA) / 2)


def _stage_seed(config: PipelineConfig, stage: int) -> int:
    return config.seed * 1009 + stage


def _flatten_universe(system):
    """Plain mode treats the universe as one part; vertex ids are preserved."""
    if system.universe.r == 1:
        return system
    return system.rebuild(VertexUniverse.single(system.universe.total), system.vertex_pool)


def _ensure_complex(system):
    """Bare k-graphs (no lower levels) are closed into their induced complex;
    space-barrier counts are about the complex, not the top level alone."""
    if all(len(system.level(i)) == 0 for i in range(1, system.k)):
        return build_complex({system.k: system.level(system.k)}, system.universe, k=system.k)
    return system


def host_view(system, alloc=None):
    """The host every stage and verifier reads: a bare k-graph closed into its
    complex, with the universe flattened to one part when the allocation has
    one part. The stages read explicit levels, so an implicit host raises
    TooLarge."""
    if system.implicit:
        raise TooLarge(f"the pipeline needs explicit levels, not {system.top_count()} "
                       "implicit top edges")
    system = _ensure_complex(system)
    if alloc is None or alloc.r == 1:
        system = _flatten_universe(system)
    return system


def space_barrier_stage(system):
    """The space-barrier search on the host view, as decide and `kmatch
    barriers` run it first and run_matching_pipeline runs it when extraction
    fails; a verified SpaceBarrierCert or None."""
    cert = space_barrier_search(system, _effective_beta(system))
    if cert is not None and verify_space_barrier(system, cert):
        return cert
    return None


def divisibility_barrier_stage(system, alloc=None):
    """The divisibility-barrier search on the host view, as decide and `kmatch
    barriers` run it and run_matching_pipeline runs it when the absorber is
    unavailable; a verified DivBarrierCert or None.

    At every pool size the candidates are the closed partition and its
    coarsenings; no closed partition means no candidate.
    """
    alloc = alloc or plain_allocation(system.k)
    mu_eff = _effective_mu(system, MU)
    min_part = _min_part_size(system, degree_sequences(system, alloc), mu_eff)
    try:
        partition = _closed_partition(system)
    except PreconditionFailed:
        return None
    cert = divisibility_barrier_search(system, mu_eff, min_part, partition.coarsenings())
    if cert is not None and verify_divisibility_barrier(system, cert):
        return cert
    return None


def verify_certificate(system, cert: Certificate) -> bool:
    """Recheck a certificate on the host view it was issued for: each tag is
    decoded and verified by one code path. Inconclusive has nothing to check;
    an unknown tag raises MalformedCert."""
    if cert.tag == "PerfectMatching":
        m = Matching.from_edges([tuple(e) for e in cert.payload["edges"]])
        return validate_matching(system, m, cover=system.vertex_pool)
    if cert.tag == "SpaceBarrier":
        return verify_space_barrier(system, SpaceBarrierCert.from_json(cert.payload))
    if cert.tag == "DivisibilityBarrier":
        return verify_divisibility_barrier(system, DivBarrierCert.from_json(cert.payload))
    if cert.tag == "Inconclusive":
        return True
    raise MalformedCert(f"unknown certificate tag {cert.tag!r}")


def _absorber_plan(system):
    """Derive desk-scale absorber knobs from the hierarchy constants."""
    nv = len(system.vertex_pool)
    k = system.k
    phi_eff = max(PHI, Fraction(k, nv))
    family_target = _leftover_sets(phi_eff, nv, k) + 1
    # shrink the family until the plan plausibly fits alongside a usable pool
    while family_target > 1 and (family_target * k * k) > nv // 2:
        family_target -= 1
    w_plan = family_target * k * k
    epsilon_eff = max(EPSILON, Fraction(w_plan + 2 * k, max(nv, 1)))
    flags = []
    if epsilon_eff > EPSILON:
        flags.append(
            f"W budget raised to {str(epsilon_eff)} of the pool; the asymptotic "
            f"epsilon={str(EPSILON)} cannot host any absorber at n={nv}"
        )
    return phi_eff, family_target, epsilon_eff, flags


def run_matching_pipeline(system, alloc, config: PipelineConfig = None) -> Certificate:
    """The paper's pipeline: absorber, restriction, weight-disjoint family,
    rounding, absorption; emits the first verified certificate or Inconclusive."""
    config = config or PipelineConfig()
    system = host_view(system, alloc)
    k = system.k
    alloc = alloc or plain_allocation(k)
    diagnostics = {"config": config.echo(), "stages": []}
    uni = system.universe
    pool = sorted(system.vertex_pool)
    nv = len(pool)
    if nv % k:
        raise BadParams(f"k={k} does not divide the vertex count {nv}")
    if not is_pf_partite(system, alloc):
        raise BadParams("system is not PF-partite for the given allocation")
    system.edge_table()  # the closed partition and the absorber read it, and so does the count
    deg = degree_sequences(system, alloc)
    diagnostics["degrees"] = {
        "plain": list(deg.plain),
        "f_degree": list(deg.f_degree) if deg.f_degree else None,
    }

    mu_eff = _effective_mu(system, MU)
    diagnostics["effective_mu"] = str(mu_eff)
    phi_eff, family_target, epsilon_eff, flags = _absorber_plan(system)
    diagnostics["absorber_plan"] = {
        "phi_eff": str(phi_eff),
        "family_target": family_target,
        "epsilon_eff": str(epsilon_eff),
        "flags": flags,
    }

    # stage 1: closed partition and absorber; retry seeds when the absorber
    # choice strands a pruned complex with no top edges (small pools only)
    state = None
    sub = None
    try:
        partition = _closed_partition(system)
    except PreconditionFailed as exc:
        diagnostics["stages"].append({
            "stage": "closed-partition", "status": "precondition-failed", "why": str(exc),
        })
        partition = None

    if partition is not None:
        groups = partition.groups(uni) if uni.r >= k else None
        for attempt in range(3):
            try:
                abs_cfg = AbsorberConfig(
                    mu=mu_eff,
                    phi=phi_eff,
                    epsilon=epsilon_eff,
                    family_target=family_target,
                    seed=_stage_seed(config, 2) + 7 * attempt,
                )
                state = build_absorber(system, alloc, abs_cfg, partition=partition,
                                       ambient_groups=groups)
            except AbsorberUnavailable:
                diagnostics["stages"].append(
                    {"stage": "absorber", "status": "lattice-incomplete"}
                )
                cert = divisibility_barrier_stage(system, alloc)
                if cert is not None:
                    return Certificate(
                        tag="DivisibilityBarrier", payload=cert.to_json(),
                        diagnostics=diagnostics,
                    )
                return Certificate(tag="Inconclusive", payload={
                    "reason": "absorber unavailable but no verified divisibility certificate",
                }, diagnostics=diagnostics)
            except BudgetExhausted as exc:
                diagnostics["stages"].append({
                    "stage": "absorber", "status": "skipped", "why": str(exc),
                })
                state = None
                break
            trial_sub = system.induced(
                [v for v in pool if v not in state.w_vertices]
            )
            if trial_sub.top_count() > 0:
                sub = trial_sub
                diagnostics["stages"].append({
                    "stage": "absorber",
                    "status": "ok",
                    "attempt": attempt,
                    "w_size": len(state.w_vertices),
                    "family": len(state.family.sets),
                    "flags": state.flags,
                })
                break
            state = None
        else:
            diagnostics["stages"].append({
                "stage": "absorber", "status": "stranded-pruned-complex",
            })

    w_vertices = state.w_vertices if state is not None else frozenset()
    if sub is None:
        remaining = [v for v in pool if v not in w_vertices]
        sub = system.induced(remaining)
    n_prime = len(sub.vertex_pool) // uni.r

    # stage 2: weight-disjoint fractional family
    ell = config.ell if config.ell is not None else max(2, math.ceil(GAMMA * n_prime))
    pool_size = len(sub.vertex_pool)
    if pool_size > 1 and k > 1:
        # each vertex carries pair budget 2(n'-1) and a matching spends k-1
        pair_cap = max(2, 2 * (pool_size - 1) // (k - 1))
        if ell > pair_cap:
            diagnostics["stages"].append({
                "stage": "fractional", "status": "ell-clamped",
                "requested": ell, "cap": pair_cap,
            })
            ell = pair_cap
    extraction = extract_weight_disjoint(sub, alloc, ell, seed=_stage_seed(config, 3))
    got = len(extraction.matchings)
    diagnostics["stages"].append({
        "stage": "fractional",
        "status": "ok" if extraction.completed else "short-prefix",
        "requested": ell,
        "extracted": got,
    })
    if not extraction.completed:
        cert = space_barrier_stage(system)
        if cert is not None:
            diagnostics["stages"].append({"stage": "space-barrier", "status": "verified"})
            return Certificate(tag="SpaceBarrier", payload=cert.to_json(), diagnostics=diagnostics)
        return Certificate(tag="Inconclusive", payload={
            "reason": f"only {got} of {ell} weight-disjoint matchings found",
        }, diagnostics=diagnostics)

    # stage 3: rounding with retries
    g = combine_weights(extraction.matchings)
    phi_cap = int(phi_eff * nv)
    absorber_cap = (state.capacity() if state is not None else 0) * k
    max_leftover = min(phi_cap, absorber_cap)
    # the kept attempt's sample regularity is reported with its matching
    nibble_result = regularity = None
    for attempt in range(NIBBLE_ATTEMPTS):
        seed = _stage_seed(config, 10 + attempt)
        sampled = sample_subgraph(sub, g, seed=seed)
        sampled = color_classes(sampled, alloc, seed=seed)
        sample_regularity = check_regularity(sampled, tau=0.2)
        candidate = nibble_match(sampled, max_leftover, seed)
        if nibble_result is None or len(candidate.uncovered) < len(nibble_result.uncovered):
            nibble_result, regularity = candidate, sample_regularity
        if candidate.flag == "ok":
            break
    diagnostics["stages"].append({
        "stage": "rounding",
        "status": "ok",
        "covered_fraction": nibble_result.covered_fraction,
        "uncovered": len(nibble_result.uncovered),
        "max_leftover": max_leftover,
        "regularity": {
            "degree_pass": regularity["degree_pass"],
            "codegree_pass": regularity["codegree_pass"],
        },
    })
    leftover = list(nibble_result.uncovered)
    if nibble_result.flag != "ok":
        return Certificate(tag="Inconclusive", payload={
            "reason": f"rounding left {len(leftover)} vertices, at most "
                      f"min(phi*|V| = {phi_cap}, absorber capacity {absorber_cap})",
        }, diagnostics=diagnostics)

    # stage 4: absorb the leftover; without an absorber max_leftover is 0
    final_edges = list(nibble_result.matching.edges)
    if state is not None:
        try:
            wu_matching = absorb(state, leftover)
        except KmatchError as exc:  # AbsorptionFailed and kin: surfaced, never hidden
            diagnostics["stages"].append({
                "stage": "absorb", "status": "failed", "why": str(exc),
            })
            return Certificate(tag="Inconclusive", payload={
                "reason": f"absorption failed: {exc}",
            }, diagnostics=diagnostics)
        final_edges += list(wu_matching.edges)

    matching = Matching.from_edges(final_edges)
    if not validate_matching(system, matching, cover=pool):
        return Certificate(tag="Inconclusive", payload={
            "reason": "assembled matching failed exact validation",
        }, diagnostics=diagnostics)
    diagnostics["stages"].append({"stage": "assemble", "status": "ok"})
    return _perfect_matching(matching, alloc, uni, diagnostics, len(w_vertices), len(leftover))


def _perfect_matching(matching, alloc, universe, diagnostics, absorber_size=0, leftover_size=0):
    """The PerfectMatching certificate of a validated matching, with its
    balance under the allocation and the absorber and leftover sizes."""
    stats = matching_stats(matching, alloc, universe)
    payload = {
        "kind": "perfect-matching",
        "edges": [list(e) for e in matching.edges],
        "alpha": str(stats["alpha"]),
        "n_tilde": {
            "_".join(map(str, vec)): str(val) for vec, val in sorted(stats["n_tilde"].items())
        },
        "size": len(matching),
        "absorber_size": absorber_size,
        "leftover_size": leftover_size,
    }
    return Certificate(tag="PerfectMatching", payload=payload, diagnostics=diagnostics)


def _exact_search(system, quotas):
    """Least-options backtracking for a perfect matching with quotas[vec] edges
    of each index vector, on the edge table's CSR. An edge is live while its
    vertices are free and its vector has quota left. Each step covers the
    free vertex with the fewest live edges, trying first the edges whose
    vertices have the fewest; failures are memoized on the covered vertices
    and the quotas left. Returns (status, edges, work): "ok" and the edges,
    "exhausted" when there is no such matching, or "bound" once work passes
    SEARCH_WORK."""
    E, ptr, ids, vid, vectors = system.edge_table()
    span = [ids[p:q] for p, q in zip(ptr.tolist(), ptr[1:].tolist())]
    of_vector = np.split(np.argsort(vid, kind="stable"), np.cumsum(np.bincount(vid))[:-1])
    need = [quotas.get(vec, 0) for vec in vectors]
    live = np.array(need, dtype=np.int64)[vid] > 0
    done = len(E) + 1  # the count of a covered vertex, or of one outside the pool
    count = np.full(len(span), done)  # live edges per free vertex
    pool = sorted(system.vertex_pool)
    count[pool] = np.bincount(E[live].ravel(), minlength=len(span))[pool]
    memo, stack, trail, work = set(), [], [], 0  # stack: (options left, key) per level
    while True:
        v = int(count.argmin())
        if count[v] == done:
            return "ok", [tuple(E[e].tolist()) for e, _ in trail], work
        if work > SEARCH_WORK:
            return "bound", None, work
        key = ((count == done).tobytes(), *need)
        if count[v] and key not in memo:
            options = span[v][live[span[v]]]
            options = options[np.argsort(count[E[options]].sum(1), kind="stable")]
            stack.append((options.tolist()[::-1], key))
            work += len(span[v])
        while stack:  # the next option of the deepest level that has one
            options, key = stack[-1]
            if len(trail) == len(stack):  # take back the level's last edge
                e, dead = trail.pop()
                count[E[e]] = 0
                count += np.bincount(E[dead].ravel(), minlength=len(span))
                live[dead] = True
                need[vid[e]] += 1
            if options:
                e = options.pop()
                need[vid[e]] -= 1
                read = [span[u] for u in E[e]]
                if not need[vid[e]]:  # the last edge its vector's quota allows
                    read.append(of_vector[vid[e]])
                dead = []
                for inc in read:  # each live edge once
                    dead.append(inc[live[inc]])
                    live[dead[-1]] = False
                dead = np.concatenate(dead)
                count -= np.bincount(E[dead].ravel(), minlength=len(span))
                count[E[e]] = done
                trail.append((e, dead))
                work += STEP_WORK + sum(map(len, read))
                break
            memo.add(key)
            stack.pop()
        else:
            return "exhausted", None, work


def decide(system, config: PipelineConfig = None, alloc=None) -> Certificate:
    """A greedy perfect matching, then the space and divisibility barrier
    searches, then a bounded exact search for a perfect matching: the first
    verified certificate wins. Small instances carry a brute-force
    cross-check in the diagnostics. The stages read explicit levels, so an
    implicit host raises TooLarge."""
    config = config or PipelineConfig()
    system = host_view(system, alloc)
    k = system.k
    alloc = alloc or plain_allocation(k)
    nv = len(system.vertex_pool)
    diagnostics = {"config": config.echo(), "mode": "decide"}

    searchable = nv % k == 0 and system.top_count() > 0
    partite = searchable and is_pf_partite(system, alloc)
    if partite:
        rng = random.Random(_stage_seed(config, 1))
        edges = _greedy_integer_pm(system, alloc, PairWeights(), rng) or ()
        witness = Matching.from_edges(edges)
        if edges and validate_matching(system, witness, cover=system.vertex_pool):
            diagnostics["stages"] = [{"stage": "greedy-witness", "status": "ok"}]
            cert = _perfect_matching(witness, alloc, system.universe, diagnostics)
            return _attach_oracle(system, cert)

    diagnostics["effective_beta"] = str(_effective_beta(system))
    tag, barrier = "SpaceBarrier", space_barrier_stage(system)
    if barrier is None:
        diagnostics["effective_mu"] = str(_effective_mu(system, MU))
        tag, barrier = "DivisibilityBarrier", divisibility_barrier_stage(system, alloc)

    if barrier is not None:
        cert = Certificate(tag=tag, payload=barrier.to_json(), diagnostics=diagnostics)
        return _attach_oracle(system, cert)
    if not searchable:
        reason = "vertex count not divisible by k or empty top level"
    elif not partite:
        raise BadParams("system is not PF-partite for the given allocation")
    elif (quotas := _index_quotas(alloc, nv, k)) is None:
        reason = f"no integer matching of {nv} vertices fills the allocation's quotas exactly"
    else:
        status, edges, work = _exact_search(system, quotas)
        diagnostics["stages"] = [{"stage": "exact-search", "status": status, "work": work}]
        if status == "ok":
            found = Matching.from_edges(edges)
            assert validate_matching(system, found, cover=system.vertex_pool), "invalid matching"
            cert = _perfect_matching(found, alloc, system.universe, diagnostics)
            return _attach_oracle(system, cert)
        reason = ("the exact search found no perfect matching that fills the allocation's quotas"
                  if status == "exhausted" else
                  f"the exact search stopped at its work bound of {SEARCH_WORK}")
    cert = Certificate(tag="Inconclusive", payload={"reason": reason}, diagnostics=diagnostics)
    return _attach_oracle(system, cert)


def _attach_oracle(system, cert: Certificate, cap: int = 12) -> Certificate:
    """Brute-force cross-check on small instances, reported in diagnostics."""
    if len(system.vertex_pool) <= cap:
        exists = brute_force_pm(system, cap=cap) is not None
        cert.diagnostics["oracle"] = {
            "pm_exists": exists,
            "contradicts": cert.tag == "PerfectMatching" and not exists,
        }
    return cert
