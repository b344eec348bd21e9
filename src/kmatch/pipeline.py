"""End-to-end orchestration: absorber, pruning, weight-disjoint fractional
family, rounding, absorption, and the decision trichotomy.

Inconclusive is a first-class outcome: the underlying theorems are
asymptotic, and at desk scale a heuristic stage can fail without disproving
matchability. Every emitted certificate passes its verifier before it leaves
this module; failure paths carry stage diagnostics instead of guesses.

The hierarchy constants in PipelineConfig keep the documented ordering
phi < epsilon < alpha < gamma < min(mu, beta); individual stages derive
effective desk-scale thresholds from them (recorded in the diagnostics),
because the nominal constants are asymptotic and would otherwise make every
small instance look like a barrier or starve the absorber of capacity.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .absorbing import AbsorberConfig, absorb, build_absorber, closed_partition
from .barriers import (
    SpaceBarrierCert,
    divisibility_barrier_search,
    space_barrier_search,
    verify_divisibility_barrier,
    verify_space_barrier,
)
from .core import (
    Matching,
    VertexUniverse,
    degree_sequences,
    is_pf_partite,
    matching_stats,
    plain_allocation,
    validate_matching,
)
from .errors import (
    AbsorberUnavailable,
    BadFamily,
    BadParams,
    BudgetExhausted,
    EmptyTopLevel,
    KmatchError,
    PreconditionFailed,
    TooLarge,
)
from .fractional import (
    PairWeights,
    edge_pairs,
    extract_weight_disjoint,
    verify_fractional,
)
from .lattice import as_fraction
from .oracle import brute_force_pm
from .rounding import (
    NibbleParams,
    check_regularity,
    color_classes,
    combine_weights,
    nibble_match,
    sample_subgraph,
)


@dataclass
class PipelineConfig:
    """Hierarchy constants, seeds, and stage budgets.

    The strict ordering phi < epsilon < alpha < gamma < min(mu, beta) is
    enforced on construction; zeta is the plain degree floor used by the
    general mode.
    """

    phi: Fraction = Fraction(1, 100)
    epsilon: Fraction = Fraction(5, 100)
    alpha: Fraction = Fraction(10, 100)
    gamma: Fraction = Fraction(15, 100)
    mu: Fraction = Fraction(20, 100)
    beta: Fraction = Fraction(20, 100)
    zeta: Fraction = Fraction(30, 100)
    ell: int = None
    seed: int = 0
    nibble_attempts: int = 8
    nibble_rounds: int = None
    absorber_tries: int = 400
    space_budget: int = None
    mode: str = "pipeline"

    def __post_init__(self):
        for name in ("phi", "epsilon", "alpha", "gamma", "mu", "beta", "zeta"):
            value = getattr(self, name)
            try:
                setattr(self, name, as_fraction(value))
            except (TypeError, ValueError, ZeroDivisionError):
                raise BadParams(f"{name}={value!r} is not a number") from None
        if type(self.seed) is not int:
            raise BadParams(f"seed must be an integer, got {self.seed!r}")
        for name in ("nibble_attempts", "absorber_tries", "ell", "nibble_rounds", "space_budget"):
            value = getattr(self, name)
            if value is None and name in ("ell", "nibble_rounds", "space_budget"):
                continue  # derived by the stage that reads it
            if type(value) is not int or value < 0:
                raise BadParams(f"{name} must be a nonnegative integer, got {value!r}")
        chain = [self.phi, self.epsilon, self.alpha, self.gamma]
        if not all(a < b for a, b in zip(chain, chain[1:])):
            raise BadParams("hierarchy must satisfy phi < epsilon < alpha < gamma")
        if not self.gamma < min(self.mu, self.beta):
            raise BadParams("hierarchy must satisfy gamma < min(mu, beta)")

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
        return {
            "phi": str(self.phi),
            "epsilon": str(self.epsilon),
            "alpha": str(self.alpha),
            "gamma": str(self.gamma),
            "mu": str(self.mu),
            "beta": str(self.beta),
            "zeta": str(self.zeta),
            "ell": self.ell,
            "seed": self.seed,
            "mode": self.mode,
        }


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
    return min(as_fraction(cap), derived)


def _effective_beta(system, cap) -> Fraction:
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
    return min(as_fraction(cap), best)


def _min_part_size(system, alloc, mu_eff) -> int:
    rep = degree_sequences(system, alloc)
    dk1 = rep.f_degree[-1] if rep.f_degree else rep.plain[-1]
    nv = len(system.vertex_pool)
    return max(1, math.ceil(dk1 - float(mu_eff) * nv))


def _divisibility_from_partition(system, partition, mu_eff, min_part, diagnostics):
    """Turn an absorber-stage partition into a verified divisibility certificate."""
    candidates = [partition.parts] + partition.coarsenings()
    seen = set()
    ordered = []
    for cand in candidates:
        key = tuple(sorted(tuple(sorted(p)) for p in cand))
        if key not in seen:
            seen.add(key)
            ordered.append(tuple(tuple(sorted(p)) for p in cand))
    cert = divisibility_barrier_search(
        system, mu_eff, min_part, candidates=ordered
    )
    if cert is not None and verify_divisibility_barrier(system, cert):
        diagnostics["divisibility"] = {"verified": True}
        return cert
    diagnostics["divisibility"] = {"verified": False, "found": cert is not None}
    return None


def _absorber_plan(system, config: PipelineConfig):
    """Derive desk-scale absorber knobs from the hierarchy constants."""
    nv = len(system.vertex_pool)
    k = system.k
    phi_eff = max(config.phi, Fraction(k, nv))
    leftover_sets = max(1, math.ceil(phi_eff * nv / k))
    family_target = leftover_sets + 1
    # shrink the family until the plan plausibly fits alongside a usable pool
    while family_target > 1 and (family_target * k * k) > nv // 2:
        family_target -= 1
    w_plan = family_target * k * k
    epsilon_eff = max(config.epsilon, Fraction(w_plan + 2 * k, max(nv, 1)))
    flags = []
    if epsilon_eff > config.epsilon:
        flags.append(
            f"W budget raised to {str(epsilon_eff)} of the pool; the asymptotic "
            f"epsilon={str(config.epsilon)} cannot host any absorber at n={nv}"
        )
    return phi_eff, family_target, epsilon_eff, flags


def _stage_seed(config: PipelineConfig, stage: int) -> int:
    return config.seed * 1009 + stage


def _flatten_universe(system):
    """Plain mode treats the universe as one part; vertex ids are preserved."""
    if system.universe.r == 1:
        return system
    return system.rebuild(VertexUniverse.single(system.universe.total), system.vertex_pool)


def run_matching_pipeline(system, alloc, config: PipelineConfig = None) -> Certificate:
    """Full pipeline: absorber, restriction, weight-disjoint family, rounding,
    absorption; emits the first verified certificate or Inconclusive."""
    config = config or PipelineConfig()
    diagnostics = {"config": config.echo(), "stages": []}
    k = system.k
    if alloc is None:
        alloc = plain_allocation(k)
    if alloc.r == 1:
        system = _flatten_universe(system)
    uni = system.universe
    pool = sorted(system.vertex_pool)
    nv = len(pool)
    if nv % k:
        raise BadParams(f"k={k} does not divide the vertex count {nv}")
    if not is_pf_partite(system, alloc):
        raise BadParams("system is not PF-partite for the given allocation")
    deg = degree_sequences(system, alloc)
    diagnostics["degrees"] = {
        "plain": list(deg.plain),
        "f_degree": list(deg.f_degree) if deg.f_degree else None,
    }

    mu_eff = _effective_mu(system, config.mu)
    diagnostics["effective_mu"] = str(mu_eff)
    phi_eff, family_target, epsilon_eff, flags = _absorber_plan(system, config)
    diagnostics["absorber_plan"] = {
        "phi_eff": str(phi_eff),
        "family_target": family_target,
        "epsilon_eff": str(epsilon_eff),
        "flags": flags,
    }

    # stage 1: closed partition and absorber; retry seeds when the absorber
    # choice strands a pruned complex with no top edges (small pools only)
    state = None
    partition = None
    sub = None
    try:
        partition = closed_partition(
            system,
            delta=Fraction(1, 2 * k),
            alpha=_effective_mu(system, config.alpha) / 2,
            seed=_stage_seed(config, 1),
        )
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
                    build_tries=config.absorber_tries,
                )
                state = build_absorber(system, alloc, abs_cfg, partition=partition,
                                       ambient_groups=groups)
            except AbsorberUnavailable as exc:
                diagnostics["stages"].append(
                    {"stage": "absorber", "status": "lattice-incomplete"}
                )
                min_part = _min_part_size(system, alloc, mu_eff)
                cert = _divisibility_from_partition(
                    system, exc.partition, mu_eff, min_part, diagnostics
                )
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
                    "coverage_passed": state.family.coverage["passed"],
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
    ell = config.ell if config.ell is not None else max(2, math.ceil(config.gamma * n_prime))
    pool_size = len(sub.vertex_pool)
    if pool_size > 1:
        # each vertex carries pair budget 2(n'-1) and a matching spends k-1
        pair_cap = max(2, 2 * (pool_size - 1) // (k - 1))
        if ell > pair_cap:
            diagnostics["stages"].append({
                "stage": "fractional", "status": "ell-clamped",
                "requested": ell, "cap": pair_cap,
            })
            ell = pair_cap
    extraction = None
    for attempt in range(2):
        try:
            extraction = extract_weight_disjoint(
                sub, alloc, ell, seed=_stage_seed(config, 3 + attempt)
            )
        except EmptyTopLevel:
            extraction = None
        if extraction is not None and extraction.completed:
            break
        if attempt == 0 and (extraction is None or len(extraction.matchings) < 2):
            continue
        break
    got = len(extraction.matchings) if extraction else 0
    diagnostics["stages"].append({
        "stage": "fractional",
        "status": "ok" if extraction and extraction.completed else "short-prefix",
        "requested": ell,
        "extracted": got,
    })
    if not extraction or not extraction.completed:
        beta_eff = _effective_beta(system, config.beta)
        cert = space_barrier_search(
            sub, beta_eff, seed=_stage_seed(config, 5), budget=config.space_budget
        )
        if cert is not None:
            inflated = _inflate_space_cert(system, cert)
            if inflated is not None and verify_space_barrier(system, inflated):
                diagnostics["stages"].append({"stage": "space-barrier", "status": "verified"})
                return Certificate(
                    tag="SpaceBarrier", payload=inflated.to_json(), diagnostics=diagnostics
                )
        return Certificate(tag="Inconclusive", payload={
            "reason": f"only {got} of {ell} weight-disjoint matchings found",
        }, diagnostics=diagnostics)

    # stage 3: rounding with retries
    g = combine_weights(extraction.matchings)
    capacity_sets = state.capacity() if state is not None else 0
    max_leftover = min(
        int(phi_eff * nv),
        capacity_sets * k,
    )
    nibble_result = None
    regularity = None
    for attempt in range(config.nibble_attempts):
        seed = _stage_seed(config, 10 + attempt)
        sampled = sample_subgraph(sub, g, seed=seed)
        sampled = color_classes(sampled, alloc, seed=seed)
        regularity = check_regularity(sampled, tau=0.2)
        params = NibbleParams(
            epsilon=max(float(phi_eff), 1e-9),
            seed=seed,
            max_rounds=config.nibble_rounds,
        )
        candidate = nibble_match(sampled, params)
        uncovered = len(candidate.uncovered)
        if uncovered <= max_leftover and uncovered % k == 0:
            nibble_result = candidate
            break
        if nibble_result is None or uncovered < len(nibble_result.uncovered):
            nibble_result = candidate
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
    if len(leftover) > max_leftover or len(leftover) % k:
        return Certificate(tag="Inconclusive", payload={
            "reason": f"rounding left {len(leftover)} vertices, capacity {max_leftover}",
        }, diagnostics=diagnostics)

    # stage 4: absorb the leftover
    if state is None:
        if leftover:
            return Certificate(tag="Inconclusive", payload={
                "reason": "no absorber and the rounding left vertices uncovered",
            }, diagnostics=diagnostics)
        final_edges = list(nibble_result.matching.edges)
    else:
        try:
            wu_matching = absorb(state, leftover)
        except KmatchError as exc:  # AbsorptionFailed and kin: surfaced, never hidden
            diagnostics["stages"].append({
                "stage": "absorb", "status": "failed", "why": str(exc),
            })
            return Certificate(tag="Inconclusive", payload={
                "reason": f"absorption failed: {exc}",
            }, diagnostics=diagnostics)
        final_edges = list(nibble_result.matching.edges) + list(wu_matching.edges)

    matching = Matching.from_edges(final_edges)
    if not validate_matching(system, matching, cover=pool):
        return Certificate(tag="Inconclusive", payload={
            "reason": "assembled matching failed exact validation",
        }, diagnostics=diagnostics)
    stats = matching_stats(matching, alloc, uni)
    payload = {
        "kind": "perfect-matching",
        "edges": [list(e) for e in matching.edges],
        "alpha": str(stats["alpha"]),
        "n_tilde": {
            "_".join(map(str, vec)): str(val) for vec, val in sorted(stats["n_tilde"].items())
        },
        "size": len(matching),
        "absorber_size": len(w_vertices),
        "leftover_size": len(leftover),
    }
    diagnostics["stages"].append({"stage": "assemble", "status": "ok"})
    return Certificate(tag="PerfectMatching", payload=payload, diagnostics=diagnostics)


def _inflate_space_cert(system, cert: SpaceBarrierCert):
    """Grow a certificate found on the pruned subcomplex back to the host:
    top up each planted set from its part and recount on the full complex."""
    from .barriers import _count_inside, _count_top_overflow

    uni = system.universe
    n = uni.part_sizes[0]
    want = (cert.p * n) // system.k
    new_sets = []
    for j, part in enumerate(cert.part_sets):
        members = list(part)
        extras = [
            v
            for v in uni.part_vertices(j)
            if v in system.vertex_pool and v not in members
        ]
        while len(members) < want and extras:
            members.append(extras.pop(0))
        if len(members) != want:
            return None
        new_sets.append(tuple(sorted(members)))
    inside = frozenset(v for s in new_sets for v in s)
    count = _count_inside(system, cert.p + 1, inside)
    return SpaceBarrierCert(
        p=cert.p,
        part_sets=tuple(new_sets),
        edge_count=count,
        beta=cert.beta,
        part_size=n,
        exhaustive=False,
        top_overflow_count=_count_top_overflow(system, inside, cert.p),
    )


def run_general(system, config: PipelineConfig = None, external_family=None) -> Certificate:
    """General mode: the weight-disjoint family is supplied by the caller
    (verified here) or delegated to the extraction loop.

    The plain degree floor (n, zeta n, ..., zeta n) is checked and reported;
    lattice completeness is audited on the partitions actually built, not on
    all partitions.
    """
    config = config or PipelineConfig()
    k = system.k
    alloc = plain_allocation(k)
    deg = degree_sequences(system)
    nv = len(system.vertex_pool)
    floor = [nv] + [math.ceil(config.zeta * nv)] * (k - 1)
    floor_ok = all(d >= f for d, f in zip(deg.plain, floor))
    cfg = dataclasses.replace(config, mode="general")

    if external_family is not None:
        _validate_family(system, alloc, external_family)
        if not external_family:
            return Certificate(tag="Inconclusive", payload={
                "reason": "external family is empty",
            }, diagnostics={"degree_floor_ok": floor_ok})
        cfg.ell = len(external_family)

    cert = run_matching_pipeline(system, alloc, cfg)
    cert.diagnostics["mode"] = "general"
    cert.diagnostics["degree_floor"] = {
        "floor": [int(f) for f in floor],
        "plain": list(deg.plain),
        "ok": floor_ok,
    }
    return cert


def _validate_family(system, alloc, family):
    """BadFamily when vertex sums or the pairwise load bound fail."""
    pairs = PairWeights()
    for g in family:
        rep = verify_fractional(system, g, alloc)
        if not rep["ok"]:
            raise BadFamily("a family member has nonzero residuals")
        for e, w in g.weights.items():
            for pr in edge_pairs(e):
                pairs.charge(pr, w)
    if pairs.min_weight() < 0:
        raise BadFamily("pair load exceeds 2 across the family")


def _ensure_complex(system):
    """Bare k-graphs (no lower levels) are closed into their induced complex;
    space-barrier counts are about the complex, not the top level alone."""
    if all(not system.level(i) for i in range(1, system.k)):
        from .core import build_complex

        return build_complex(
            {system.k: list(system.iter_top())}, system.universe, k=system.k, close=True
        )
    return system


def decide(system, config: PipelineConfig = None, alloc=None) -> Certificate:
    """Cheap barrier searches first, then the matching pipeline; the first
    verified certificate wins. Small instances carry a brute-force
    cross-check in the diagnostics. The barrier searches read explicit
    levels, so an implicit host raises TooLarge."""
    config = config or PipelineConfig()
    if system.implicit:
        raise TooLarge(f"decide needs explicit levels, not {system.top_count()} implicit top edges")
    system = _ensure_complex(system)
    k = system.k
    if alloc is None:
        alloc = plain_allocation(k)
    if alloc.r == 1:
        system = _flatten_universe(system)
    nv = len(system.vertex_pool)
    diagnostics = {"config": config.echo(), "mode": "decide"}

    beta_eff = _effective_beta(system, config.beta)
    diagnostics["effective_beta"] = str(beta_eff)
    space = space_barrier_search(
        system, beta_eff, seed=_stage_seed(config, 90), budget=config.space_budget
    )
    if space is not None and verify_space_barrier(system, space):
        cert = Certificate(tag="SpaceBarrier", payload=space.to_json(),
                           diagnostics=diagnostics)
        _attach_oracle(system, cert)
        return cert

    mu_eff = _effective_mu(system, config.mu)
    diagnostics["effective_mu"] = str(mu_eff)
    min_part = _min_part_size(system, alloc, mu_eff)
    div = None
    if nv <= 12:
        div = divisibility_barrier_search(system, mu_eff, min_part)
    else:
        try:
            partition = closed_partition(
                system, delta=Fraction(1, 2 * k),
                alpha=_effective_mu(system, config.alpha) / 2,
                seed=_stage_seed(config, 91),
            )
            cands = [partition.parts] + partition.coarsenings()
            div = divisibility_barrier_search(system, mu_eff, min_part, candidates=cands)
        except PreconditionFailed:
            div = None
    if div is not None and verify_divisibility_barrier(system, div):
        cert = Certificate(tag="DivisibilityBarrier", payload=div.to_json(),
                           diagnostics=diagnostics)
        _attach_oracle(system, cert)
        return cert

    if nv % k == 0 and system.top_count() > 0:
        cert = run_matching_pipeline(system, alloc, config)
        cert.diagnostics["mode"] = "decide"
        cert.diagnostics["effective_beta"] = str(beta_eff)
    else:
        cert = Certificate(tag="Inconclusive", payload={
            "reason": "vertex count not divisible by k or empty top level",
        }, diagnostics=diagnostics)
    _attach_oracle(system, cert)
    return cert


def _attach_oracle(system, cert: Certificate, cap: int = 12):
    """Brute-force cross-check on small instances, reported in diagnostics."""
    nv = len(system.vertex_pool)
    if nv > cap:
        return
    pm = brute_force_pm(system, cap=cap)
    exists = pm is not None
    contradiction = cert.tag == "PerfectMatching" and not exists
    cert.diagnostics["oracle"] = {
        "pm_exists": exists,
        "contradicts": contradiction,
    }
