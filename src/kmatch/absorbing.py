"""Reachability, closed partitions, absorbing families, and the absorption
routine that upgrades an almost-perfect matching to a perfect one.

Absorbers are t*k^2-sets built around reachability witnesses: for a target
k-set pattern, one host edge plus per-coordinate witness sets whose unions
with either endpoint of a reachable pair are perfectly matchable. Every
membership and absorption claim is checked exactly (brute force at these
sizes) before it is trusted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Matching, edge_key, index_vector, validate_matching
from .errors import (
    AbsorberUnavailable,
    AbsorptionFailed,
    BudgetExhausted,
    PreconditionFailed,
)
from .lattice import (
    as_fraction,
    bounded_decompose,
    generate_lattice,
    is_complete,
    minimal_decomposition_bound,
    robust_edge_vectors,
    sum_vectors,
)
from .oracle import brute_force_pm

MERGE_ROUNDS = 2  # passes that merge components by sampled 2-step reach


@dataclass
class ReachabilityParams:
    beta: Fraction = Fraction(1, 100)
    i: int = 1
    sample_budget: int = 2000

    def __post_init__(self):
        self.beta = as_fraction(self.beta)
        if self.i < 1:
            raise ValueError("reach length i must be at least 1")


@dataclass
class NeighborhoodReport:
    """Set-like view of the vertices reachable from a target vertex."""

    center: int
    vertices: frozenset
    exact: bool
    threshold: Fraction
    samples: int = 0

    def __contains__(self, v):
        return v in self.vertices

    def __iter__(self):
        return iter(sorted(self.vertices))

    def __len__(self):
        return len(self.vertices)


def reachable_neighborhood(system, v, params: ReachabilityParams,
                           seed: int = 0) -> NeighborhoodReport:
    """Vertices u such that many witness sets complete both u and v to
    perfectly matchable induced subgraphs.

    For reach length 1 the count is exact (common links); for longer reach the
    fraction is estimated by Monte Carlo over sampled witness sets, with the
    sample size recorded.
    """
    pool = sorted(system.vertex_pool)
    nv = len(pool)
    k = system.k
    if params.i == 1:
        links = system.link_map()
        threshold = params.beta * Fraction(nv) ** (k - 1)
        mine = links.get(v, set())
        out = set()
        for u in pool:
            if u == v:
                continue
            # membership in either link set already excludes both endpoints
            count = len(mine & links.get(u, set()))
            if count >= threshold:
                out.add(u)
        return NeighborhoodReport(
            center=v, vertices=frozenset(out), exact=True, threshold=threshold
        )
    size = params.i * k - 1
    threshold = params.beta * Fraction(nv) ** size
    total_sets = math.comb(max(nv - 2, 0), size)
    rng = random.Random(seed)
    out = set()
    per_vertex = max(params.sample_budget // max(nv - 1, 1), 8)
    for u in pool:
        if u == v:
            continue
        others = [w for w in pool if w not in (u, v)]
        if len(others) < size:
            continue
        hits = 0
        for _ in range(per_vertex):
            s = rng.sample(others, size)
            if _set_matchable(system, s + [u]) and _set_matchable(system, s + [v]):
                hits += 1
        est_count = Fraction(hits, per_vertex) * total_sets
        if est_count >= threshold:
            out.add(u)
    return NeighborhoodReport(
        center=v,
        vertices=frozenset(out),
        exact=False,
        threshold=threshold,
        samples=per_vertex,
    )


def _induced_top(system, vertices):
    """Top edges inside a small vertex set, by hashed membership tests."""
    from itertools import combinations

    return [e for e in combinations(sorted(vertices), system.k) if system.has_top(e)]


def _set_matchable(system, vertices) -> bool:
    """Does the induced subgraph on these vertices have a perfect matching?"""
    verts = sorted(vertices)
    if len(verts) % system.k:
        return False
    edges = _induced_top(system, verts)
    return brute_force_pm(edges, vertices=verts, cap=max(len(verts), 15)) is not None


@dataclass
class ClosedPartition:
    """Refinement of the input parts into reachability-closed classes."""

    parts: tuple                  # ordered, each a sorted tuple of vertex ids
    witness: tuple                # per part: (beta_prime, t)
    delta: Fraction
    alpha: Fraction
    audit: dict = field(default_factory=dict)

    def groups(self, universe) -> tuple:
        """Ambient part id of each refined part."""
        return tuple(universe.part_of(p[0]) for p in self.parts)

    def coarsenings(self):
        """All partitions obtainable by merging refined parts (ambient-aware
        merges are the caller's concern; this yields set-partition merges)."""
        out = []
        base = [set(p) for p in self.parts]
        for merged in _merges(base):
            out.append(tuple(tuple(sorted(p)) for p in merged))
        return out

    def to_json(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "witness": [[str(b), t] for b, t in self.witness],
            "delta": str(self.delta),
            "alpha": str(self.alpha),
            "audit": self.audit,
        }


def _merges(blocks):
    """All set partitions of the given blocks (merging whole blocks)."""
    if not blocks:
        yield []
        return
    first, rest = blocks[0], blocks[1:]
    for sub in _merges(rest):
        yield [set(first)] + [set(b) for b in sub]
        for t in range(len(sub)):
            merged = [set(b) for b in sub]
            merged[t] |= first
            yield merged


def closed_partition(
    system,
    delta,
    alpha,
    seed: int = 0,
    audit_samples: int = 40,
) -> ClosedPartition:
    """Partition each input part into reachability-closed classes.

    Builds the exact 1-step reachability graph at threshold alpha, takes its
    connected components inside each input part, then merges components whose
    sampled longer-reach connectivity is high. Every vertex must see at least
    delta * |V| reachable vertices in its own part, or PreconditionFailed.
    The (beta', t) closure witness of each final part is audited by sampling
    and attached.
    """
    delta = as_fraction(delta)
    alpha = as_fraction(alpha)
    if delta > 1:
        raise PreconditionFailed(f"delta={delta} exceeds 1")
    uni = system.universe
    pool = sorted(system.vertex_pool)
    nv = len(pool)
    links = system.link_map()
    threshold = alpha * Fraction(nv) ** (system.k - 1)
    reach = {v: set() for v in pool}
    for j in range(uni.r):
        members = [v for v in pool if uni.part_of(v) == j]
        for a in range(len(members)):
            u = members[a]
            lu = links.get(u, set())
            for b in range(a + 1, len(members)):
                w = members[b]
                if len(lu & links.get(w, set())) >= threshold:
                    reach[u].add(w)
                    reach[w].add(u)
    for v in pool:
        if Fraction(len(reach[v])) < delta * nv:
            raise PreconditionFailed(
                f"vertex {v} reaches only {len(reach[v])} of its part, "
                f"needs {float(delta * nv):.1f}"
            )

    parts = []
    rng = random.Random(seed)
    for j in range(uni.r):
        members = [v for v in pool if uni.part_of(v) == j]
        if not members:
            continue
        unvisited = set(members)
        comps = []
        while unvisited:
            start = min(unvisited)
            comp = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for y in reach[x]:
                    if y in unvisited and y not in comp:
                        comp.add(y)
                        frontier.append(y)
            unvisited -= comp
            comps.append(sorted(comp))
        # merge components with high sampled 2-step connectivity
        for _ in range(MERGE_ROUNDS):
            if len(comps) <= 1:
                break
            merged = False
            for a in range(len(comps)):
                for b in range(a + 1, len(comps)):
                    if _sampled_cross_reach(system, comps[a], comps[b], rng):
                        comps[a] = sorted(comps[a] + comps[b])
                        del comps[b]
                        merged = True
                        break
                if merged:
                    break
            if not merged:
                break
        parts.extend(comps)

    parts.sort(key=lambda p: p[0])
    witness = []
    audit = {"pairs": []}
    for p in parts:
        clique = all(u in reach[v] for v in p for u in p if u != v)
        t = 1 if clique else 2
        witness.append((alpha, t))
        ok = _audit_part(system, p, t, rng, audit_samples)
        audit["pairs"].append({"part_head": p[0], "t": t, "pass_rate": ok})
    audit["passed"] = all(x["pass_rate"] >= 0.9 for x in audit["pairs"])
    return ClosedPartition(
        parts=tuple(tuple(p) for p in parts),
        witness=tuple(witness),
        delta=delta,
        alpha=alpha,
        audit=audit,
    )


def _sampled_cross_reach(system, comp_a, comp_b, rng, samples=6, witnesses=30) -> bool:
    """Do sampled cross pairs share 2-step witnesses? (2k-1 sets whose union
    with either vertex is matchable)."""
    k = system.k
    pool = sorted(system.vertex_pool)
    hits = 0
    trials = 0
    for _ in range(samples):
        u = comp_a[rng.randrange(len(comp_a))]
        v = comp_b[rng.randrange(len(comp_b))]
        others = [w for w in pool if w not in (u, v)]
        if len(others) < 2 * k - 1:
            return False
        found = False
        for _ in range(witnesses):
            s = rng.sample(others, 2 * k - 1)
            if _set_matchable(system, s + [u]) and _set_matchable(system, s + [v]):
                found = True
                break
        trials += 1
        hits += found
    return trials > 0 and hits == trials


def _audit_part(system, part, t, rng, samples) -> float:
    """Sampled (beta', t)-closure check: fraction of sampled in-part pairs
    with a witness set of size t*k-1 (exact common links for t=1)."""
    if len(part) < 2:
        return 1.0
    k = system.k
    pool = sorted(system.vertex_pool)
    size = t * k - 1
    hits = 0
    trials = min(samples, len(part) * (len(part) - 1) // 2)
    if t == 1:
        links = system.link_map()
        for _ in range(trials):
            u, v = rng.sample(part, 2)
            hits += bool(links.get(u, set()) & links.get(v, set()))
        return hits / trials if trials else 1.0
    for _ in range(trials):
        u, v = rng.sample(part, 2)
        others = [w for w in pool if w not in (u, v)]
        if len(others) < size:
            return 0.0
        found = False
        for _ in range(40):
            s = rng.sample(others, size)
            if _set_matchable(system, s + [u]) and _set_matchable(system, s + [v]):
                found = True
                break
        hits += found
    return hits / trials if trials else 1.0


@dataclass
class AbsorberConfig:
    """Desk-scale knobs for the absorber build; these are module-level budgets,
    not the asymptotic hierarchy constants."""

    mu: Fraction = Fraction(1, 200)      # robust-vector density
    phi: Fraction = Fraction(1, 10)      # leftover fraction the absorber must swallow
    epsilon: Fraction = Fraction(6, 10)  # W-budget as a fraction of the pool
    delta: Fraction = Fraction(1, 8)     # closed-partition density floor
    alpha: Fraction = Fraction(1, 200)   # reachability threshold for the partition
    t: int = None                        # absorber scale; None derives from delta
    t_cap: int = 4
    transfer_bound: int = None           # None computes the exact bound on the lattice
    family_target: int = None            # absorbers to build; None sizes from phi
    seed: int = 0
    build_tries: int = 400
    audit_samples: int = 30
    coverage_min: int = 1
    audit_min_rate: float = 0.95

    def __post_init__(self):
        for name in ("mu", "phi", "epsilon", "delta", "alpha"):
            setattr(self, name, as_fraction(getattr(self, name)))


@dataclass
class AbsorbingFamily:
    sets: tuple                   # disjoint absorber vertex tuples
    internal_pms: tuple           # recorded perfect matching of each set
    t: int
    coverage: dict = field(default_factory=dict)

    def vertices(self) -> frozenset:
        return frozenset(v for s in self.sets for v in s)


@dataclass
class AbsorberState:
    """Everything needed to replay absorptions: the absorbing set W, the
    family, per-index reserve matchings, and balancing extension edges."""

    host: object
    partition: ClosedPartition
    family: AbsorbingFamily
    reserves: dict                # index vector (over partition) -> list of edges
    extension: tuple              # balancing edges
    w_vertices: frozenset
    w_matching: Matching          # recorded perfect matching of J[W]
    decomposition_table: dict     # k-vector -> Decomposition
    transfer_bound: int
    lattice_json: dict
    config: AbsorberConfig
    flags: list = field(default_factory=list)

    def capacity(self) -> int:
        """Leftover k-sets absorbable with the unused family members."""
        return len(self.family.sets)

    def to_json(self) -> dict:
        return {
            "partition": self.partition.to_json(),
            "family": {
                "sets": [list(s) for s in self.family.sets],
                "internal_pms": [[list(e) for e in pm] for pm in self.family.internal_pms],
                "t": self.family.t,
                "coverage": self.family.coverage,
            },
            "reserves": {
                "_".join(map(str, vec)): [list(e) for e in edges]
                for vec, edges in sorted(self.reserves.items())
            },
            "extension": [list(e) for e in self.extension],
            "w_vertices": sorted(self.w_vertices),
            "w_matching": [list(e) for e in self.w_matching.edges],
            "decompositions": {
                "_".join(map(str, w)): [[list(v), c] for v, c in dec.coefficients]
                for w, dec in sorted(self.decomposition_table.items())
            },
            "transfer_bound": self.transfer_bound,
            "lattice": self.lattice_json,
            "seed": self.config.seed,
            "flags": list(self.flags),
        }

    @classmethod
    def from_json(cls, host, data) -> "AbsorberState":
        """Rebuild a replayable state on its host system."""
        def vec_of(key):
            return tuple(int(x) for x in key.split("_"))

        part_blob = data["partition"]
        partition = ClosedPartition(
            parts=tuple(tuple(p) for p in part_blob["parts"]),
            witness=tuple((Fraction(b), t) for b, t in part_blob["witness"]),
            delta=Fraction(part_blob["delta"]),
            alpha=Fraction(part_blob["alpha"]),
            audit=part_blob["audit"],
        )
        family = AbsorbingFamily(
            sets=tuple(tuple(s) for s in data["family"]["sets"]),
            internal_pms=tuple(
                tuple(tuple(e) for e in pm) for pm in data["family"]["internal_pms"]
            ),
            t=data["family"]["t"],
            coverage=data["family"]["coverage"],
        )
        from .lattice import Decomposition

        table = {}
        for key, pairs in data["decompositions"].items():
            w = vec_of(key)
            table[w] = Decomposition(
                target=w,
                coefficients=tuple((tuple(v), c) for v, c in pairs),
                bound=data["transfer_bound"],
            )
        return cls(
            host=host,
            partition=partition,
            family=family,
            reserves={vec_of(k): [tuple(e) for e in es] for k, es in data["reserves"].items()},
            extension=tuple(tuple(e) for e in data["extension"]),
            w_vertices=frozenset(data["w_vertices"]),
            w_matching=Matching.from_edges([tuple(e) for e in data["w_matching"]]),
            decomposition_table=table,
            transfer_bound=data["transfer_bound"],
            lattice_json=data["lattice"],
            config=AbsorberConfig(seed=data.get("seed", 0)),
            flags=list(data["flags"]),
        )


def _composition_of(vertex_set, part_lookup, dim):
    vec = [0] * dim
    for v in vertex_set:
        vec[part_lookup[v]] += 1
    return tuple(vec)


def _draw_by_composition(per_part_pools, comp, rng):
    """Pick one vertex set realizing the composition from per-part pools."""
    out = []
    for part_id, count in enumerate(comp):
        if count == 0:
            continue
        if len(per_part_pools[part_id]) < count:
            return None
        picked = rng.sample(sorted(per_part_pools[part_id]), count)
        out.extend(picked)
        per_part_pools[part_id] -= set(picked)
    return out


def build_absorber(system, alloc, config: AbsorberConfig, partition: ClosedPartition = None,
                   ambient_groups=None) -> AbsorberState:
    """Build the absorbing state: family of t*k^2-sets, per-index reserves,
    and a balancing extension, with W admitting a recorded perfect matching.

    Raises AbsorberUnavailable (carrying the partition) when the robust-vector
    lattice is incomplete: that partition is then a divisibility-barrier
    candidate. Raises BudgetExhausted when the W budget cannot host the family
    plus reserves that the phi-sized leftover needs.
    """
    k = system.k
    rng = random.Random(config.seed)
    flags = []
    if partition is None:
        partition = closed_partition(
            system, config.delta, config.alpha, seed=config.seed,
            audit_samples=config.audit_samples,
        )
    parts = partition.parts
    dim = len(parts)
    part_lookup = {}
    for idx, p in enumerate(parts):
        for v in p:
            part_lookup[v] = idx

    robust = robust_edge_vectors(system.iter_top(), [frozenset(p) for p in parts], config.mu)
    vectors = robust.vectors()
    lat = generate_lattice(vectors, dim)
    groups = ambient_groups
    if not is_complete(lat, k, groups=groups):
        raise AbsorberUnavailable(
            "robust-vector lattice is incomplete", partition=partition, lattice=lat
        )

    # decomposition table for every k-vector over the refined parts
    table = {}
    max_bound = 0
    for w in sum_vectors(k, dim):
        bound = (
            config.transfer_bound
            if config.transfer_bound is not None
            else minimal_decomposition_bound(w, vectors)
        )
        table[w] = bounded_decompose(w, vectors, bound)
        max_bound = max(max_bound, bound)

    t = config.t
    if t is None:
        derived = 2 ** max(math.floor(1 / float(config.delta)) - 1, 0)
        needed = max(tt for _, tt in partition.witness)
        t = min(max(needed, 1), config.t_cap)
        if derived > config.t_cap:
            flags.append(f"closure parameter t={derived} capped to {config.t_cap}")
        if needed < derived:
            flags.append(f"partition audit supports t={needed}, using it over t={derived}")

    pool = sorted(system.vertex_pool)
    nv = len(pool)
    leftover_sets = max(1, math.ceil(float(config.phi) * nv / k))
    family_target = config.family_target or (leftover_sets + 1)
    reserve_need = {}
    for w, dec in table.items():
        for vec, c in dec.negative_part.items():
            reserve_need[vec] = max(reserve_need.get(vec, 0), c)
    reserve_sizes = {vec: need * leftover_sets for vec, need in reserve_need.items()}

    w_size_plan = family_target * t * k * k + sum(reserve_sizes.values()) * k
    budget = config.epsilon * nv
    if w_size_plan > budget:
        raise BudgetExhausted(
            f"absorber plan needs {w_size_plan} vertices, budget is {float(budget):.1f} "
            f"(epsilon={config.epsilon}, pool={nv})"
        )

    used = set()
    members = []
    member_pms = []
    top_by_comp = {}              # composition -> its top edges, in top-level order
    for e in system.iter_top():
        top_by_comp.setdefault(_composition_of(e, part_lookup, dim), []).append(e)

    target_comps = list(vectors)
    tries = 0
    comp_cycle = 0
    while len(members) < family_target and tries < config.build_tries:
        tries += 1
        comp = target_comps[comp_cycle % len(target_comps)]
        comp_cycle += 1
        member = _build_absorber_member(system, top_by_comp.get(comp, ()), t, used, rng)
        if member is None:
            continue
        verts, pm = member
        members.append(tuple(sorted(verts)))
        member_pms.append(tuple(sorted(edge_key(e) for e in pm)))
        used |= set(verts)
    if len(members) < family_target:
        raise BudgetExhausted(
            f"built only {len(members)} of {family_target} absorbers in {tries} tries"
        )

    reserves = {}
    for vec, want in sorted(reserve_sizes.items()):
        got = []
        cand = [e for e in sorted(top_by_comp.get(vec, ())) if not set(e) & used]
        rng.shuffle(cand)
        for e in cand:
            if len(got) >= want:
                break
            if set(e) & used:
                continue
            got.append(e)
            used |= set(e)
        if len(got) < want:
            raise BudgetExhausted(
                f"reserve for index {vec} has {len(got)} of {want} edges"
            )
        reserves[vec] = got

    # extend to an F-balanced configuration over the ambient allocation
    extension = []
    uni = system.universe
    amb_counts = {}
    w_edges = [e for pm in member_pms for e in pm] + [e for es in reserves.values() for e in es]
    for e in w_edges:
        av = index_vector(e, uni)
        amb_counts[av] = amb_counts.get(av, 0) + 1
    avectors = alloc.index_vectors()
    if len(avectors) > 1:
        norm = {vec: Fraction(amb_counts.get(vec, 0), alloc.multiplicity(vec)) for vec in avectors}
        target = max(norm.values())
        for vec in avectors:
            while norm[vec] < target:
                if len(used) + k > budget:
                    flags.append("balancing extension truncated by the W budget")
                    break
                cand = [
                    e
                    for e in system.iter_top()
                    if index_vector(e, uni) == vec and not set(e) & used
                ]
                if not cand:
                    flags.append(f"balancing extension starved for index {vec}")
                    break
                e = cand[rng.randrange(len(cand))]
                extension.append(e)
                used |= set(e)
                norm[vec] += Fraction(1, alloc.multiplicity(vec))
            else:
                continue
            break

    w_vertices = frozenset(used)
    if len(w_vertices) > budget:
        raise BudgetExhausted(
            f"W has {len(w_vertices)} vertices, budget {float(budget):.1f}"
        )
    w_match_edges = [e for pm in member_pms for e in pm]
    w_match_edges += [e for es in reserves.values() for e in es]
    w_match_edges += extension
    w_matching = Matching.from_edges(w_match_edges)
    if not validate_matching(system, w_matching, cover=w_vertices):
        raise BudgetExhausted("recorded W matching failed validation")

    coverage = _audit_coverage(system, members, vectors, part_lookup, dim, used, rng, config)
    family = AbsorbingFamily(
        sets=tuple(members), internal_pms=tuple(member_pms), t=t, coverage=coverage
    )
    state = AbsorberState(
        host=system,
        partition=partition,
        family=family,
        reserves=reserves,
        extension=tuple(sorted(edge_key(e) for e in extension)),
        w_vertices=w_vertices,
        w_matching=w_matching,
        decomposition_table=table,
        transfer_bound=max_bound,
        lattice_json=lat.to_json(),
        config=config,
        flags=flags,
    )
    return state


def _build_absorber_member(system, comp_edges, t, used, rng):
    """One t*k^2 absorber for a target composition: an edge of that composition
    plus per-coordinate reachability witness sets, all disjoint from `used`.

    comp_edges are the top edges of the target composition, in top-level
    order. Returns (vertex set, internal perfect matching) or None.
    """
    k = system.k
    links = system.link_map()
    cands = [e for e in comp_edges if not (set(e) & used)]
    if not cands:
        return None
    sorted_links = {}  # anchor -> its link set in sorted order, for all tries
    for _ in range(30):
        e = cands[rng.randrange(len(cands))]
        taken = set(used) | set(e)
        witness_sets = []
        ok = True
        for u in e:
            # pick a fake "target" partner in the same refined part to anchor
            # the witness: the witness set must pair with u and with any
            # same-part vertex at absorb time, which the audit samples
            if t == 1:
                if u not in sorted_links:
                    sorted_links[u] = sorted(links.get(u, ()))
                cand_sets = [s for s in sorted_links[u] if taken.isdisjoint(s)]
                if not cand_sets:
                    ok = False
                    break
                s = cand_sets[rng.randrange(len(cand_sets))]
                witness_sets.append((u, tuple(s)))
                taken |= set(s)
            else:
                found = None
                pool = [w for w in sorted(system.vertex_pool) if w not in taken]
                size = t * k - 1
                for _ in range(60):
                    if len(pool) < size:
                        break
                    s = rng.sample(pool, size)
                    if _set_matchable(system, s + [u]):
                        found = tuple(sorted(s))
                        break
                if found is None:
                    ok = False
                    break
                witness_sets.append((u, found))
                taken |= set(found)
        if not ok:
            continue
        # internal PM pairs each witness set with its anchor; the central edge
        # e stays free so it can match the incoming k-set at absorb time
        verts = set(e)
        pm_edges = []
        for u, s in witness_sets:
            verts |= set(s)
            if t == 1:
                pm_edges.append(edge_key(s + (u,)))
                continue
            union = sorted(set(s) | {u})
            sub = brute_force_pm(_induced_top(system, union), vertices=union, cap=t * k)
            if sub is None:
                ok = False
                break
            pm_edges.extend(sub.edges)
        if not ok:
            continue
        verts_sorted = sorted(verts)
        if len(verts_sorted) != t * k * k:
            continue
        m = Matching.from_edges(pm_edges)
        if not validate_matching(system, m, cover=verts_sorted):
            continue
        return verts_sorted, pm_edges
    return None


def _audit_coverage(system, members, vectors, part_lookup, dim, used, rng, config):
    """Sampled check: random k-sets of each robust composition find at least
    coverage_min absorbing members (exact matchability tests)."""
    coverage = {"per_vector": {}, "samples": config.audit_samples}
    all_pass = True
    avail = [v for v in sorted(system.vertex_pool) if v not in used]
    per_part_avail = {}
    for v in avail:
        per_part_avail.setdefault(part_lookup[v], []).append(v)
    for vec in vectors:
        hits = 0
        trials = 0
        for _ in range(config.audit_samples):
            pools = {pid: set(vs) for pid, vs in per_part_avail.items()}
            target = _draw_by_composition(
                [pools.get(pid, set()) for pid in range(dim)], vec, rng
            )
            if target is None:
                continue
            trials += 1
            absorbing = 0
            for s in members:
                if _absorbs(system, s, target) is not None:
                    absorbing += 1
                    if absorbing >= config.coverage_min:
                        break
            hits += absorbing >= config.coverage_min
        rate = hits / trials if trials else 0.0
        coverage["per_vector"]["_".join(map(str, vec))] = {
            "trials": trials,
            "pass_rate": rate,
        }
        if rate < config.audit_min_rate:
            all_pass = False
    coverage["passed"] = all_pass
    return coverage


def _absorbs(system, absorber_set, target):
    """Exact: a perfect matching of J[T u S], or None when there is none or
    the sets overlap (J[S] alone was matched at build)."""
    joint = sorted(set(absorber_set) | set(target))
    if len(joint) != len(absorber_set) + len(target):
        return None
    edges = _induced_top(system, joint)
    return brute_force_pm(edges, vertices=joint, cap=len(joint))


def absorb(state: AbsorberState, leftover) -> Matching:
    """Perfect matching of J[W u U] for a small leftover set U.

    U is split into k-sets; each index vector is decomposed over the robust
    vectors (reserve edges supply the negative coefficients), the union is
    re-partitioned into robust-index k-sets, and each of those is absorbed by
    an unused family member. The result is validated before returning.
    """
    system = state.host
    k = system.k
    U = sorted(leftover)
    if set(U) & state.w_vertices:
        raise AbsorptionFailed("leftover intersects the absorbing set")
    if len(U) % k:
        raise AbsorptionFailed(f"leftover size {len(U)} not divisible by k={k}")
    rng = random.Random(state.config.seed + 1)
    parts = state.partition.parts
    dim = len(parts)
    part_lookup = {}
    for idx, p in enumerate(parts):
        for v in p:
            part_lookup[v] = idx

    k_sets = [U[i:i + k] for i in range(0, len(U), k)]
    reserves = {vec: list(edges) for vec, edges in state.reserves.items()}
    used_members = set()
    final_edges = []

    for s in k_sets:
        comp = _composition_of(s, part_lookup, dim)
        dec = state.decomposition_table.get(comp)
        if dec is None:
            raise AbsorptionFailed(f"no decomposition recorded for index {comp}")
        pool_vertices = list(s)
        for vec, c in sorted(dec.negative_part.items()):
            for _ in range(c):
                if not reserves.get(vec):
                    raise AbsorptionFailed(f"reserve for {vec} exhausted")
                e = reserves[vec].pop()
                pool_vertices.extend(e)
        per_part_pools = [set() for _ in range(dim)]
        for v in pool_vertices:
            per_part_pools[part_lookup[v]].add(v)
        regrouped = []
        for vec, b in sorted(dec.positive_part.items()):
            for _ in range(b):
                got = _draw_by_composition(per_part_pools, vec, rng)
                if got is None:
                    raise AbsorptionFailed(
                        f"re-partition failed drawing {vec} from {comp}"
                    )
                regrouped.append(sorted(got))
        if any(pp for pp in per_part_pools):
            raise AbsorptionFailed("re-partition left vertices behind")
        for tset in regrouped:
            placed = False
            for mi, member in enumerate(state.family.sets):
                if mi in used_members:
                    continue
                pm = _absorbs(system, member, tset)
                if pm is not None:
                    final_edges.extend(pm.edges)
                    used_members.add(mi)
                    placed = True
                    break
            if not placed:
                raise AbsorptionFailed(
                    f"no unused absorber accepts a k-set of index "
                    f"{_composition_of(tset, part_lookup, dim)}"
                )

    for mi, pm in enumerate(state.family.internal_pms):
        if mi not in used_members:
            final_edges.extend(pm)
    for vec, edges in sorted(reserves.items()):
        final_edges.extend(edges)
    final_edges.extend(state.extension)
    result = Matching.from_edges(final_edges)
    target_cover = state.w_vertices | set(U)
    if not validate_matching(system, result, cover=target_cover):
        raise AbsorptionFailed("assembled matching failed exact validation")
    return result
