"""Reachability, closed partitions, absorbing families, and the absorption
routine that upgrades an almost-perfect matching to a perfect one.

The closed partition is exact and draws no random numbers: the components,
inside each input part, of the graph joining two vertices whose links share
at least alpha * |V|^(k-1) (k-1)-sets, read off the host's common-link
counts. Absorbers are t*k^2-sets built around reachability witnesses: for a
target k-set pattern, one host edge plus per-coordinate witness sets whose
unions with either endpoint of a reachable pair are perfectly matchable. Every
witness set and absorption is checked by one exact search, the oracle's
brute_force_pm, whose matching is the one recorded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .core import Matching, compositions, edge_key, index_vector, validate_matching
from .errors import (
    AbsorberUnavailable,
    AbsorptionFailed,
    BudgetExhausted,
    PreconditionFailed,
)
from .lattice import (
    Decomposition,
    as_fraction,
    generate_lattice,
    is_complete,
    k_vectors,
    minimal_decomposition_bound,
    robust_threshold,
)
from .oracle import brute_force_pm

PARTITION_DELTA = Fraction(1, 8)    # closed-partition density floor when no partition is given
PARTITION_ALPHA = Fraction(1, 200)  # reachability threshold for that partition
BUILD_TRIES = 400                   # absorber member attempts before the build gives up


def _matching_inside(system, vertices):
    """Exact: a perfect matching of the top edges inside a small vertex set, or
    None when there is none. The k-sets of the sorted vertices are sorted
    rows already."""
    verts = sorted(vertices)
    rows = np.array(list(combinations(verts, system.k)), np.int64).reshape(-1, system.k)
    edges = rows[system.has_top_rows(rows)]
    return brute_force_pm(edges, vertices=verts, cap=len(verts))


@dataclass
class ClosedPartition:
    """Refinement of the input parts into reachability-closed classes."""

    parts: tuple                  # ordered, each a sorted tuple of vertex ids
    witness: tuple                # per part: (beta_prime, t)
    delta: Fraction
    alpha: Fraction

    def groups(self, universe) -> tuple:
        """Ambient part id of each refined part."""
        return tuple(universe.part_of(p[0]) for p in self.parts)

    def coarsenings(self):
        """All partitions obtainable by merging refined parts, yielded one at
        a time (ambient-aware merges are the caller's concern; this yields
        set-partition merges)."""
        for merged in _merges([set(p) for p in self.parts]):
            yield tuple(tuple(sorted(p)) for p in merged)

    def to_json(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "witness": [[str(b), t] for b, t in self.witness],
            "delta": str(self.delta),
            "alpha": str(self.alpha),
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


def closed_partition(system, delta, alpha) -> ClosedPartition:
    """Partition each input part into reachability-closed classes.

    Builds the exact 1-step reachability graph at threshold alpha from all
    common-link counts at once (the host's common_links), and returns its
    components inside each input part, sorted by least vertex. Every vertex
    must see at least delta * |V| reachable vertices in its own part, or
    PreconditionFailed. The closure witness of a part is (alpha, 1) when it
    is a clique of the reachability graph, else (alpha, 2).
    """
    delta = as_fraction(delta)
    alpha = as_fraction(alpha)
    if delta > 1:
        raise PreconditionFailed(f"delta={delta} exceeds 1")
    uni = system.universe
    pool = sorted(system.vertex_pool)
    nv = len(pool)
    common = system.common_links()
    # the counts are integers, so comparing with the ceiling is exact
    need = math.ceil(alpha * Fraction(nv) ** (system.k - 1))
    part = np.array([uni.part_of(v) for v in pool], dtype=np.int64)
    hit = (common[np.ix_(pool, pool)] >= need) & (part[:, None] == part[None, :])
    np.fill_diagonal(hit, False)
    reach = {v: {pool[w] for w in np.flatnonzero(row)} for v, row in zip(pool, hit)}
    floor = math.ceil(delta * nv)  # reach sizes are integers
    for v in pool:
        if len(reach[v]) < floor:
            raise PreconditionFailed(
                f"vertex {v} reaches only {len(reach[v])} of its part, "
                f"needs {float(delta * nv):.1f}"
            )

    # reach never crosses input parts, so its components refine them
    parts = []
    unvisited = set(pool)
    for start in pool:
        if start not in unvisited:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            for y in reach[frontier.pop()] - comp:
                comp.add(y)
                frontier.append(y)
        unvisited -= comp
        parts.append(tuple(sorted(comp)))
    witness = tuple(
        (alpha, 1 if all(len(reach[v]) == len(p) - 1 for v in p) else 2) for p in parts
    )
    return ClosedPartition(parts=tuple(parts), witness=witness, delta=delta, alpha=alpha)


def _leftover_sets(phi, nv, k) -> int:
    """The k-sets that a leftover of phi * nv vertices fills, at least one;
    exact, so the absorber and the pipeline's plan size the same leftover."""
    return max(1, math.ceil(Fraction(phi) * nv / k))


@dataclass
class AbsorberConfig:
    """Desk-scale knobs for the absorber build; these are module-level budgets,
    not the asymptotic hierarchy constants."""

    mu: Fraction = Fraction(1, 200)      # robust-vector density
    phi: Fraction = Fraction(1, 10)      # leftover fraction the absorber must swallow
    epsilon: Fraction = Fraction(6, 10)  # W-budget as a fraction of the pool
    family_target: int = None            # absorbers to build; None sizes from phi
    seed: int = 0

    def __post_init__(self):
        for name in ("mu", "phi", "epsilon"):
            setattr(self, name, as_fraction(getattr(self, name)))


@dataclass
class AbsorbingFamily:
    sets: tuple                   # disjoint absorber vertex tuples
    internal_pms: tuple           # recorded perfect matching of each set
    t: int


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
    seed: int                     # the build's seed; absorb draws from seed + 1
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
            "seed": self.seed,
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
        )
        fam = data["family"]  # the "coverage" key older states carry is ignored
        family = AbsorbingFamily(
            sets=tuple(tuple(s) for s in fam["sets"]), t=fam["t"],
            internal_pms=tuple(tuple(tuple(e) for e in pm) for pm in fam["internal_pms"]),
        )
        table = {
            vec_of(key): Decomposition(target=vec_of(key), bound=data["transfer_bound"],
                                       coefficients=tuple((tuple(v), c) for v, c in pairs))
            for key, pairs in data["decompositions"].items()
        }
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
            seed=data.get("seed", 0),
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

    Raises AbsorberUnavailable when the robust-vector lattice is incomplete:
    the host may then have a divisibility barrier. Raises BudgetExhausted
    when the W budget cannot host the family plus reserves that the
    phi-sized leftover needs.
    """
    k = system.k
    rng = random.Random(config.seed)
    flags = []
    if partition is None:
        partition = closed_partition(system, PARTITION_DELTA, PARTITION_ALPHA)
    parts = partition.parts
    dim = len(parts)
    uni = system.universe
    lookup = np.full(uni.total, -1, dtype=np.int64)
    for idx, p in enumerate(parts):
        lookup[list(p)] = idx

    top_table = system.edge_table()
    # composition -> ids of its top edges, in row order
    comp_of, comps = compositions(top_table.E, lookup, dim)
    top_by_comp = {c: np.flatnonzero(comp_of == g) for g, c in enumerate(comps)}
    pool = sorted(system.vertex_pool)
    nv = len(pool)
    threshold = robust_threshold(config.mu, nv, k)
    vectors = sorted(v for v, es in top_by_comp.items() if len(es) >= threshold)
    lat = generate_lattice(vectors, dim)
    groups = ambient_groups
    if not is_complete(lat, k, groups=groups):
        raise AbsorberUnavailable("robust-vector lattice is incomplete")

    # decomposition table for every k-vector that completeness covers
    table = {}
    max_bound = 0
    for w in k_vectors(k, dim, groups):
        table[w] = minimal_decomposition_bound(w, vectors)
        max_bound = max(max_bound, table[w].bound)

    t = max(tt for _, tt in partition.witness)

    leftover_sets = _leftover_sets(config.phi, nv, k)
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
    if w_size_plan > nv:
        raise BudgetExhausted(f"absorber plan needs {w_size_plan} vertices, the pool has {nv}")

    used = np.zeros(uni.total, dtype=bool)
    members = []
    member_pms = []
    tries = 0
    comp_cycle = 0
    while len(members) < family_target and tries < BUILD_TRIES:
        tries += 1
        comp = vectors[comp_cycle % len(vectors)]
        comp_cycle += 1
        member = _build_absorber_member(system, top_by_comp[comp], t, used, rng)
        if member is None:
            continue
        verts, pm = member
        members.append(tuple(sorted(verts)))
        member_pms.append(tuple(sorted(edge_key(e) for e in pm)))
        used[verts] = True
    if len(members) < family_target:
        raise BudgetExhausted(
            f"built only {len(members)} of {family_target} absorbers in {tries} tries"
        )

    reserves = {}
    for vec, want in sorted(reserve_sizes.items()):
        got = []
        ids = top_by_comp[vec]  # a robust vector: decompositions use no other
        rows = top_table.E[ids]
        cand = list(map(tuple, rows[~used[rows].any(1)].tolist()))
        rng.shuffle(cand)
        for e in cand:
            if len(got) >= want:
                break
            if used[list(e)].any():
                continue
            got.append(e)
            used[list(e)] = True
        if len(got) < want:
            raise BudgetExhausted(
                f"reserve for index {vec} has {len(got)} of {want} edges"
            )
        reserves[vec] = got

    # extend to an F-balanced configuration over the ambient allocation
    extension = []
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
            vi = top_table.vectors.index(vec) if vec in top_table.vectors else -1
            while norm[vec] < target:
                if int(used.sum()) + k > budget:
                    flags.append("balancing extension truncated by the W budget")
                    break
                cand = np.flatnonzero((top_table.vid == vi) & ~used[top_table.E].any(1))
                if not len(cand):
                    flags.append(f"balancing extension starved for index {vec}")
                    break
                e = tuple(top_table.E[cand[rng.randrange(len(cand))]].tolist())
                extension.append(e)
                used[list(e)] = True
                norm[vec] += Fraction(1, alloc.multiplicity(vec))
            else:
                continue
            break

    w_vertices = frozenset(np.flatnonzero(used).tolist())
    if len(w_vertices) > budget:
        raise BudgetExhausted(
            f"W has {len(w_vertices)} vertices, budget {float(budget):.1f}"
        )
    w_matching = Matching.from_edges(w_edges + extension)
    if not validate_matching(system, w_matching, cover=w_vertices):
        raise BudgetExhausted("recorded W matching failed validation")

    family = AbsorbingFamily(sets=tuple(members), internal_pms=tuple(member_pms), t=t)
    return AbsorberState(
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
        seed=config.seed,
        flags=flags,
    )


def _build_absorber_member(system, comp_ids, t, used, rng):
    """One t*k^2 absorber for a target composition: an edge of that composition
    plus per-coordinate reachability witness sets, all off the vertex mask `used`.

    comp_ids are the edge-table ids of the target composition's top edges,
    in row order. Returns (vertex set, internal perfect matching) or None.
    """
    k = system.k
    table = system.edge_table()
    cands = comp_ids[~used[table.E[comp_ids]].any(1)]
    if not len(cands):
        return None
    links_of = {}  # anchor -> its link rows, for all tries
    for _ in range(30):
        e = tuple(table.E[cands[rng.randrange(len(cands))]].tolist())
        taken = used.copy()
        taken[list(e)] = True
        # the internal PM pairs each witness set with its anchor; the central
        # edge e stays free so it can match the incoming k-set at absorb time
        pm_edges = []
        for u in e:
            # pick a fake "target" partner in the same refined part to anchor
            # the witness: the witness set must pair with u and with any
            # same-part vertex at absorb time; absorb checks each use exactly
            if t == 1:
                if u not in links_of:
                    # the rows through u without u: sorted, as the rows are
                    rows = table.E[table.ids[table.ptr[u]:table.ptr[u + 1]]]
                    links_of[u] = rows[rows != u].reshape(len(rows), k - 1)
                links = links_of[u]
                cand_sets = links[~taken[links].any(1)]
                if not len(cand_sets):
                    break
                s = tuple(cand_sets[rng.randrange(len(cand_sets))].tolist())
                pm_edges.append(edge_key(s + (u,)))
            else:
                sub = None
                pool = [w for w in sorted(system.vertex_pool) if not taken[w]]
                size = t * k - 1
                for _ in range(60):
                    if len(pool) < size:
                        break
                    s = rng.sample(pool, size)
                    sub = _matching_inside(system, s + [u])
                    if sub is not None:
                        break
                if sub is None:
                    break
                pm_edges.extend(sub.edges)
            taken[list(s)] = True
        else:
            verts = np.flatnonzero(taken & ~used).tolist()
            m = Matching.from_edges(pm_edges)
            if len(verts) == t * k * k and validate_matching(system, m, cover=verts):
                return verts, pm_edges
    return None


def _absorbs(system, absorber_set, target):
    """Exact: a perfect matching of J[T u S], or None when there is none or
    the sets overlap (J[S] alone was matched at build)."""
    joint = set(absorber_set) | set(target)
    if len(joint) != len(absorber_set) + len(target):
        return None
    return _matching_inside(system, joint)


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
    rng = random.Random(state.seed + 1)
    parts = state.partition.parts
    dim = len(parts)
    part_lookup = {}
    for idx, p in enumerate(parts):
        for v in p:
            part_lookup[v] = idx

    if k > 1 and (k,) + (0,) * (dim - 1) not in state.decomposition_table:
        # a partite table (it lacks (k, 0, ..., 0)) takes k-sets with one vertex
        # in each of k ambient parts: the stride cut of U sorted by part gives
        # them whenever any cut can
        U.sort(key=lambda v: (system.universe.part_of(v), v))
        k_sets = [U[i::len(U) // k] for i in range(len(U) // k)]
    else:
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
