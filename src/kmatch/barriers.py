"""Space-barrier and divisibility-barrier certificates: search and verification.

The space search is exhaustive on small pools and says so; verifiers
recompute everything from scratch so a returned certificate never depends on
search-time state.

The exhaustive space search walks the product of per-part planted-set
combinations in blocks that double in size, counting the (p+1)-edges inside
every set of a block at once on a boolean indicator block. On larger pools it
plants one set read off the Farkas certificate of the exact fractional
perfect-matching LP (Keevash and Mycroft: a space barrier is exactly an
obstruction to a perfect fractional matching) and counts it with the same
indicator test. The divisibility search judges the candidate partitions it is
given, in order; the pipeline passes the closed partition and its
coarsenings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, product

import numpy as np

from .core import plain_allocation
from .errors import MalformedCert
from .fractional import LP_COLUMN_CAP, build_lp
from .lattice import (
    IndexLattice,
    as_fraction,
    find_transferral,
    generate_lattice,
    is_complete,
    robust_edge_vectors,
)
from .simplex import solve_equality_feasibility

SPACE_EXHAUSTIVE_LIMIT = 14      # exhaust all S when the pool is at most this
SPACE_FIRST_BLOCK = 16           # planted sets counted at once first; blocks double


@dataclass
class SpaceBarrierCert:
    """Witness that J_{p+1} is sparse inside a maximal-size planted set."""

    p: int
    part_sets: tuple             # per part: sorted tuple of vertex ids
    edge_count: int
    beta: Fraction
    part_size: int               # n used in the beta * n^{p+1} bound
    exhaustive: bool
    top_overflow_count: int = 0  # k-edges with more than p vertices in S

    def vertex_set(self) -> frozenset:
        return frozenset(v for part in self.part_sets for v in part)

    @property
    def threshold(self) -> Fraction:
        return self.beta * Fraction(self.part_size) ** (self.p + 1)

    def to_json(self) -> dict:
        return {
            "kind": "space-barrier",
            "p": self.p,
            "sets": [list(s) for s in self.part_sets],
            "edge_count": self.edge_count,
            "beta": str(self.beta),
            "part_size": self.part_size,
            "threshold": str(self.threshold),
            "exhaustive": self.exhaustive,
            "top_overflow_count": self.top_overflow_count,
        }

    @classmethod
    def from_json(cls, data) -> "SpaceBarrierCert":
        return cls(
            p=data["p"],
            part_sets=tuple(tuple(s) for s in data["sets"]),
            edge_count=data["edge_count"],
            beta=Fraction(data["beta"]),
            part_size=data["part_size"],
            exhaustive=data["exhaustive"],
            top_overflow_count=data["top_overflow_count"],
        )


def _count_inside(system, level, inside: frozenset) -> int:
    """The verifier's recount, independent of the search kernels."""
    return sum(1 for e in system.level(level).tolist() if inside.issuperset(e))


def _count_top_overflow(system, inside: frozenset, p: int) -> int:
    """Top edges with more than p vertices in `inside`, on a boolean vertex mask."""
    mask = np.zeros(system.universe.total, dtype=bool)
    mask[list(inside)] = True
    return int((mask[system.level(system.k)].sum(axis=1) > p).sum())


def _space_target_sizes(system, p):
    uni = system.universe
    n = uni.part_sizes[0]
    return n, (p * n) // system.k


def verify_space_barrier(system, cert: SpaceBarrierCert) -> bool:
    """Recount e(J_{p+1}[S]) exactly and recheck sizes and the threshold."""
    uni = system.universe
    if not 1 <= cert.p <= system.k - 1:
        raise MalformedCert(f"p={cert.p} outside [1, k-1]")
    if len(cert.part_sets) != uni.r:
        raise MalformedCert("certificate does not cover every part")
    n, want = _space_target_sizes(system, cert.p)
    for j, part in enumerate(cert.part_sets):
        members = set(part)
        if len(members) != len(part):
            raise MalformedCert("duplicate vertices in a planted set")
        if not members.issubset(set(uni.part_vertices(j))):
            raise MalformedCert(f"planted set {j} leaves its part")
        if len(members) != want:
            raise MalformedCert(
                f"planted set {j} has {len(members)} vertices, needs {want}"
            )
    inside = cert.vertex_set()
    count = _count_inside(system, cert.p + 1, inside)
    if count != cert.edge_count:
        return False
    return count <= cert.threshold


def _inside_counts(inside, edges):
    """Edges with every vertex inside, counted on a boolean vertex indicator:
    one count per row of an indicator block, or one for a single row."""
    return inside[..., edges].all(axis=-1).sum(axis=-1)


def _inside_count(n_ids, edges, vertices) -> int:
    inside = np.zeros(n_ids, dtype=bool)
    inside[list(vertices)] = True
    return int(_inside_counts(inside, edges))


def _first_sparse_planted(edges, n_ids, per_part, want, allowed):
    """The first planted set, in product-of-combinations order over the parts,
    with at most `allowed` edges inside, as (chosen sets, inside, count), or
    None. A block of sets is counted at once, on one indicator row per set
    over the n_ids vertex ids. Blocks double from SPACE_FIRST_BLOCK, so an
    early hit stays cheap."""
    planted = product(*(combinations(avail, want) for avail in per_part))
    unit = np.eye(n_ids, dtype=bool)
    block = SPACE_FIRST_BLOCK
    while sets := list(islice(planted, block)):
        ids = np.fromiter(chain.from_iterable(chain.from_iterable(sets)), dtype=np.intp)
        counts = _inside_counts(unit[ids.reshape(len(sets), -1)].any(axis=1), edges)
        hits = np.flatnonzero(counts <= allowed)
        if len(hits):
            chosen = sets[hits[0]]
            return chosen, frozenset(chain(*chosen)), int(counts[hits[0]])
        block *= 2
    return None


def _farkas_support(system):
    """The vertices with a positive multiplier in the exact Farkas certificate
    of the fractional perfect-matching LP (the whole pool when there is no top
    edge), or None when the LP is feasible, the host is implicit or the LP
    has more than LP_COLUMN_CAP columns."""
    if system.top_count() == 0:
        return frozenset(system.vertex_pool)
    if system.implicit or system.top_count() > LP_COLUMN_CAP:
        return None
    model = build_lp(system, plain_allocation(system.k))
    res = solve_equality_feasibility(model.csc, model.b)
    if res.feasible:
        return None
    return frozenset(v for v, y in zip(sorted(system.vertex_pool), res.certificate) if y > 0)


def space_barrier_search(system, beta):
    """Look for a space-barrier certificate at every p.

    Up to SPACE_EXHAUSTIVE_LIMIT vertices the search tries all planted sets,
    so absence of a certificate is then a proof. Larger pools read one set
    off the exact LP: when the fractional perfect-matching LP is infeasible,
    S is the support of its Farkas certificate's positive part, and each p
    plants the first vertices of S in each part, in id order. A barrier is
    then only reported where no perfect matching, not even a fractional one,
    exists; absence proves nothing.
    """
    beta = as_fraction(beta)
    uni = system.universe
    exhaustive = len(system.vertex_pool) <= SPACE_EXHAUSTIVE_LIMIT
    pool = system.vertex_pool if exhaustive else _farkas_support(system)
    if pool is None:
        return None
    per_part = [[v for v in uni.part_vertices(j) if v in pool] for j in range(uni.r)]
    for p in range(1, system.k):
        n, want = _space_target_sizes(system, p)
        allowed = math.floor(beta * Fraction(n) ** (p + 1))  # edge counts are integers
        if want == 0 or any(len(avail) < want for avail in per_part):
            continue
        edges = system.level(p + 1)
        if exhaustive:
            found = _first_sparse_planted(edges, uni.total, per_part, want, allowed)
        else:
            chosen = [avail[:want] for avail in per_part]
            inside = frozenset(chain(*chosen))
            cnt = _inside_count(uni.total, edges, inside)
            found = (chosen, inside, cnt) if cnt <= allowed else None
        if found is not None:
            chosen, inside, cnt = found
            return SpaceBarrierCert(
                p=p,
                part_sets=tuple(tuple(sorted(s)) for s in chosen),
                edge_count=cnt,
                beta=beta,
                part_size=n,
                exhaustive=exhaustive,
                top_overflow_count=_count_top_overflow(system, inside, p),
            )
    return None


@dataclass
class DivBarrierCert:
    """A partition whose robust-vector lattice is incomplete and transferral-free."""

    parts: tuple                 # ordered: each a sorted tuple of vertex ids
    min_part_size: int
    lattice: IndexLattice
    mu: Fraction
    exhaustive: bool
    ambient_groups: tuple = None  # refined part -> ambient part, partite mode only
    robust_vectors: tuple = ()

    def to_json(self) -> dict:
        return {
            "kind": "divisibility-barrier",
            "parts": [list(p) for p in self.parts],
            "min_part_size": self.min_part_size,
            "mu": str(self.mu),
            "lattice": self.lattice.to_json(),
            "exhaustive": self.exhaustive,
            "ambient_groups": list(self.ambient_groups) if self.ambient_groups else None,
            "robust_vectors": [list(v) for v in self.robust_vectors],
        }

    @classmethod
    def from_json(cls, data) -> "DivBarrierCert":
        groups = data["ambient_groups"]
        return cls(
            parts=tuple(tuple(p) for p in data["parts"]),
            min_part_size=data["min_part_size"],
            lattice=IndexLattice.from_json(data["lattice"]),
            mu=Fraction(data["mu"]),
            exhaustive=data["exhaustive"],
            ambient_groups=tuple(groups) if groups else None,
            robust_vectors=tuple(tuple(v) for v in data["robust_vectors"]),
        )


def _check_div_partition(system, parts, min_part_size):
    pool = system.vertex_pool
    seen = set()
    for part in parts:
        members = set(part)
        if len(members) != len(part) or members & seen:
            raise MalformedCert("partition parts overlap or repeat vertices")
        seen |= members
    if seen != set(pool):
        raise MalformedCert("partition does not cover the vertex pool")
    return all(len(p) >= min_part_size for p in parts)


def _judge(vectors, dim, k, groups=None):
    """The lattice of a partition's robust vectors, and whether it is
    incomplete and transferral-free: whether the partition is a barrier."""
    lat = generate_lattice(vectors, dim)
    if is_complete(lat, k, groups=groups):
        return lat, False
    return lat, find_transferral(lat, groups=groups) is None


def _div_facts(system, parts, mu, ambient_groups=None):
    """The robust vectors of the partition, their lattice, and the verdict."""
    rv = robust_edge_vectors(system.level(system.k), [frozenset(p) for p in parts], mu)
    return rv.vectors(), *_judge(rv.vectors(), len(parts), system.k, ambient_groups)


def verify_divisibility_barrier(system, cert: DivBarrierCert) -> bool:
    """Recompute robust vectors, lattice, and the barrier facts from scratch."""
    if not _check_div_partition(system, cert.parts, cert.min_part_size):
        return False
    _, lat, barrier = _div_facts(system, cert.parts, cert.mu, cert.ambient_groups)
    return barrier and set(lat.basis) == set(cert.lattice.basis)


def divisibility_barrier_search(system, mu, min_part_size: int, candidates):
    """First candidate partition with no part below min_part_size whose robust
    lattice is incomplete and transferral-free, under the plain (non-partite)
    notions, tried in the order given; malformed candidates are skipped. At
    every pool size the pipeline passes the closed partition and its
    coarsenings.
    """
    mu = as_fraction(mu)
    for parts in candidates:
        parts = tuple(tuple(sorted(p)) for p in parts)
        try:
            if not _check_div_partition(system, parts, min_part_size):
                continue
        except MalformedCert:
            continue
        vectors, lat, barrier = _div_facts(system, parts, mu)
        if barrier:
            return DivBarrierCert(
                parts=parts,
                min_part_size=min_part_size,
                lattice=lat,
                mu=mu,
                exhaustive=False,
                robust_vectors=tuple(vectors),
            )
    return None
