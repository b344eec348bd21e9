"""Partitioned k-complexes and k-systems, allocations, degrees, balance accounting.

Vertices are dense integer ids 0..total-1 grouped by part (part order is
significant everywhere). Edges are sorted tuples of vertex ids. An explicit
system caches its top-level link map, incidence and top_vectors on first use.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import (
    BadVertex,
    ClosureViolation,
    EmptyAllocation,
    IndexNotInAllocation,
    NotAKVector,
    NotPartite,
)


def edge_key(vertices) -> tuple:
    """Canonical form of an edge: sorted tuple of vertex ids."""
    return tuple(sorted(vertices))


@dataclass(frozen=True)
class VertexUniverse:
    """Ordered partition of dense vertex ids into labeled parts."""

    part_labels: tuple
    part_sizes: tuple

    def __post_init__(self):
        if len(self.part_labels) != len(self.part_sizes):
            raise BadVertex("label/size count mismatch")
        if any(s <= 0 for s in self.part_sizes):
            raise BadVertex("empty part")
        offsets = []
        acc = 0
        for s in self.part_sizes:
            offsets.append(acc)
            acc += s
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_total", acc)
        lookup = []
        for j, s in enumerate(self.part_sizes):
            lookup.extend([j] * s)
        object.__setattr__(self, "_part_of", tuple(lookup))

    @classmethod
    def single(cls, n, label="V"):
        return cls((label,), (n,))

    @classmethod
    def equipartition(cls, r, n, labels=None):
        if labels is None:
            labels = tuple(f"V{j + 1}" for j in range(r))
        return cls(tuple(labels), tuple([n] * r))

    @property
    def r(self) -> int:
        return len(self.part_sizes)

    @property
    def total(self) -> int:
        return self._total

    @property
    def n(self):
        """Common part size, or None when parts differ."""
        sizes = set(self.part_sizes)
        return self.part_sizes[0] if len(sizes) == 1 else None

    def part_of(self, v: int) -> int:
        if not 0 <= v < self._total:
            raise BadVertex(f"vertex {v} outside universe of size {self._total}")
        return self._part_of[v]

    def part_vertices(self, j: int) -> range:
        return range(self._offsets[j], self._offsets[j] + self.part_sizes[j])

    def vertices(self) -> range:
        return range(self._total)

    def parts(self):
        """Ordered list of vertex-id sets, one per part."""
        return [frozenset(self.part_vertices(j)) for j in range(self.r)]


def index_vector(vertex_set, universe: VertexUniverse) -> tuple:
    """Per-part intersection sizes of a vertex set, as an r-tuple."""
    counts = [0] * universe.r
    for v in vertex_set:
        counts[universe.part_of(v)] += 1
    return tuple(counts)


def _link_map(top_edges) -> dict:
    """vertex -> set of (k-1)-tuples completing it to a top edge."""
    links = {}
    for e in top_edges:
        for v in e:
            links.setdefault(v, set()).add(tuple(u for u in e if u != v))
    return links


class KSystem:
    """Leveled edge sets over a universe, without the closure requirement.

    An induced subsystem keeps the parent universe but restricts its vertex
    pool; degrees, matchings, and LP rows range over the pool.
    """

    closed = False
    implicit = False

    def __init__(self, universe: VertexUniverse, k: int, levels: dict, vertex_pool=None):
        self.universe = universe
        self.k = k
        pool = (
            frozenset(universe.vertices()) if vertex_pool is None else frozenset(vertex_pool)
        )
        self._pool = pool
        lv = {}
        for i in range(k + 1):
            edges = levels.get(i, ())
            canon = set()
            for e in edges:
                e = edge_key(e)
                if len(e) != i or len(set(e)) != i:
                    raise BadVertex(f"edge {e} is not a {i}-set")
                for v in e:
                    if not 0 <= v < universe.total:
                        raise BadVertex(f"vertex {v} outside universe")
                    if v not in pool:
                        raise BadVertex(f"vertex {v} outside the vertex pool")
                canon.add(e)
            lv[i] = frozenset(canon)
        self.levels = lv
        self._links = None
        self._incidence = None
        self._vectors = None

    @property
    def vertex_pool(self) -> frozenset:
        return self._pool

    def level(self, i: int) -> frozenset:
        return self.levels.get(i, frozenset())

    @property
    def top(self) -> frozenset:
        return self.levels[self.k]

    def top_count(self) -> int:
        return len(self.levels[self.k])

    def has_top(self, edge) -> bool:
        return edge_key(edge) in self.levels[self.k]

    def has_edge(self, edge) -> bool:
        e = edge_key(edge)
        return e in self.levels.get(len(e), frozenset())

    def iter_top(self):
        return iter(self.levels[self.k])

    def link_map(self) -> dict:
        """vertex -> set of (k-1)-tuples completing it to a top edge; built
        once, callers must not mutate it."""
        if self._links is None:
            self._links = _link_map(self.levels[self.k])
        return self._links

    def incidence(self) -> dict:
        """vertex -> list of its top edges in top-level order; built once,
        callers must not mutate it."""
        if self._incidence is None:
            incident = {}
            for e in self.levels[self.k]:
                for v in e:
                    incident.setdefault(v, []).append(e)
            self._incidence = incident
        return self._incidence

    def top_vectors(self) -> dict:
        """top edge -> its index vector; built once, callers must not mutate it."""
        if self._vectors is None:
            self._vectors = {e: index_vector(e, self.universe) for e in self.levels[self.k]}
        return self._vectors

    def induced(self, vertex_set):
        """Subsystem on a vertex subset (all levels restricted)."""
        return self.rebuild(self.universe, frozenset(vertex_set) & self._pool)

    def rebuild(self, universe: VertexUniverse, vertex_pool):
        """The same kind of system over another universe or a smaller pool,
        keeping the edges inside the pool; a complex stays closed unchecked."""
        pool = frozenset(vertex_pool)
        levels = {
            i: [e for e in self.levels.get(i, ()) if pool.issuperset(e)]
            for i in range(self.k + 1)
        }
        if self.closed:
            return KComplex(universe, self.k, levels, check=False, vertex_pool=pool)
        return KSystem(universe, self.k, levels, vertex_pool=pool)


class KComplex(KSystem):
    """A k-system closed under taking subsets, with J_0 = {()}."""

    closed = True

    def __init__(self, universe, k, levels, check=True, vertex_pool=None):
        super().__init__(universe, k, levels, vertex_pool=vertex_pool)
        if () not in self.levels[0]:
            self.levels[0] = frozenset({()})
        if check:
            self._check_closure()

    def _check_closure(self):
        for i in range(self.k, 0, -1):
            below = self.levels.get(i - 1, frozenset())
            for e in self.levels[i]:
                for sub in combinations(e, i - 1):
                    if sub not in below:
                        raise ClosureViolation(
                            f"{i}-edge {e} present but sub-edge {sub} missing"
                        )


def close_down(levels: dict, k: int) -> dict:
    """Downward closure of leveled edges: add every subset of every edge."""
    out = {i: set(edge_key(e) for e in levels.get(i, ())) for i in range(k + 1)}
    for i in range(k, 0, -1):
        for e in out[i]:
            for sub in combinations(e, i - 1):
                out[i - 1].add(sub)
    out[0].add(())
    return out


def build_complex(raw_edges, universe: VertexUniverse, k=None, close=True):
    """Build a KComplex from raw leveled edges.

    raw_edges is either a mapping level -> iterable of edges, or a flat
    iterable of top-level edges. With close=True the lower levels are
    completed by downward closure; otherwise closure is validated and a
    ClosureViolation raised on any gap.
    """
    if isinstance(raw_edges, dict):
        leveled = {i: [edge_key(e) for e in es] for i, es in raw_edges.items()}
    else:
        edges = [edge_key(e) for e in raw_edges]
        leveled = {}
        for e in edges:
            leveled.setdefault(len(e), []).append(e)
    if k is None:
        k = max(leveled) if leveled else 0
    if any(i > k for i in leveled):
        raise BadVertex(f"edge level exceeds k={k}")
    for es in leveled.values():
        for e in es:
            for v in e:
                if not 0 <= v < universe.total:
                    raise BadVertex(f"vertex {v} outside universe")
    if close:
        leveled = close_down(leveled, k)
    return KComplex(universe, k, leveled, check=not close)


class CompleteComplex:
    """Implicit complete k-complex: every i-set is an edge.

    Duck-compatible with KComplex for the operations the pipeline needs
    (membership, top counts, links, induced restriction); levels are never
    materialized, which keeps n in the hundreds tractable, and nothing is
    cached.
    """

    closed = True
    implicit = True

    def __init__(self, universe: VertexUniverse, k: int, vertex_pool=None):
        self.universe = universe
        self.k = k
        self._pool = (
            frozenset(universe.vertices()) if vertex_pool is None else frozenset(vertex_pool)
        )

    @property
    def vertex_pool(self) -> frozenset:
        return self._pool

    def level_count(self, i: int) -> int:
        return math.comb(len(self._pool), i)

    def top_count(self) -> int:
        return self.level_count(self.k)

    def has_top(self, edge) -> bool:
        e = edge_key(edge)
        return len(e) == self.k == len(set(e)) and self._pool.issuperset(e)

    def has_edge(self, edge) -> bool:
        e = edge_key(edge)
        return len(set(e)) == len(e) <= self.k and self._pool.issuperset(e)

    def iter_top(self):
        return combinations(sorted(self._pool), self.k)

    def link_map(self) -> dict:
        return _link_map(self.iter_top())

    def induced(self, vertex_set):
        return CompleteComplex(self.universe, self.k, self._pool & frozenset(vertex_set))


@dataclass(frozen=True)
class Allocation:
    """Permutation-closed multiset of maps [k] -> [r], with index accounting.

    functions maps each pattern (f(1),...,f(k)) with 0-based part ids to its
    multiplicity in the multiset F; index_multiset is I(F) with multiplicities
    m_i. F always carries the full k! permutation closure of each member.
    """

    k: int
    r: int
    functions: tuple          # sorted ((pattern, count), ...)
    index_multiset: tuple     # sorted ((vector, count), ...)
    size_bound: int = 0

    @property
    def function_counts(self) -> Counter:
        return Counter(dict(self.functions))

    @property
    def index_counts(self) -> Counter:
        return Counter(dict(self.index_multiset))

    @property
    def size(self) -> int:
        """|F| as a multiset (= k! times the multiset size of I(F))."""
        return sum(c for _, c in self.functions)

    def multiplicity(self, vector) -> int:
        """m_i: multiplicity of an index vector in I(F)."""
        return dict(self.index_multiset).get(tuple(vector), 0)

    def index_vectors(self) -> list:
        return [v for v, _ in self.index_multiset]

    def prefix_indices(self, j: int) -> set:
        """Index vectors realizable by the first j coordinates of some f in F."""
        out = set()
        for pattern, _ in self.functions:
            counts = [0] * self.r
            for p in pattern[:j]:
                counts[p] += 1
            out.add(tuple(counts))
        return out


def _pattern_for(vector) -> tuple:
    """Some function pattern realizing an index vector: part j repeated v_j times."""
    pat = []
    for j, c in enumerate(vector):
        pat.extend([j] * c)
    return tuple(pat)


def allocation_from_index_multiset(index_multiset, r=None, size_bound=0) -> Allocation:
    """Build the allocation F from a multiset of k-vectors.

    For each vector in I (with repetition) the full k! permutation closure of
    a realizing function is included, so |F| = k! * |I| counted with
    multiplicity.
    """
    vectors = [tuple(v) for v in index_multiset]
    if not vectors:
        return Allocation(k=0, r=r or 0, functions=(), index_multiset=(), size_bound=size_bound)
    if r is None:
        r = len(vectors[0])
    k = sum(vectors[0])
    funcs = Counter()
    idx = Counter()
    for v in vectors:
        if len(v) != r:
            raise NotAKVector(f"{v} has dimension {len(v)}, expected {r}")
        if any(c < 0 for c in v) or sum(v) != k:
            raise NotAKVector(f"{v} is not a {k}-vector")
        idx[v] += 1
        base = _pattern_for(v)
        orbit = set(permutations(base))
        per_pattern = math.factorial(k) // len(orbit)
        for pat in orbit:
            funcs[pat] += per_pattern
    total = sum(funcs.values())
    if size_bound and total > size_bound:
        raise NotAKVector(f"|F| = {total} exceeds the declared bound {size_bound}")
    return Allocation(
        k=k,
        r=r,
        functions=tuple(sorted(funcs.items())),
        index_multiset=tuple(sorted(idx.items())),
        size_bound=size_bound or total,
    )


def plain_allocation(k) -> Allocation:
    """The r=1 allocation with I = {(k)}; every complex is PF-partite for it."""
    return allocation_from_index_multiset([(k,)])


def allocation_properties(alloc: Allocation) -> dict:
    """Uniformity, connectedness, and size of an allocation.

    Uniform means every coordinate hits every part equally often across F.
    Connectedness is tested on the maximal admissible part graph: parts j,j'
    are joined iff for all coordinate pairs i != i' some f has f(i)=j,
    f(i')=j'.
    """
    if alloc.size == 0:
        raise EmptyAllocation("allocation has no functions")
    k, r = alloc.k, alloc.r
    counts = [[0] * r for _ in range(k)]
    for pattern, c in alloc.functions:
        for i, p in enumerate(pattern):
            counts[i][p] += c
    share = Fraction(alloc.size, r)
    uniform = all(counts[i][j] == share for i in range(k) for j in range(r))

    pairs_seen = {}
    for pattern, _ in alloc.functions:
        for i in range(k):
            for i2 in range(k):
                if i == i2:
                    continue
                pairs_seen.setdefault((pattern[i], pattern[i2]), set()).add((i, i2))
    all_pos_pairs = [(i, i2) for i in range(k) for i2 in range(k) if i != i2]
    adj = {j: set() for j in range(r)}
    for j in range(r):
        for j2 in range(j + 1, r):
            # an edge of G_F needs every ordered coordinate pair realized
            ok = all(
                (i, i2) in pairs_seen.get((j, j2), set()) for (i, i2) in all_pos_pairs
            ) and all((i, i2) in pairs_seen.get((j2, j), set()) for (i, i2) in all_pos_pairs)
            if ok:
                adj[j].add(j2)
                adj[j2].add(j)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    connected = len(seen) == r
    return {"uniform": uniform, "connected": connected, "size": alloc.size}


@dataclass(frozen=True)
class Matching:
    """A set of pairwise-disjoint k-edges."""

    edges: tuple

    @classmethod
    def from_edges(cls, edges):
        canon = sorted(edge_key(e) for e in edges)
        return cls(tuple(canon))

    def __len__(self):
        return len(self.edges)

    def vertex_set(self) -> frozenset:
        return frozenset(v for e in self.edges for v in e)

    def is_disjoint(self) -> bool:
        seen = set()
        for e in self.edges:
            for v in e:
                if v in seen:
                    return False
                seen.add(v)
        return True

    def per_index_counts(self, universe: VertexUniverse) -> Counter:
        return Counter(index_vector(e, universe) for e in self.edges)


def validate_matching(host, matching: Matching, cover=None) -> bool:
    """Exact validity check: edges in the host top level, pairwise disjoint,
    and covering exactly `cover` when given."""
    if not matching.is_disjoint():
        return False
    for e in matching.edges:
        if not host.has_top(e):
            return False
    if cover is not None and matching.vertex_set() != frozenset(cover):
        return False
    return True


def matching_stats(matching: Matching, alloc: Allocation, universe: VertexUniverse) -> dict:
    """Multiplicity-normalized per-index counts and the balance defect alpha.

    alpha = 1 - min over ordered pairs of normalized-count ratios; 0 when all
    normalized counts agree (then the matching is F-balanced).
    """
    raw = matching.per_index_counts(universe)
    mult = dict(alloc.index_multiset)
    n_tilde = {}
    for vec, count in sorted(raw.items()):
        if vec not in mult:
            raise IndexNotInAllocation(f"index {vec} not in I(F)")
        n_tilde[vec] = Fraction(count, mult[vec])
    for vec in mult:
        n_tilde.setdefault(vec, Fraction(0))
    values = list(n_tilde.values())
    if not values or len(set(values)) == 1:
        alpha = Fraction(0)
    else:
        lo, hi = min(values), max(values)
        alpha = Fraction(1) - Fraction(lo, hi) if hi > 0 else Fraction(0)
    return {"n_tilde": n_tilde, "alpha": alpha}


def is_p_partite(system) -> bool:
    """True iff every edge has at most one vertex in any part."""
    uni = system.universe
    for i in range(1, system.k + 1):
        for e in system.level(i):
            if any(c > 1 for c in index_vector(e, uni)):
                return False
    return True


def is_pf_partite(system, alloc: Allocation) -> bool:
    """True iff every edge at every level realizes a prefix of some f in F."""
    uni = system.universe
    if alloc.size == 0:
        return all(not system.level(i) for i in range(1, system.k + 1))
    for j in range(1, system.k + 1):
        allowed = alloc.prefix_indices(j)
        for e in system.level(j):
            if index_vector(e, uni) not in allowed:
                return False
    return True


@dataclass
class DegreeSequenceReport:
    """Exact minimum degree sequences, computed by enumeration."""

    plain: tuple
    partite: tuple = None
    f_degree: tuple = None


def _plain_degrees(system) -> tuple:
    out = []
    for i in range(system.k):
        lower = system.level(i) if i > 0 else frozenset({()})
        upper = system.level(i + 1)
        if not lower:
            out.append(0)
            continue
        counts = Counter()
        for e in upper:
            for sub in combinations(e, i):
                counts[sub] += 1
        out.append(min(counts.get(e, 0) for e in lower))
    return tuple(out)


def _partite_degrees(system) -> tuple:
    uni = system.universe
    out = []
    for j in range(system.k):
        lower = system.level(j) if j > 0 else frozenset({()})
        upper = system.level(j + 1)
        if not lower:
            out.append(0)
            continue
        upper_set = upper
        best = None
        for e in lower:
            used = set(uni.part_of(v) for v in e)
            for p in range(uni.r):
                if p in used:
                    continue
                cnt = sum(
                    1
                    for v in uni.part_vertices(p)
                    if edge_key(e + (v,)) in upper_set
                )
                if best is None or cnt < best:
                    best = cnt
        out.append(best if best is not None else 0)
    return tuple(out)


def _f_degrees(system, alloc: Allocation) -> tuple:
    uni = system.universe
    out = []
    patterns = [p for p, _ in alloc.functions]
    for j in range(system.k):
        lower = system.level(j) if j > 0 else frozenset({()})
        upper = system.level(j + 1)
        by_index = {}
        for e in lower:
            by_index.setdefault(index_vector(e, uni), []).append(e)
        best = None
        for pattern in patterns:
            counts = [0] * uni.r
            for p in pattern[:j]:
                counts[p] += 1
            prefix = tuple(counts)
            target_part = pattern[j]
            realizers = by_index.get(prefix, [])
            for e in realizers:
                cnt = sum(
                    1
                    for v in uni.part_vertices(target_part)
                    if v not in e and edge_key(e + (v,)) in upper
                )
                if best is None or cnt < best:
                    best = cnt
        out.append(best if best is not None else 0)
    return tuple(out)


def degree_sequences(system, alloc: Allocation = None, partite=None) -> DegreeSequenceReport:
    """Exact minimum degree sequences of a system, by full enumeration.

    plain entries are always computed. Partite degrees are included when the
    system is P-partite with r >= 2 (or on demand via partite=True, which
    raises NotPartite when inapplicable). F-degrees are included when an
    allocation is given.

    By convention a level with no edges contributes 0.
    """
    plain = _plain_degrees(system)
    part = None
    want_partite = partite
    if want_partite is None:
        want_partite = system.universe.r >= 2 and is_p_partite(system)
    if want_partite:
        if system.universe.r < 2 or not is_p_partite(system):
            raise NotPartite("partite degrees need a P-partite system with r >= 2")
        part = _partite_degrees(system)
    fdeg = None
    if alloc is not None:
        fdeg = _f_degrees(system, alloc)
    return DegreeSequenceReport(plain=plain, partite=part, f_degree=fdeg)
