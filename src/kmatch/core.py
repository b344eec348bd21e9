"""Partitioned k-complexes and k-systems, allocations, degrees, balance accounting.

Vertices are dense integer ids 0..total-1 grouped by part (part order is
significant everywhere). An explicit system holds each level as one
read-only int64 array of rows, the edges as sorted vertex ids in
lexicographic order, with their sorted row codes for membership. KSystem()
sorts, de-duplicates and checks the rows it is given and KComplex() adds a
face test; close_down sorts each given level on its own and sorts in only
the faces of the level above that it lacks, a complex closed by
construction, and induced/rebuild mask the parent's rows and codes. Tuples
are made only where edges leave: iter_top(), Matching and the callers'
certificates. A system caches its integer top-edge table (edge_table) and
common-link counts on first use. A face is handled as its code
(face_codes builds no face rows) and found by one binary search in the
sorted codes of the level below: in the face test, close_down, the
common-link incidence and the degree counts. Degrees and PF-partite checks
count each level's rows: that search and one bincount give every extension
count by part, and compositions gives every index vector.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np

from .errors import (
    BadVertex,
    ClosureViolation,
    IndexNotInAllocation,
    NotAKVector,
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


def _check_levels(levels, k):
    if any(not 0 <= i <= k for i in levels):
        raise BadVertex(f"edge level exceeds k={k}")
    _as_rows(levels.get(0, ()), 0)


@functools.cache
def _face_columns(w) -> np.ndarray:
    """Row t: the columns 0..w-1 without t."""
    return np.array([[j for j in range(w) if j != t] for t in range(w)], np.intp).reshape(w, w - 1)


def face_codes(E, total) -> np.ndarray:
    """The row_codes of every row of the int array E with one entry left
    out, block t without column t: the codes of the (k-1)-faces of
    row-sorted k-edges. Block t weighs the columns of E other than t by the
    powers of total, so no face is built."""
    w = E.shape[1]
    dtype = np.int64 if total ** (w - 1) <= 1 << 63 else object
    weights = np.zeros((w, w), dtype)
    weights[np.arange(w)[:, None], _face_columns(w)] = [total ** i for i in reversed(range(w - 1))]
    return (weights @ E.T.astype(dtype, copy=False)).ravel()


def row_codes(rows, total) -> np.ndarray:
    """Each row of an int array with entries below total as one integer in
    base total, in lexicographic row order: int64 when every code fits,
    else Python ints."""
    width = rows.shape[1]
    dtype = np.int64 if total ** width <= 1 << 63 else object
    base = np.array([total ** i for i in reversed(range(width))], dtype)
    return rows.astype(dtype, copy=False) @ base


def _code_rows(codes, total, width) -> np.ndarray:
    """The int64 rows, width wide, whose row_codes are `codes`."""
    base = np.array([total ** i for i in reversed(range(width))], codes.dtype)
    return (codes[:, None] // base % total).astype(np.int64)


def _as_rows(edges, i) -> np.ndarray:
    """i-sets, as tuples or int rows, as a new int64 array of rows."""
    if isinstance(edges, np.ndarray):
        rows = np.array(edges, np.int64)
        if rows.ndim == 2 and rows.shape[1] == i or not rows.size:
            return rows.reshape(len(rows), i)
        raise BadVertex(f"rows of shape {rows.shape} are not {i}-sets")
    edges = list(edges)
    wrong = next((e for e in edges if len(e) != i), None)
    if wrong is not None:
        raise BadVertex(f"edge {edge_key(wrong)} is not a {i}-set")
    return np.fromiter(chain.from_iterable(edges), np.int64, i * len(edges)).reshape(len(edges), i)


def _pool_mask(universe, pool) -> np.ndarray:
    """At v + 1, whether universe id v is in the pool; the first and last
    entries are False and stand for the ids outside the universe."""
    inside = np.zeros(universe.total + 2, bool)
    inside[[v + 1 for v in pool if 0 <= v < universe.total]] = True
    return inside


def _sorted_rows(rows, inside):
    """Int rows of i-sets, vertices in any order and repeats allowed, as
    (the sorted distinct rows of the sorted i-sets, their row_codes): one
    stable sort of the codes; rows already in that form are kept. BadVertex
    names a row that repeats a vertex, else a vertex outside `inside`."""
    total = len(inside) - 2
    if rows.shape[1] > 1 and not (rows[:, 1:] > rows[:, :-1]).all():
        rows = np.sort(rows, axis=1)
        bad = (rows[:, 1:] == rows[:, :-1]).any(1)
        if bad.any():
            raise BadVertex(f"edge {tuple(rows[bad.argmax()].tolist())} is not a {rows.shape[1]}-set")
    if not inside.take(rows + 1, mode="clip").all():
        v = next(v for v in rows.ravel().tolist() if not 0 <= v < total or not inside[v + 1])
        raise BadVertex(f"vertex {v} outside {'the vertex pool' if 0 <= v < total else 'universe'}")
    codes = row_codes(rows, total)
    if not (codes[1:] > codes[:-1]).all():
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.concatenate(([True], codes[1:] != codes[:-1]))
        rows, codes = rows[order[first]], codes[first]
    return rows, codes


_J0 = _sorted_rows(np.zeros((1, 0), np.int64), np.zeros(3, bool))  # level 0: the empty edge


def _locate(codes, have):
    """Per code, its insertion point in the sorted code array `have` and
    whether `have` holds it there."""
    at = have.searchsorted(codes)
    return at, have.take(at, mode="clip") == codes if len(have) else np.zeros(len(codes), bool)


def _among(codes, have) -> np.ndarray:
    """Per code, whether the sorted code array `have` holds it."""
    return _locate(codes, have)[1]


class KSystem:
    """Leveled edge sets over a universe, without the closure requirement.

    Level i is one read-only int64 array of rows: the i-edges as sorted
    vertex ids, in lexicographic order, without repeats; level 0 is one
    empty row. __init__ sorts, de-duplicates and checks the rows it is
    given; close_down and induced/rebuild, whose rows are canonical by
    construction, skip it. An induced subsystem keeps the parent universe
    but restricts its vertex pool; degrees, matchings, LP rows range over it.
    """

    closed = False
    implicit = False

    def __init__(self, universe: VertexUniverse, k: int, levels: dict, vertex_pool=None):
        _check_levels(levels, k)
        pool = frozenset(universe.vertices() if vertex_pool is None else vertex_pool)
        inside = _pool_mask(universe, pool)
        rows = {i: _sorted_rows(_as_rows(levels.get(i, ()), i), inside) for i in range(k, 0, -1)}
        self._assemble(universe, k, rows, pool)

    def _assemble(self, universe, k, rows, pool):
        """Set every field from rows[i] = (sorted rows, row_codes), i = 1..k."""
        self._levels = {0: _J0[0]} | {i: level for i, (level, _) in rows.items()}
        self._codes = {0: _J0[1]} | {i: codes for i, (_, codes) in rows.items()}
        for array in chain(self._levels.values(), self._codes.values()):
            array.flags.writeable = False
        self.universe, self.k, self._pool = universe, k, pool
        self._table = self._common = None
        return self

    @property
    def vertex_pool(self) -> frozenset:
        return self._pool

    def level(self, i: int) -> np.ndarray:
        """The i-edges as sorted int64 rows, in lexicographic order; read-only."""
        return self._levels[i] if i in self._levels else np.zeros((0, i), np.int64)

    def top_count(self) -> int:
        return len(self._levels[self.k])

    def has_top(self, edge) -> bool:
        e = edge_key(edge)
        if len(e) != self.k or e and not 0 <= e[0] <= e[-1] < self.universe.total:
            return False
        code = 0
        for v in e:
            code = code * self.universe.total + v
        codes = self._codes[self.k]
        at = int(codes.searchsorted(code))
        return at < len(codes) and bool(codes[at] == code)

    def has_top_rows(self, rows) -> np.ndarray:
        """Per row of sorted universe ids, k wide: is it a top edge?"""
        return _among(row_codes(rows, self.universe.total), self._codes[self.k])

    def iter_top(self):
        return map(tuple, self._levels[self.k].tolist())

    def edge_table(self) -> EdgeTable:
        """The top level as an EdgeTable; built once, callers must not mutate it."""
        if self._table is None:
            self._table = _edge_table(self)
        return self._table

    def common_links(self) -> np.ndarray:
        """|L(u) & L(w)| for every pair of vertex ids; built once, callers
        must not mutate it."""
        if self._common is None:
            self._common = _common_links(self)
        return self._common

    def induced(self, vertex_set):
        """Subsystem on a vertex subset (all levels restricted)."""
        return self.rebuild(self.universe, frozenset(vertex_set) & self._pool)

    def rebuild(self, universe: VertexUniverse, vertex_pool):
        """The same kind of system over a universe of as many vertices or a
        smaller pool: each level's rows and codes masked to the pool."""
        if universe.total != self.universe.total:
            raise BadVertex(f"a universe of {universe.total} vertices, not {self.universe.total}")
        pool = frozenset(vertex_pool)
        inside = _pool_mask(universe, pool)
        keep = {i: inside[self._levels[i] + 1].all(1) for i in range(1, self.k + 1)}
        rows = {i: (self._levels[i][m], self._codes[i][m]) for i, m in keep.items()}
        return type(self).__new__(type(self))._assemble(universe, self.k, rows, pool)


class KComplex(KSystem):
    """A k-system closed under taking subsets, with J_0 = {()}: every face
    of every i-edge is an (i-1)-edge, or ClosureViolation."""

    closed = True

    def __init__(self, universe, k, levels, vertex_pool=None):
        super().__init__(universe, k, levels, vertex_pool=vertex_pool)
        for i in range(k, 1, -1):
            upper = self.level(i)
            missing = ~_among(face_codes(upper, universe.total), self._codes[i - 1])
            if missing.any():
                t, j = divmod(int(missing.argmax()), len(upper))
                edge = upper[j].tolist()
                raise ClosureViolation(
                    f"{i}-edge {tuple(edge)} present but "
                    f"sub-edge {tuple(edge[:t] + edge[t + 1:])} missing"
                )


def close_down(universe: VertexUniverse, k: int, levels: dict) -> KComplex:
    """The downward closure of leveled edges (as KSystem() takes them): a
    KComplex with no face test. Each given level is sorted on its own; the
    faces of the level above that it lacks, found by binary search in its
    codes and rebuilt as rows from their own codes, are then sorted in with
    it. A level that lists every face gains nothing."""
    _check_levels(levels, k)
    inside = _pool_mask(universe, universe.vertices())
    rows = {k: _sorted_rows(_as_rows(levels.get(k, ()), k), inside)}
    for i in range(k, 1, -1):
        given = _sorted_rows(_as_rows(levels.get(i - 1, ()), i - 1), inside)
        codes = face_codes(rows[i][0], universe.total)
        missing = np.sort(codes[~_among(codes, given[1])])
        if len(missing):
            distinct = np.concatenate(([True], missing[1:] != missing[:-1]))
            missing = _code_rows(missing[distinct], universe.total, i - 1)
            given = _sorted_rows(np.concatenate([given[0], missing]), inside)
        rows[i - 1] = given
    return KComplex.__new__(KComplex)._assemble(universe, k, rows, frozenset(universe.vertices()))


def build_complex(raw_edges, universe: VertexUniverse, k=None, close=True):
    """Build a KComplex from raw leveled edges.

    raw_edges is either a mapping level -> iterable of edges, or a flat
    iterable of top-level edges. With close=True the lower levels are
    completed by downward closure; otherwise closure is validated and a
    ClosureViolation raised on any gap.
    """
    if isinstance(raw_edges, dict):
        leveled = raw_edges
    else:
        leveled = {}
        for e in map(edge_key, raw_edges):
            leveled.setdefault(len(e), []).append(e)
    if k is None:
        k = max(leveled, default=0)
    return close_down(universe, k, leveled) if close else KComplex(universe, k, leveled)


class CompleteComplex:
    """Implicit complete k-complex: every i-set is an edge.

    Duck-compatible with KComplex for the operations the pipeline needs
    (membership, top counts, induced restriction); levels are only built as
    rows where a caller asks for one, which keeps n in the hundreds
    tractable, and nothing is cached.
    """

    closed = True
    implicit = True

    def __init__(self, universe: VertexUniverse, k: int, vertex_pool=None):
        self.universe, self.k = universe, k
        self._pool = frozenset(universe.vertices() if vertex_pool is None else vertex_pool)

    @property
    def vertex_pool(self) -> frozenset:
        return self._pool

    def level(self, i: int) -> np.ndarray:
        """Every i-set of the pool as sorted int64 rows, built on each call."""
        edges = list(combinations(sorted(self._pool), i))
        return np.array(edges, np.int64).reshape(self.level_count(i), i)

    def level_count(self, i: int) -> int:
        return math.comb(len(self._pool), i)

    def top_count(self) -> int:
        return self.level_count(self.k)

    def has_top(self, edge) -> bool:
        e = edge_key(edge)
        return len(e) == self.k == len(set(e)) and self._pool.issuperset(e)

    def has_top_rows(self, rows) -> np.ndarray:
        """Per int row, k wide: are its entries strictly increasing ids of the pool?"""
        inside = _pool_mask(self.universe, self._pool).take(rows + 1, mode="clip").all(1)
        return inside & (rows[:, 1:] > rows[:, :-1]).all(1)

    def iter_top(self):
        return combinations(sorted(self._pool), self.k)

    def common_links(self) -> np.ndarray:
        """|L(u) & L(w)| for every pair of vertex ids, computed on each call."""
        return _common_links(self)

    def induced(self, vertex_set):
        return CompleteComplex(self.universe, self.k, self._pool & frozenset(vertex_set))


# An explicit top level as integer arrays: E is the host's top level, whose
# edge i has index vector vectors[vid[i]], and the edges of vertex v are
# ids[ptr[v]:ptr[v + 1]], in row order.
EdgeTable = namedtuple("EdgeTable", "E ptr ids vid vectors")


def _edge_table(system) -> EdgeTable:
    uni, k = system.universe, system.k
    E = system.level(k)
    flat = E.ravel()
    # stable, so each vertex keeps its edges in row order; radix on 16 bits
    order = np.argsort(flat.astype(np.uint16) if uni.total <= 1 << 16 else flat, kind="stable")
    ptr = np.searchsorted(flat[order], np.arange(uni.total + 1))
    vid, vectors = compositions(E, np.array(uni._part_of, dtype=np.int64), uni.r)
    return EdgeTable(E, ptr, order // k, vid, vectors)


def compositions(E, label, dim):
    """Per row of the int array E, its count vector over labels 0..dim-1 of
    its entries (label[v] for entry v), as a dense id in lexicographic order,
    and the distinct count vectors; ids stay below len(E) for any dim. With
    one label every row has the one vector (E.shape[1],)."""
    if dim == 1:
        return np.zeros(len(E), dtype=np.int64), [(E.shape[1],)] if len(E) else []
    counts = (label[E][:, :, None] == np.arange(dim)).sum(1)
    ids = np.zeros(len(E), dtype=np.int64)
    for col in counts.T:
        ids = np.unique(ids * (E.shape[1] + 1) + col, return_inverse=True)[1].ravel()
    first = np.unique(ids, return_index=True)[1]
    return ids, [tuple(row) for row in counts[first].tolist()]


def _common_links(system) -> np.ndarray:
    """|L(u) & L(w)| for every pair of vertex ids, as the product A A^T of
    the vertex x (k-1)-set incidence matrix A of the top level. float64 is
    exact here: every entry is at most C(n-1, k-1) < 2**53. A's columns are
    the rows of level k-1, found by binary search in their codes, then the
    faces that level lacks (all of them on a bare k-graph); the order of
    the columns does not change A A^T."""
    k, total = system.k, system.universe.total
    top = system.level(k)
    have = row_codes(system.level(k - 1), total)
    # row block t of the face codes is every top edge without its t-th vertex
    codes = face_codes(top, total)
    col, found = _locate(codes, have)
    extra, ids = np.unique(codes[~found], return_inverse=True)
    col[~found] = len(have) + ids.ravel()
    incidence = np.zeros((total, len(have) + len(extra)))
    incidence[top.T.ravel(), col] = 1
    return (incidence @ incidence.T).astype(np.int64)


@dataclass(frozen=True)
class Allocation:
    """Permutation-closed multiset F of maps [k] -> [r], held as its index
    multiset I(F) with multiplicities m_i.

    Each vector v of I(F) stands for the k! orderings of a map realizing it
    (part j at v_j coordinates, 0-based part ids), so F is fixed by I(F), and
    its size, prefixes and steps are read off I(F).
    """

    k: int
    r: int
    index_multiset: tuple     # sorted ((vector, count), ...)

    @property
    def size(self) -> int:
        """|F| as a multiset: k! times the multiset size of I(F)."""
        return math.factorial(self.k) * sum(c for _, c in self.index_multiset)

    def multiplicity(self, vector) -> int:
        """m_i: multiplicity of an index vector in I(F)."""
        return dict(self.index_multiset).get(tuple(vector), 0)

    def index_vectors(self) -> list:
        return [v for v, _ in self.index_multiset]

    def _prefixes(self, j: int):
        """(v, u) for each vector v of I(F) and each j-vector u <= v,
        coordinate by coordinate: u is the index vector of the first j
        coordinates of some ordering of a map realizing v."""
        for v, _ in self.index_multiset:
            for u in product(*(range(c + 1) for c in v)):
                if sum(u) == j:
                    yield v, u

    def prefix_indices(self, j: int) -> set:
        """Index vectors realizable by the first j coordinates of some f in F."""
        return {u for _, u in self._prefixes(j)}

    def steps(self, j: int) -> set:
        """The F-steps (u, p) at level j: u = i(f(1), ..., f(j)) and p = f(j+1)
        for some f in F, i.e. a j-prefix u of some v in I(F) with u_p < v_p."""
        return {(u, p) for v, u in self._prefixes(j) for p in range(self.r) if u[p] < v[p]}


def allocation_from_index_multiset(index_multiset, r=None) -> Allocation:
    """Build the allocation F from a multiset of k-vectors.

    Each vector v in I (with repetition) stands for the full k! permutation
    closure of a realizing map, so |F| = k! * |I| counted with multiplicity.
    """
    vectors = [tuple(v) for v in index_multiset]
    if not vectors:
        return Allocation(k=0, r=r or 0, index_multiset=())
    if r is None:
        r = len(vectors[0])
    k = sum(vectors[0])
    for v in vectors:
        if len(v) != r:
            raise NotAKVector(f"{v} has dimension {len(v)}, expected {r}")
        if any(c < 0 for c in v) or sum(v) != k:
            raise NotAKVector(f"{v} is not a {k}-vector")
    return Allocation(k=k, r=r, index_multiset=tuple(sorted(Counter(vectors).items())))


def plain_allocation(k) -> Allocation:
    """The r=1 allocation with I = {(k)}; every complex is PF-partite for it."""
    return allocation_from_index_multiset([(k,)])


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

    def per_index_counts(self, universe: VertexUniverse) -> Counter:
        return Counter(index_vector(e, universe) for e in self.edges)


def validate_matching(host, matching: Matching, cover=None) -> bool:
    """Exact validity check: edges in the host top level, pairwise disjoint,
    and covering exactly `cover` when given; the edges are read as one array
    of sorted rows, with one membership query."""
    k, edges = host.k, matching.edges
    if any(len(e) != k for e in edges):
        return False
    flat = [v for e in edges for v in sorted(e)]
    covered = set(flat)
    if len(covered) < len(flat):
        return False
    if flat and not (0 <= min(flat) and max(flat) < host.universe.total):
        return False
    rows = np.array(flat, np.int64).reshape(len(edges), k)
    return bool(host.has_top_rows(rows).all()) and (cover is None or covered == frozenset(cover))


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


def _level_vectors(system, i) -> list:
    """The distinct index vectors of level i."""
    uni = system.universe
    return compositions(system.level(i), np.array(uni._part_of, np.int64), uni.r)[1]


def is_pf_partite(system, alloc: Allocation) -> bool:
    """True iff every edge at every level realizes a prefix of some f in F."""
    uni = system.universe
    if alloc.size == 0:
        return all(len(system.level(i)) == 0 for i in range(1, system.k + 1))
    if alloc.r == uni.r == 1 and alloc.k >= system.k:
        return True  # every j-edge has index (j,), a prefix of (0, ..., 0)
    return all(
        alloc.prefix_indices(j).issuperset(_level_vectors(system, j))
        for j in range(1, system.k + 1)
    )


@dataclass
class DegreeSequenceReport:
    """Exact minimum degree sequences."""

    plain: tuple
    f_degree: tuple = None


def _extensions(system, j, lower, label) -> np.ndarray:
    """count[e, p]: how many (j+1)-edges of the system extend row e of
    `lower` (sorted j-edges, in lexicographic order) by a vertex of part p.
    Each face of the level above is found by binary search in the codes of
    `lower`; block t of face_codes(upper) leaves out column t, so the
    left-out vertices are the columns of upper in turn."""
    r, total = system.universe.r, system.universe.total
    upper = system.level(j + 1)
    at, found = _locate(face_codes(upper, total), row_codes(lower, total))
    added = label[upper.T.ravel()]
    count = np.bincount(at[found] * r + added[found], minlength=len(lower) * r)
    return count.reshape(-1, r)


def _least(counts) -> int:
    return int(counts.min()) if counts.size else 0


def degree_sequences(system, alloc: Allocation = None) -> DegreeSequenceReport:
    """Exact minimum degree sequences of a system, from one counting pass
    per level.

    plain entries are always computed; F-degrees are included when an
    allocation is given. (The partite degrees of a P-partite system are its
    F-degrees under the allocation of every injective 0/1 k-vector.)

    By convention a level with no edges contributes 0.
    """
    uni = system.universe
    # one part on both sides: every step of F adds a part-0 vertex to any
    # lower edge, so the F-degrees are the plain degrees
    one_part = alloc is not None and uni.r == alloc.r == 1 and alloc.k >= system.k
    label = np.array(uni._part_of, np.int64)
    plain, fdeg = [], []
    for j in range(system.k):
        lower = system.level(j)
        count = _extensions(system, j, lower, label)
        plain.append(_least(count.sum(1)))
        if alloc is None or one_part:
            continue
        vid, vectors = compositions(lower, label, uni.r)
        # (prefix index vector, part of the next coordinate) over F, with the
        # prefix read over the universe's parts
        pad = (0,) * (uni.r - alloc.r)
        steps = {(u[:uni.r] + pad, p) for u, p in alloc.steps(j)}
        allowed = np.array([[(v, p) in steps for p in range(uni.r)] for v in vectors], bool)
        # a step into a part outside the universe extends nothing
        stray = any(p >= uni.r and v in vectors for v, p in steps)
        fdeg.append(0 if stray else _least(count[allowed.reshape(-1, uni.r)[vid]]))
    if one_part:
        fdeg = plain
    return DegreeSequenceReport(
        plain=tuple(plain),
        f_degree=tuple(fdeg) if alloc is not None else None,
    )
