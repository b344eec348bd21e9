"""Integer lattices of index vectors: canonical bases, membership, completeness,
transferrals, and coefficient-bounded decompositions.

All arithmetic is exact over Python ints; dimensions are tiny (r <= ~12), so
membership goes through a canonical triangular (Hermite-form) basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .core import VertexUniverse, compositions
from .errors import (
    BadVertex,
    BoundTooSmall,
    DimensionMismatch,
    NotInLattice,
)


def sum_vectors(total: int, dim: int) -> list:
    """All nonnegative integer vectors of a given coordinate sum (s-vectors)."""
    if dim == 0:
        return [()] if total == 0 else []
    if dim == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in sum_vectors(total - first, dim - 1):
            out.append((first,) + rest)
    return out


def hermite_basis(generators) -> list:
    """Canonical row-echelon integer basis of the lattice spanned by generators.

    Rows have positive pivots at strictly increasing columns, entries above a
    pivot reduced into [0, pivot). This form is unique per lattice, so equal
    lattices yield identical bases.
    """
    rows = [list(g) for g in generators if any(g)]
    if not rows:
        return []
    dim = len(rows[0])
    basis = []
    col = 0
    while col < dim and rows:
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            rows = rest
            col += 1
            continue
        # euclidean elimination in this column until one row survives
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            new_live = [piv]
            for r in live[1:]:
                q = r[col] // piv[col]
                reduced = [a - q * b for a, b in zip(r, piv)]
                if reduced[col] != 0:
                    new_live.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            live = new_live
        piv = live[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        basis.append(piv)
        rows = rest
        col += 1
    # reduce entries above each pivot for canonicity
    for i in range(len(basis) - 1, -1, -1):
        pcol = next(j for j, a in enumerate(basis[i]) if a != 0)
        for t in range(i):
            q = basis[t][pcol] // basis[i][pcol]
            if q:
                basis[t] = [a - q * b for a, b in zip(basis[t], basis[i])]
    return [tuple(r) for r in basis]


@dataclass(frozen=True)
class IndexLattice:
    """Lattice generated by k-vectors, with its canonical triangular basis."""

    dimension: int
    generators: tuple
    basis: tuple

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "generators": [list(g) for g in self.generators],
            "basis": [list(b) for b in self.basis],
        }

    @classmethod
    def from_json(cls, data) -> "IndexLattice":
        return cls(
            dimension=data["dimension"],
            generators=tuple(tuple(g) for g in data["generators"]),
            basis=tuple(tuple(b) for b in data["basis"]),
        )


def generate_lattice(vectors, dimension=None) -> IndexLattice:
    """Lattice (additive subgroup) generated by the given vectors."""
    vecs = [tuple(v) for v in vectors]
    if dimension is None:
        if not vecs:
            raise DimensionMismatch("dimension required for an empty generator set")
        dimension = len(vecs[0])
    if any(len(v) != dimension for v in vecs):
        raise DimensionMismatch("generators of mixed dimension")
    return IndexLattice(
        dimension=dimension,
        generators=tuple(sorted(set(vecs))),
        basis=tuple(hermite_basis(vecs)),
    )


def lattice_contains(lattice: IndexLattice, vector) -> bool:
    """Exact membership via reduction against the triangular basis."""
    v = list(vector)
    if len(v) != lattice.dimension:
        raise DimensionMismatch(
            f"vector dimension {len(v)} != lattice dimension {lattice.dimension}"
        )
    for row in lattice.basis:
        pcol = next(j for j, a in enumerate(row) if a != 0)
        if v[pcol] % row[pcol] != 0:
            return False
        q = v[pcol] // row[pcol]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def k_vectors(k: int, dim: int, groups=None) -> list:
    """The k-vectors a lattice must contain to be complete.

    Plain mode (groups None): every nonnegative k-vector of the dimension.
    Partite mode: groups[j] names the ambient part containing refined part j,
    and the k-vectors are the 0/1 ones whose k units lie in distinct ambient
    parts (the refinement-compatible partite k-vectors).
    """
    if groups is None:
        return sum_vectors(k, dim)
    if len(groups) != dim:
        raise DimensionMismatch("groups length != lattice dimension")
    return [tuple(int(j in support) for j in range(dim))
            for support in combinations(range(dim), k)
            if len({groups[j] for j in support}) == k]


def is_complete(lattice: IndexLattice, k: int, groups=None) -> bool:
    """Does the lattice contain every k-vector of k_vectors(k, dim, groups)?"""
    return all(lattice_contains(lattice, t) for t in k_vectors(k, lattice.dimension, groups))


def find_transferral(lattice: IndexLattice, groups=None):
    """Some (i, j) with u_i - u_j in the lattice, or None.

    In partite mode only pairs inside the same ambient part count (a
    transferral must move a vertex within one original part).
    """
    dim = lattice.dimension
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            if groups is not None and groups[i] != groups[j]:
                continue
            probe = [0] * dim
            probe[i] = 1
            probe[j] = -1
            if lattice_contains(lattice, probe):
                return (i, j)
    return None


@dataclass(frozen=True)
class Decomposition:
    """Integer combination of generator vectors hitting a target, with a bound."""

    target: tuple
    coefficients: tuple   # ((vector, coefficient), ...), nonzero entries only
    bound: int

    @property
    def positive_part(self) -> dict:
        """b_v: positive coefficients (the k-sets produced)."""
        return {v: c for v, c in self.coefficients if c > 0}

    @property
    def negative_part(self) -> dict:
        """c_v: negated negative coefficients (the reserve edges consumed)."""
        return {v: -c for v, c in self.coefficients if c < 0}

    def evaluate(self) -> tuple:
        dim = len(self.target)
        acc = [0] * dim
        for v, c in self.coefficients:
            for j in range(dim):
                acc[j] += c * v[j]
        return tuple(acc)


def bounded_decompose(target, vectors, bound: int) -> Decomposition:
    """Find integer coefficients a_v with max |a_v| <= bound and sum a_v v = target.

    Raises NotInLattice when the target is outside the generated lattice and
    BoundTooSmall when membership holds but no witness fits the bound (the
    caller may retry with a larger bound).
    """
    vecs = sorted(set(tuple(v) for v in vectors))
    target = tuple(target)
    if not vecs:
        if any(target):
            raise NotInLattice(f"{target} not in the zero lattice")
        return Decomposition(target=target, coefficients=(), bound=bound)
    dim = len(target)
    if any(len(v) != dim for v in vecs):
        raise DimensionMismatch("target/generator dimension mismatch")
    if not lattice_contains(generate_lattice(vecs, dim), target):
        raise NotInLattice(f"{target} not in lattice of {vecs}")

    # DFS over coefficients with per-coordinate interval pruning
    neg_reach = [[0] * dim for _ in range(len(vecs) + 1)]
    pos_reach = [[0] * dim for _ in range(len(vecs) + 1)]
    for t in range(len(vecs) - 1, -1, -1):
        for j in range(dim):
            lo = min(-bound * vecs[t][j], bound * vecs[t][j])
            hi = max(-bound * vecs[t][j], bound * vecs[t][j])
            neg_reach[t][j] = neg_reach[t + 1][j] + lo
            pos_reach[t][j] = pos_reach[t + 1][j] + hi

    coeffs = [0] * len(vecs)

    def search(t, residual):
        if t == len(vecs):
            return not any(residual)
        for j in range(dim):
            if not (neg_reach[t][j] <= residual[j] <= pos_reach[t][j]):
                return False
        vec = vecs[t]
        for c in range(-bound, bound + 1):
            coeffs[t] = c
            nxt = [residual[j] - c * vec[j] for j in range(dim)]
            if search(t + 1, nxt):
                return True
        coeffs[t] = 0
        return False

    if not search(0, list(target)):
        raise BoundTooSmall(f"no decomposition of {target} within |a| <= {bound}")
    pairs = tuple((v, c) for v, c in zip(vecs, coeffs) if c != 0)
    return Decomposition(target=target, coefficients=pairs, bound=bound)


def minimal_decomposition_bound(target, vectors, cap=30) -> Decomposition:
    """The decomposition at the smallest bound admitting one (its `bound`),
    by iterative deepening."""
    for c in range(cap + 1):
        try:
            return bounded_decompose(target, vectors, c)
        except BoundTooSmall:
            continue
    raise BoundTooSmall(f"no decomposition of {target} within |a| <= {cap}")


@dataclass(frozen=True)
class RobustVectorSet:
    """Index vectors supported by at least mu * |V|^k edges, with exact counts."""

    mu: Fraction
    threshold: Fraction
    counts: tuple          # ((vector, exact count), ...) for robust vectors only

    def vectors(self) -> list:
        return [v for v, _ in self.counts]


def as_fraction(x) -> Fraction:
    """Exact threshold arithmetic; floats go through their decimal repr."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def robust_threshold(mu, n, k) -> Fraction:
    """mu * n^k, exact: the least edge count of a robust index vector of
    k-edges on n vertices."""
    return as_fraction(mu) * Fraction(n) ** k


def robust_edge_vectors(edges, partition, mu) -> RobustVectorSet:
    """Index vectors realized by at least mu * |V|^k edges.

    `edges` are k-sets, as tuples or int rows; `partition` is either a
    VertexUniverse or an ordered sequence of vertex sets; counts are exact
    and the threshold comparison is exact rational.
    """
    parts = partition.parts() if isinstance(partition, VertexUniverse) else list(partition)
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    k = len(edges[0]) if len(edges) else 0
    rows = np.asarray(edges, np.int64).reshape(len(edges), k)
    # label[v] is the part of vertex v, -1 when v lies in no part
    label = np.full(1 + max([rows.max(initial=0), *map(max, filter(None, parts))]), -1)
    for j, p in enumerate(parts):
        label[list(p)] = j
    if rows.min(initial=0) < 0 or (label[rows] < 0).any():
        raise BadVertex("an edge vertex lies in no part")
    vid, vectors = compositions(rows, label, len(parts))
    threshold = robust_threshold(mu, sum(map(len, parts)), k)
    counts = zip(vectors, np.bincount(vid, minlength=len(vectors)).tolist())
    return RobustVectorSet(mu=as_fraction(mu), threshold=threshold,
                           counts=tuple((v, c) for v, c in counts if c >= threshold))
