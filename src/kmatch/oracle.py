"""Ground-truth brute-force solvers and instance generators.

The solvers here are deliberately independent of the production code paths
they cross-check: the perfect-matching search is exhaustive backtracking with
bitmask memoization, and the fractional-feasibility oracle is a second,
self-contained dense-tableau simplex (fraction-free, in integers) with a
different pivot rule than the production solver.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import (
    CompleteComplex,
    KComplex,
    KSystem,
    Matching,
    VertexUniverse,
    build_complex,
    degree_sequences,
    index_vector,
)
from .errors import BadParams, TooLarge, Unsatisfiable
from .lattice import generate_lattice, lattice_contains

BRUTE_PM_CAP = 15
BRUTE_FRACTIONAL_CAP = 30
COMPLETE_EXPLICIT_LIMIT = 200_000  # top edges; larger complete complexes are implicit


def _top_edges(host):
    """The top edges as lists of sorted ids: a system's top rows, or the edges given."""
    return host.level(host.k).tolist() if hasattr(host, "level") else [sorted(e) for e in host]


def brute_force_pm(host, vertices=None, cap=BRUTE_PM_CAP):
    """Exact perfect-matching search by backtracking over the least-degree
    uncovered vertex, memoized on the uncovered bitmask.

    Returns a Matching, or None as a proof-by-exhaustion that none exists
    (in particular immediately when k does not divide the vertex count).
    """
    edges = _top_edges(host)
    if vertices is None:
        vertices = host.vertex_pool if hasattr(host, "vertex_pool") else {v for e in edges for v in e}
    vertices = sorted(vertices)
    nv = len(vertices)
    if nv > cap:
        raise TooLarge(f"{nv} vertices exceeds brute-force cap {cap}")
    if nv == 0:
        return Matching.from_edges([])
    k = len(edges[0]) if edges else 0
    if k == 0 or nv % k != 0:
        return None
    pos = {v: i for i, v in enumerate(vertices)}
    pool = set(vertices)
    usable = []
    for e in edges:
        if pool.issuperset(e):
            m = 0
            for v in e:
                m |= 1 << pos[v]
            usable.append((m, e))
    incident = [[] for _ in range(nv)]
    for m, e in usable:
        for v in e:
            incident[pos[v]].append((m, e))
    full = (1 << nv) - 1
    memo = {}
    chosen = []

    def solve(remaining):
        if remaining == 0:
            return True
        cached = memo.get(remaining)
        if cached is not None:
            return False  # only failures are memoized; successes return early
        best_v, best_opts = None, None
        r = remaining
        while r:
            low = r & -r
            i = low.bit_length() - 1
            opts = [(m, e) for m, e in incident[i] if m & remaining == m]
            if not opts:
                memo[remaining] = False
                return False
            if best_opts is None or len(opts) < len(best_opts):
                best_v, best_opts = i, opts
                if len(opts) == 1:
                    break
            r ^= low
        for m, e in best_opts:
            chosen.append(e)
            if solve(remaining & ~m):
                return True
            chosen.pop()
        memo[remaining] = False
        return False

    if solve(full):
        return Matching.from_edges(chosen)
    return None


# --- independent dense-tableau feasibility oracle ---------------------------

def _bareiss(row, prow, p, f, d):
    """(p*a - f*q) // d for each entry a of a row and q of the pivot row. The
    division is exact (Bareiss); floor remainders are never negative, so the
    sums agree only when all of them are zero."""
    if not f and p == d:
        return row
    new = [p * a - f * q for a, q in zip(row, prow)]
    out = [x // d for x in new]
    if sum(new) != d * sum(out):
        raise ArithmeticError("inexact fraction-free division")
    return out


def _dense_phase1(columns, b):
    """Phase-1 simplex on equality constraints Ax = b, x >= 0, on a dense
    fraction-free (Edmonds-Bareiss) integer tableau.

    Every row (right-hand side last) and the cost row (objective last) share
    one denominator d, the previous pivot: the tableau is T / d. A pivot on
    p = T[r][s] rewrites each other row by _bareiss, f its entry in column s,
    and d becomes p. Input with fractions is first scaled by one common lcm.

    Entering rule: most negative reduced cost, leftmost on ties; leaving rule:
    smallest ratio (cross-multiplied) with the highest-index basic variable on
    ties (a fixed total order, so the rule is Bland-style and cannot cycle).
    Returns (feasible, solution list).
    """
    m, ncols = len(b), len(columns)
    total = ncols + m
    b = [Fraction(x) for x in b]
    columns = [{i: Fraction(a) for i, a in col.items()} for col in columns]
    scale = math.lcm(*(a.denominator for col in columns for a in col.values()),
                     *(x.denominator for x in b))
    tab = []
    for i in range(m):
        sign = -scale if b[i] < 0 else scale
        tab.append([int(col.get(i, 0) * sign) for col in columns]
                   + [int(t == i) for t in range(m)] + [int(b[i] * sign)])
    # reduced phase-1 costs: 1 on artificials minus the column sums; last, -sum(b)
    cost = [int(ncols <= j < total) - sum(col) for j, col in enumerate(zip(*tab))]
    basis = list(range(ncols, total))
    d = 1
    while True:
        enter = min(range(total), key=cost.__getitem__)
        if cost[enter] >= 0:
            break
        rows = [i for i in range(m) if tab[i][enter] > 0]
        if not rows:
            raise ArithmeticError("phase-1 objective unbounded; constraints corrupt")
        leave = rows[0]
        for i in rows[1:]:
            mine, best = tab[i][-1] * tab[leave][enter], tab[leave][-1] * tab[i][enter]
            if mine < best or (mine == best and basis[i] > basis[leave]):
                leave = i
        prow, p = tab[leave], tab[leave][enter]
        tab = [row if i == leave else _bareiss(row, prow, p, row[enter], d)
               for i, row in enumerate(tab)]
        cost = _bareiss(cost, prow, p, cost[enter], d)
        basis[leave], d = enter, p

    value = {var: Fraction(row[-1], d) for var, row in zip(basis, tab)} if cost[-1] == 0 else {}
    return cost[-1] == 0, [value.get(j, Fraction(0)) for j in range(ncols)]


def brute_force_fractional(host, cap=BRUTE_FRACTIONAL_CAP, with_solution=False):
    """Independent exact feasibility verdict for perfect fractional matchings.

    Builds the vertex-sum system from scratch and solves it with the naive
    dense simplex above; exists purely to cross-check the production solver.
    """
    edges = _top_edges(host)
    vertices = sorted(host.vertex_pool if hasattr(host, "vertex_pool") else {v for e in edges for v in e})
    if len(vertices) > cap:
        raise TooLarge(f"{len(vertices)} vertices exceeds fractional cap {cap}")
    if not edges:
        return (False, None) if with_solution else False
    pos = {v: i for i, v in enumerate(vertices)}
    columns = []
    for e in edges:
        columns.append({pos[v]: Fraction(1) for v in e})
    b = [Fraction(1)] * len(vertices)
    feasible, sol = _dense_phase1(columns, b)
    if not with_solution:
        return feasible
    weights = {tuple(e): w for e, w in zip(edges, sol) if w != 0} if feasible else None
    return feasible, weights


# --- instance generators -----------------------------------------------------

def gen_space_barrier(n, k, j, s_size, r=1) -> KComplex:
    """The space-barrier complex: i-edges are the i-sets carrying at most j
    vertices of a planted set S (first s_size ids of each part)."""
    if not (1 <= j <= k - 1):
        raise BadParams(f"j={j} outside [1, k-1]")
    if not (0 <= s_size <= n):
        raise BadParams(f"|S| = {s_size} outside [0, n]")
    uni = VertexUniverse.single(n) if r == 1 else VertexUniverse.equipartition(r, n)
    planted = set()
    for part in range(uni.r):
        verts = list(uni.part_vertices(part))
        planted.update(verts[:s_size])
    levels = {}
    allv = list(uni.vertices())
    for i in range(1, k + 1):
        levels[i] = [
            e for e in combinations(allv, i) if sum(1 for v in e if v in planted) <= j
        ]
    cx = KComplex(uni, k, levels)
    cx.planted_set = frozenset(planted)
    return cx


def gen_divisibility_barrier(part_sizes, k, lattice_generators) -> KSystem:
    """The divisibility-barrier k-graph: edges are the k-sets whose index
    vector lies in the lattice spanned by the given generators."""
    part_sizes = tuple(int(s) for s in part_sizes)
    gens = [tuple(v) for v in lattice_generators]
    for g in gens:
        if len(g) != len(part_sizes):
            raise BadParams(f"generator {g} does not match {len(part_sizes)} parts")
    labels = tuple(chr(ord("A") + i) for i in range(len(part_sizes)))
    uni = VertexUniverse(labels, part_sizes)
    lat = generate_lattice(gens, len(part_sizes))
    edges = []
    for e in combinations(list(uni.vertices()), k):
        if lattice_contains(lat, index_vector(e, uni)):
            edges.append(e)
    return KSystem(uni, k, {k: edges})


def complete_complex(n, k, r=1):
    """Complete k-complex on r parts of size n; implicit above the size limit."""
    uni = VertexUniverse.single(n) if r == 1 else VertexUniverse.equipartition(r, n)
    if math.comb(uni.total, k) > COMPLETE_EXPLICIT_LIMIT:
        return CompleteComplex(uni, k)
    allv = list(uni.vertices())
    levels = {i: list(combinations(allv, i)) for i in range(1, k + 1)}
    return KComplex(uni, k, levels)


def _floor_ok(plain, floor):
    return all(d >= f for d, f in zip(plain, floor))


def gen_random_dense(
    n,
    k,
    r=1,
    p=None,
    degree_floor=None,
    seed=0,
    max_tries=40,
    allocation=None,
):
    """Random dense complex: sample top k-edges, close downward, and retry
    until the requested plain degree floor holds. Reports the achieved
    degrees on the returned complex (attribute `achieved_degrees`)."""
    if p is None and degree_floor is None:
        raise BadParams("need a density p or a degree floor")
    if p is not None and not (0 <= p <= 1):
        raise BadParams(f"p={p} outside [0, 1]")
    uni = VertexUniverse.single(n) if r == 1 else VertexUniverse.equipartition(r, n)
    rng = random.Random(seed)
    allv = list(uni.vertices())
    allowed = None
    if allocation is not None:
        allowed = set(allocation.index_vectors())
    prob = 1.0 if p is None else p
    for _ in range(max_tries):
        top = []
        for e in combinations(allv, k):
            if allowed is not None and index_vector(e, uni) not in allowed:
                continue
            if prob >= 1.0 or rng.random() < prob:
                top.append(e)
        if not top and degree_floor is not None:
            continue
        cx = build_complex({k: top}, uni, k=k, close=True)
        plain = degree_sequences(cx).plain
        if degree_floor is None or _floor_ok(plain, degree_floor):
            cx.achieved_degrees = plain
            return cx
    raise Unsatisfiable(
        f"no instance met the degree floor {degree_floor} in {max_tries} tries"
    )


def _has_shape(value, shape: str) -> bool:
    """JSON value check: shape is "int", "number", or "[shape]" for a list."""
    if shape.startswith("["):
        return isinstance(value, list) and all(_has_shape(v, shape[1:-1]) for v in value)
    return type(value) is int or (shape == "number" and type(value) is float)


@dataclass
class GenSpec:
    """JSON-serializable description of a generator invocation."""

    kind: str
    n: int = 0
    k: int = 3
    r: int = 1
    seed: int = 0
    params: dict = field(default_factory=dict)

    KINDS = ("space-barrier", "divisibility", "random-dense", "complete", "partite-random")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise BadParams(f"unknown generator kind {self.kind!r}")
        for name in ("n", "k", "r", "seed"):
            value = getattr(self, name)
            if type(value) is not int or (value < 1 and name in ("k", "r")):
                raise BadParams(f"{name} must be an integer (k and r at least 1), got {value!r}")
        if not isinstance(self.params, dict):
            raise BadParams(f"params must be a JSON object, got {self.params!r}")

    def _param(self, name, shape, *default):
        """params[name] checked against a shape (_has_shape); default[0] when absent."""
        if name not in self.params:
            if default:
                return default[0]
            raise BadParams(f"a {self.kind} spec needs params.{name}")
        if not _has_shape(self.params[name], shape):
            raise BadParams(f"params.{name} must be {shape}, got {self.params[name]!r}")
        return self.params[name]

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "kind" not in data:
            raise BadParams("a generator spec must be a JSON object with a kind")
        return cls(
            kind=data["kind"],
            n=data.get("n", 0),
            k=data.get("k", 3),
            r=data.get("r", 1),
            seed=data.get("seed", 0),
            params=data.get("params", {}),
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "r": self.r,
            "seed": self.seed,
            "params": self.params,
        }

    def generate(self):
        param = self._param
        if self.kind == "space-barrier":
            j, s_size = param("j", "int", 1), param("s_size", "int")
            return gen_space_barrier(self.n, self.k, j, s_size, r=self.r)
        if self.kind == "divisibility":
            return gen_divisibility_barrier(
                param("part_sizes", "[int]"), self.k, param("lattice_generators", "[[int]]")
            )
        if self.kind == "complete":
            return complete_complex(self.n, self.k, r=self.r)
        if self.kind in ("random-dense", "partite-random"):
            allocation = None
            if self.kind == "partite-random":
                from .core import allocation_from_index_multiset

                allocation = allocation_from_index_multiset(
                    [tuple(v) for v in param("index_multiset", "[[int]]")]
                )
            floor = param("degree_floor", "[int]", None)
            return gen_random_dense(
                self.n,
                self.k,
                r=self.r,
                p=param("p", "number", None),
                degree_floor=None if floor is None else tuple(floor),
                seed=self.seed,
                allocation=allocation,
            )
        raise BadParams(f"unhandled kind {self.kind}")
