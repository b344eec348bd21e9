"""F-balanced perfect fractional matchings by exact LP feasibility, and the
weight-disjoint multi-extraction loop.

All weights are Fractions and every verification is exact; an approximate
solution would poison the downstream rounding and absorbing checks.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .core import Allocation, compositions, edge_key, index_vector
from .errors import BadParams, EmptyTopLevel, UnknownEdge
from .simplex import solve_equality_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)
LP_COLUMN_CAP = 250_000  # a round with more live edges ends extraction instead of an LP


@dataclass
class FractionalMatching:
    """Edge -> rational weight map with exact vertex sums of 1."""

    host: object
    weights: dict


@dataclass
class LPModel:
    """Feasibility model: one nonnegative variable per k-edge, exact rows."""

    host: object
    _rows: np.ndarray                # the k-edges as sorted int rows, in column order
    csc: tuple                       # integer CSC (ptr, rows, vals, scale), see simplex
    b: list
    balance_pairs: list              # [(index_vec, index_vec'), ...] in row order

    @property
    def edges(self) -> list:
        return list(map(tuple, self._rows.tolist()))

    @property
    def row_names(self) -> list:
        return [f"v{v}" for v in sorted(self.host.vertex_pool)] + [
            f"bal_{'_'.join(map(str, va))}__{'_'.join(map(str, vb))}" for va, vb in self.balance_pairs]

    @property
    def num_rows(self) -> int:
        return len(self.b)

    @property
    def num_cols(self) -> int:
        return len(self._rows)

    @property
    def columns(self) -> list:
        """The sparse columns [(row, coef), ...], read off csc: ints on vertex
        rows, Fractions on balance rows."""
        ptr, rows, vals, scale = (x.tolist() for x in self.csc)
        nv = self.num_rows - len(self.balance_pairs)
        return [[(i, a // s if i < nv else Fraction(a, s)) for i, a in zip(rows[p:q], vals[p:q])]
                for p, q, s in zip(ptr, ptr[1:], scale)]


def build_lp(system, alloc: Allocation) -> LPModel:
    """LP for an F-balanced perfect fractional matching.

    Rows: one vertex-sum equality per vertex; one balance equality per
    consecutive pair of distinct index vectors of I(F) (the common normalized
    value is left free rather than pinned, since pinning it is ambiguous).
    Column j, the j-th top edge in sorted order, reads 1 on its vertex rows
    and +-1/m on balance rows (m the multiplicity of its index vector), and
    is stored times scale[j] = m. An explicit host's columns are read off its
    edge table, an implicit host's off the rows of its top level.
    """
    if system.top_count() == 0:
        raise EmptyTopLevel("system has no top-level edges")
    if not system.implicit:
        E, _, _, vid, vectors = system.edge_table()
        return _lp_model(system, alloc, E, vid, vectors)
    uni, E = system.universe, system.level(system.k)
    vid, vectors = compositions(E, np.array(uni._part_of, dtype=np.int64), uni.r)
    return _lp_model(system, alloc, E, vid, vectors)


def _lp_model(host, alloc: Allocation, E, vid, host_vectors) -> LPModel:
    """The model of build_lp on the top edges of host given as sorted table
    rows E, in column order: edge i has index vector host_vectors[vid[i]]."""
    k = host.k
    pool = sorted(host.vertex_pool)
    nrows = len(pool)
    vectors = alloc.index_vectors()
    balance_pairs = list(zip(vectors, vectors[1:]))
    # per column: its k vertex rows, then balance rows t - 1 (-1/m) and t
    # (+1/m) where they exist, t the position of its index vector in I(F)
    t_of = {vec: t for t, vec in enumerate(vectors)}
    pos = np.array([t_of.get(vec, -1) for vec in host_vectors], dtype=np.int64)[vid]
    mult = np.array([alloc.multiplicity(vec) for vec in host_vectors], dtype=np.int64)[vid]
    vertex_row = np.zeros(host.universe.total, dtype=np.int64)
    vertex_row[pool] = np.arange(nrows, dtype=np.int64)
    R = np.column_stack([vertex_row[E], nrows + pos - 1, nrows + pos])
    keep = np.column_stack([np.ones_like(E, bool), pos >= 1, (pos >= 0) & (pos + 1 < len(vectors))])
    scale = np.where(keep[:, k:].any(1), mult, 1)
    V = np.column_stack([np.repeat(scale[:, None], k, 1), np.full((len(E), 2), [-1, 1], np.int64)])
    ptr = np.concatenate([[0], np.cumsum(keep.sum(1))]).astype(np.int64)
    b = [1] * nrows + [0] * len(balance_pairs)
    return LPModel(
        host=host,
        _rows=E,
        csc=(ptr, R[keep].astype(np.intp), V[keep].astype(np.int64), scale.astype(np.int64)),
        b=b,
        balance_pairs=balance_pairs,
    )


def dump_lp(model: LPModel) -> str:
    """Model text in LP format, for cross-checking with external solvers."""
    lines = ["Minimize", " obj: 0", "Subject To"]
    rows = [[] for _ in range(model.num_rows)]
    for j, col in enumerate(model.columns):
        for i, a in col:
            rows[i].append((j, a))
    for i, terms in enumerate(rows):
        parts = []
        for j, a in terms:
            if a == 1:
                parts.append(f"+ g{j}")
            elif a == -1:
                parts.append(f"- g{j}")
            elif a > 0:
                parts.append(f"+ {a} g{j}")
            else:
                parts.append(f"- {-a} g{j}")
        expr = " ".join(parts) if parts else "0 g0"
        lines.append(f" {model.row_names[i]}: {expr} = {model.b[i]}")
    lines.append("Bounds")
    for j in range(model.num_cols):
        lines.append(f" 0 <= g{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def solve_feasible(model: LPModel):
    """Exact feasible point of the model, or None when infeasible (the solver
    has then checked a Farkas certificate exactly)."""
    res = solve_equality_feasibility(model.csc, model.b)
    if not res.feasible:
        return None
    weights = dict(zip(map(tuple, model._rows[list(res.solution)].tolist()), res.solution.values()))
    return FractionalMatching(host=model.host, weights=weights)


def verify_fractional(system, frac: FractionalMatching, alloc: Allocation = None) -> dict:
    """Exact residual report: vertex sums, balance residuals, support size.
    The sums are taken in ints over the weights' common denominator."""
    uni, k, edges = system.universe, system.k, list(frac.weights)
    # one membership call on the sorted rows; a row of the wrong width reads -1
    rows = np.sort(np.array([e if len(e) == k else (-1,) * k for e in edges], np.int64).reshape(-1, k))
    known = (rows[:, 0] >= 0) & (rows[:, -1] < uni.total) & system.has_top_rows(rows)
    if not known.all():
        raise UnknownEdge(f"edge {edges[known.argmin()]} not in the host top level")
    den = math.lcm(*(w.denominator for w in frac.weights.values()))
    sums = dict.fromkeys(sorted(system.vertex_pool), 0)
    per_index = Counter()
    for e, w in frac.weights.items():
        num = w.numerator * (den // w.denominator)
        for v in e:
            sums[v] += num
        if alloc is not None:
            per_index[index_vector(e, uni)] += num
    vertex_residuals = {v: Fraction(s - den, den) for v, s in sums.items()}
    balance_residuals = {}
    if alloc is not None:
        vectors = alloc.index_vectors()
        normalized = {vec: Fraction(per_index[vec], den * alloc.multiplicity(vec)) for vec in vectors}
        for t in range(len(vectors) - 1):
            a, bvec = vectors[t], vectors[t + 1]
            balance_residuals[(a, bvec)] = normalized[a] - normalized[bvec]
    ok = all(r == 0 for r in vertex_residuals.values()) and all(
        r == 0 for r in balance_residuals.values()
    )
    return {
        "ok": ok,
        "vertex_residuals": vertex_residuals,
        "max_vertex_residual": max(
            (abs(r) for r in vertex_residuals.values()), default=ZERO
        ),
        "balance_residuals": balance_residuals,
        "support": len(frac.weights),
    }


# --- weight-disjoint extraction ----------------------------------------------

def edge_pairs(e):
    return [(u, v) if u < v else (v, u) for u, v in combinations(e, 2)]


class PairWeights:
    """Residual pair capacities for the extraction loop; everything starts at 2.

    `w` holds the exact residuals: ints until an LP round charges Fractions.
    A pair joins `dead` when its residual drops below 1 and never leaves, since
    residuals only fall; `died` lists the dead pairs in that order, and `at`
    counts the dead pairs at each vertex."""

    def __init__(self):
        self.w = {}
        self.dead = set()
        self.died = []
        self.at = Counter()
        self._masks = {}  # id(edge table) -> [table, alive mask, pairs applied, pair index]

    def charge(self, pair, amount):
        left = self.w[pair] = self.w.get(pair, 2) - amount
        if left < 1 and pair not in self.dead:
            self.dead.add(pair)
            self.died.append(pair)
            self.at.update(pair)

    def edge_alive(self, e) -> bool:
        """Every pair of the sorted edge e still has residual at least 1."""
        return self.dead.isdisjoint(combinations(e, 2))

    def min_weight(self):
        return min(self.w.values(), default=2)

    def dead_pairs_at(self) -> dict:
        """vertex -> number of incident pairs that fell below 1."""
        return dict(self.at)


def _alive(table, pairs: PairWeights, total) -> np.ndarray:
    """Per row of the table's row-sorted edge array E: do all its pairs still
    have residual >= 1? One mask per table, kept on `pairs`, which clears
    the rows of each pair that died since the last call; callers must not
    mutate it."""
    entry = pairs._masks.get(id(table))
    if entry is None:
        entry = pairs._masks[id(table)] = [table, np.ones(len(table.E), dtype=bool), 0, None]
    _, alive, applied, index = entry
    if applied < len(pairs.died):
        E = table.E
        if index is None:  # the pair codes u * total + v of all rows, sorted
            a, b = np.triu_indices(E.shape[1], 1)  # the column pairs, as combinations gives them
            codes = (E[:, a] * total + E[:, b]).ravel()
            order = np.argsort(codes.astype(np.uint16) if total * total <= 1 << 16 else codes, kind="stable")
            index = entry[3] = codes[order], order // len(a)
        codes, rows = index
        new = np.array(pairs.died[applied:], dtype=np.int64).reshape(-1, 2) @ [total, 1]
        lo, hi = np.searchsorted(codes, new), np.searchsorted(codes, new, side="right")
        span = hi - lo
        alive[rows[np.repeat(lo - np.cumsum(span) + span, span) + np.arange(span.sum())]] = False
        entry[2] = len(pairs.died)
    return alive


def _index_quotas(alloc, total, k):
    """Index vector -> its edges in an F-balanced perfect matching of total
    vertices, total * m_i / (k * |I(F)|); None when one is not an integer."""
    mult = dict(alloc.index_multiset)
    size = k * sum(mult.values())
    if any(total * m % size for m in mult.values()):
        return None
    return {vec: total * m // size for vec, m in mult.items()}


def _greedy_integer_pm(system, alloc, pairs: PairWeights, rng, tries=60):
    """Random greedy F-balanced perfect matching on the pair-pruned system.

    A fast path past the LP: an indicator vector of a perfect matching with
    exact per-index quotas is a feasible LP point. Each step draws a free
    vertex, then one of its live edges that fits the free vertices and a quota.
    On an explicit host one candidate mask per try holds the live edges with
    quota left and no covered vertex: a step reads the drawn vertex's
    incidence through it and clears the incidences of the k vertices it
    covers, and the edges of a vector whose quota runs out.
    Returns a list of edges or None; failure here proves nothing.
    """
    pool, k = system.vertex_pool, system.k
    total = len(pool)
    if total % k or total == 0:
        return None
    quotas = _index_quotas(alloc, total, k)
    if quotas is None:
        return None
    if system.implicit:
        return _greedy_implicit(system, quotas, pairs, rng, tries)

    table = system.edge_table()
    E, ptr, ids, vid, vectors = table
    quota = [quotas.get(vec, 0) for vec in vectors]
    base = _alive(table, pairs, system.universe.total) & (np.array(quota, dtype=np.int64)[vid] > 0)
    span = [ids[p:q] for p, q in zip(ptr.tolist(), ptr[1:].tolist())]
    for _ in range(tries):
        ok, need, free, chosen = base.copy(), list(quota), sorted(pool), []
        while free:
            inc = span[rng.choice(free)]
            cands = inc[ok[inc]]
            if not len(cands):
                break
            e = int(cands[rng.randrange(len(cands))])
            edge = E[e].tolist()
            chosen.append(tuple(edge))
            c = vid[e]
            need[c] -= 1
            if not need[c]:
                ok &= vid != c
            for u in edge:
                ok[span[u]] = False
                free.remove(u)
        else:
            return chosen
    return None


def _greedy_implicit(system, quotas, pairs: PairWeights, rng, tries):
    """The greedy on an implicit host, which has no edge table: up to 40 draws a step."""
    uni, k = system.universe, system.k
    for _ in range(tries):
        free, need, chosen = set(system.vertex_pool), dict(quotas), []
        while free:
            v = rng.choice(sorted(free))
            cands = []
            others = sorted(free - {v})
            for _ in range(40 if len(others) >= k - 1 else 0):
                e = edge_key([v] + rng.sample(others, k - 1))
                vec = index_vector(e, uni)
                if system.has_top(e) and need.get(vec, 0) > 0 and pairs.edge_alive(e):
                    cands.append(e)
                    break
            if not cands:
                break
            e = cands[rng.randrange(len(cands))]
            chosen.append(e)
            need[index_vector(e, uni)] -= 1
            free.difference_update(e)
        else:
            return chosen
    return None


@dataclass
class ExtractionResult:
    matchings: list
    pair_weights: PairWeights
    completed: bool
    requested: int
    diagnostics: dict = field(default_factory=dict)


def extract_weight_disjoint(
    system,
    alloc: Allocation,
    ell: int,
    seed: int = 0,
) -> ExtractionResult:
    """Extract up to ell perfect fractional matchings whose pair loads sum to
    at most 2 on every vertex pair.

    Each round first tries a random greedy F-balanced perfect matching on the
    live edges (edges supported on pairs with residual weight >= 1). When that
    misses, an explicit host solves exact LP feasibility on the live rows of
    its edge table (at most LP_COLUMN_CAP columns); an implicit host has no
    LP fallback and stops. The chosen weights are then charged to the pairs. Residuals stay
    >= 0 by construction: an edge is only usable while all its pairs have
    residual >= 1, and one round charges a pair at most 1. Stops early with
    the completed prefix when a round is infeasible.
    """
    if ell < 0:
        raise BadParams(f"ell must be nonnegative, got {ell}")
    rng = random.Random(seed)
    pairs = PairWeights()
    out = []
    diag = {"rounds": [], "greedy_hits": 0, "lp_solves": 0}
    for rnd in range(ell):
        greedy = _greedy_integer_pm(system, alloc, pairs, rng)
        frac = None
        if greedy is not None:
            frac = FractionalMatching(host=system, weights=dict.fromkeys(greedy, ONE))
            diag["greedy_hits"] += 1
        else:
            if system.implicit:
                diag["rounds"].append({"round": rnd, "status": "implicit-host-no-greedy"})
                break
            table = system.edge_table()
            live = np.flatnonzero(_alive(table, pairs, system.universe.total))
            if not 0 < len(live) <= LP_COLUMN_CAP:
                diag["rounds"].append({"round": rnd, "status": "empty-or-oversized", "columns": len(live)})
                break
            diag["lp_solves"] += 1
            frac = solve_feasible(_lp_model(system, alloc, table.E[live], table.vid[live], table.vectors))
        if frac is None:
            diag["rounds"].append({"round": rnd, "status": "infeasible"})
            break
        for e, w in frac.weights.items():
            w = 1 if greedy is not None else w  # integral rounds stay in ints
            for pr in edge_pairs(e):
                pairs.charge(pr, w)
        # erosion accounting: every round is a perfect fractional matching, so
        # after r rounds the pairs at a vertex carry load exactly (k-1)r; a
        # dead pair carries load > 1, so if any sit there, fewer than (k-1)r do
        worst = max(pairs.dead_pairs_at().values(), default=0)
        load = (system.k - 1) * (rnd + 1)
        assert worst == 0 or worst < load, f"pair erosion {worst} reaches pair load {load}"
        diag["rounds"].append({"round": rnd, "status": "ok", "max_dead_pairs": worst})
        out.append(frac)
    assert pairs.min_weight() >= 0, "pair weight went negative"
    diag["min_pair_weight"] = str(pairs.min_weight())
    return ExtractionResult(
        matchings=out,
        pair_weights=pairs,
        completed=len(out) == ell,
        requested=ell,
        diagnostics=diag,
    )
