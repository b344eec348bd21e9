"""F-balanced perfect fractional matchings by exact LP feasibility, and the
weight-disjoint multi-extraction loop.

All weights are Fractions and every verification is exact; an approximate
solution would poison the downstream rounding and absorbing checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import Allocation, edge_key, index_vector
from .errors import BadParams, EmptyTopLevel, UnknownEdge
from .simplex import solve_equality_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)
LP_COLUMN_CAP = 250_000  # larger pruned systems end extraction instead of an LP


@dataclass
class FractionalMatching:
    """Edge -> rational weight map with exact vertex sums of 1."""

    host: object
    weights: dict

    def support(self) -> list:
        return sorted(self.weights)

    def vertex_sums(self) -> dict:
        sums = {}
        for e, w in self.weights.items():
            for v in e:
                sums[v] = sums.get(v, ZERO) + w
        return sums

    def total_weight(self) -> Fraction:
        return sum(self.weights.values(), ZERO)


@dataclass
class LPModel:
    """Feasibility model: one nonnegative variable per k-edge, exact rows."""

    host: object
    edges: list                      # column order
    columns: list                    # sparse columns [(row, Fraction), ...]
    b: list
    row_names: list
    vertex_rows: dict                # vertex id -> row index
    balance_pairs: list              # [(index_vec, index_vec'), ...] in row order

    @property
    def num_rows(self) -> int:
        return len(self.b)

    @property
    def num_cols(self) -> int:
        return len(self.edges)


def build_lp(system, alloc: Allocation) -> LPModel:
    """LP for an F-balanced perfect fractional matching.

    Rows: one vertex-sum equality per vertex; one balance equality per
    consecutive pair of distinct index vectors of I(F) (the common normalized
    value is left free rather than pinned, since pinning it is ambiguous).
    """
    edges = sorted(system.iter_top())
    if not edges:
        raise EmptyTopLevel("system has no top-level edges")
    uni = system.universe
    vertex_rows = {v: i for i, v in enumerate(sorted(system.vertex_pool))}
    nrows = len(vertex_rows)
    vectors = alloc.index_vectors()
    balance_pairs = [(vectors[t], vectors[t + 1]) for t in range(len(vectors) - 1)]
    pair_row = {pair: nrows + t for t, pair in enumerate(balance_pairs)}
    columns = []
    for e in edges:
        col = [(vertex_rows[v], ONE) for v in e]
        vec = index_vector(e, uni) if balance_pairs else None
        for t, (va, vb) in enumerate(balance_pairs):
            if vec == va:
                col.append((nrows + t, Fraction(1, alloc.multiplicity(va))))
            elif vec == vb:
                col.append((nrows + t, -Fraction(1, alloc.multiplicity(vb))))
        columns.append(col)
    b = [ONE] * nrows + [ZERO] * len(balance_pairs)
    row_names = [f"v{v}" for v in vertex_rows] + [
        f"bal_{'_'.join(map(str, va))}__{'_'.join(map(str, vb))}"
        for va, vb in balance_pairs
    ]
    return LPModel(
        host=system,
        edges=edges,
        columns=columns,
        b=b,
        row_names=row_names,
        vertex_rows=vertex_rows,
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
    res = solve_equality_feasibility(model.columns, model.b)
    if not res.feasible:
        return None
    weights = {model.edges[j]: val for j, val in res.solution.items()}
    return FractionalMatching(host=model.host, weights=weights)


def verify_fractional(system, frac: FractionalMatching, alloc: Allocation = None) -> dict:
    """Exact residual report: vertex sums, balance residuals, support size."""
    uni = system.universe
    for e in frac.weights:
        if not system.has_top(e):
            raise UnknownEdge(f"edge {e} not in the host top level")
    sums = {v: ZERO for v in sorted(system.vertex_pool)}
    per_index = {}
    for e, w in frac.weights.items():
        for v in e:
            sums[v] += w
        vec = index_vector(e, uni)
        per_index[vec] = per_index.get(vec, ZERO) + w
    vertex_residuals = {v: s - ONE for v, s in sums.items()}
    balance_residuals = {}
    if alloc is not None:
        vectors = alloc.index_vectors()
        normalized = {
            vec: per_index.get(vec, ZERO) / alloc.multiplicity(vec) for vec in vectors
        }
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

    `w` holds the exact residuals. A pair joins `dead` when its residual drops
    below 1 and never leaves, since residuals only fall."""

    def __init__(self):
        self.w = {}
        self.dead = set()

    def charge(self, pair, amount):
        left = self.w[pair] = self.w.get(pair, Fraction(2)) - amount
        if left < 1:
            self.dead.add(pair)

    def edge_alive(self, e) -> bool:
        """Every pair of the sorted edge e still has residual at least 1."""
        return self.dead.isdisjoint(combinations(e, 2))

    def min_weight(self) -> Fraction:
        return min(self.w.values(), default=Fraction(2))

    def dead_pairs_at(self) -> dict:
        """vertex -> number of incident pairs that fell below 1."""
        out = {}
        for (u, v), wt in self.w.items():
            if wt < 1:
                out[u] = out.get(u, 0) + 1
                out[v] = out.get(v, 0) + 1
        return out


def _greedy_integer_pm(system, alloc, pairs: PairWeights, rng, tries=60):
    """Random greedy F-balanced perfect matching on the pair-pruned system.

    A fast path past the LP: an indicator vector of a perfect matching with
    exact per-index quotas is a feasible LP point.
    Returns a list of edges or None; failure here proves nothing.
    """
    uni = system.universe
    pool = system.vertex_pool
    total = len(pool)
    k = system.k
    if total % k or total == 0:
        return None
    vectors = alloc.index_vectors()
    msum = sum(alloc.multiplicity(v) for v in vectors)
    quota_unit = Fraction(total, k * msum)
    quotas = {}
    for vec in vectors:
        q = quota_unit * alloc.multiplicity(vec)
        if q.denominator != 1:
            return None  # exact balance unreachable by an integer matching
        quotas[vec] = int(q)

    explicit = not system.implicit
    if explicit:
        incident = system.incidence()
        vec_of = system.top_vectors()

    for _ in range(tries):
        free = set(pool)
        need = dict(quotas)
        chosen = []
        ok = True
        while free:
            v = rng.choice(sorted(free))
            cands = []
            if explicit:
                for e in incident.get(v, ()):
                    if free.issuperset(e) and need.get(vec_of[e], 0) > 0 and pairs.edge_alive(e):
                        cands.append(e)
            else:
                # implicit complete host: sample partners directly
                others = sorted(free - {v})
                for _ in range(40):
                    if len(others) < k - 1:
                        break
                    e = edge_key([v] + rng.sample(others, k - 1))
                    if (
                        system.has_top(e)
                        and need.get(index_vector(e, uni), 0) > 0
                        and pairs.edge_alive(e)
                    ):
                        cands.append(e)
                        break
            if not cands:
                ok = False
                break
            e = cands[rng.randrange(len(cands))]
            chosen.append(e)
            need[vec_of[e] if explicit else index_vector(e, uni)] -= 1
            free.difference_update(e)
        if ok and not free:
            return chosen
    return None


def _pruned_system(system, pairs: PairWeights):
    """Subsystem with top edges not supported on live pairs removed."""
    from .core import KSystem

    live = [e for e in system.iter_top() if pairs.edge_alive(e)]
    return KSystem(
        system.universe, system.k, {system.k: live}, vertex_pool=system.vertex_pool
    )


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
    misses, an explicit host solves exact LP feasibility on the pruned system
    (at most LP_COLUMN_CAP columns); an implicit host has no LP fallback and
    stops. The chosen weights are then charged to the pairs. Residuals stay
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
            frac = FractionalMatching(
                host=system, weights={edge_key(e): ONE for e in greedy}
            )
            diag["greedy_hits"] += 1
        else:
            if system.implicit:
                diag["rounds"].append({"round": rnd, "status": "implicit-host-no-greedy"})
                break
            pruned = _pruned_system(system, pairs)
            if pruned.top_count() == 0 or pruned.top_count() > LP_COLUMN_CAP:
                diag["rounds"].append(
                    {"round": rnd, "status": "empty-or-oversized", "columns": pruned.top_count()}
                )
                break
            model = build_lp(pruned, alloc)
            diag["lp_solves"] += 1
            frac = solve_feasible(model)
            if frac is not None:
                frac = FractionalMatching(host=system, weights=frac.weights)
        if frac is None:
            diag["rounds"].append({"round": rnd, "status": "infeasible"})
            break
        for e, w in frac.weights.items():
            for pr in edge_pairs(e):
                pairs.charge(pr, w)
        # erosion accounting: every round is a perfect fractional matching, so
        # after r rounds the pairs at a vertex carry load exactly (k-1)r; a
        # dead pair carries load > 1, so if any sit there, fewer than (k-1)r do
        dead = pairs.dead_pairs_at()
        worst = max(dead.values(), default=0)
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
