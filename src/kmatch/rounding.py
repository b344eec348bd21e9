"""Randomized rounding: combine weight-disjoint fractional matchings, sample a
near-regular subgraph, color it by index multiplicity, and run semi-random
greedy rounds to an almost-perfect balanced matching.

The d-uniform auxiliary graph (one edge per color class) is never
materialized; candidate tuples are drawn directly, which matches random
greedy on the subsampled auxiliary graph in the regime we care about.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Allocation, Matching, index_vector
from .errors import IndexNotInAllocation, MixedHost

NIBBLE_DRAWS_PER_VERTEX = 50  # candidate draws of one nibble run, per pool vertex
_TWO53 = 1 << 53  # random() returns a multiple of 2**-53


def combine_weights(fracs) -> dict:
    """Half the sum of the given fractional matchings, edge by edge, summed
    in ints over twice the weights' common denominator.

    The pair-load bound of the extraction loop guarantees the result never
    exceeds 1 on any edge; that is asserted, not assumed.
    """
    if not fracs:
        return {}
    host = fracs[0].host
    if any(g.host is not host for g in fracs):
        raise MixedHost("fractional matchings live on different hosts")
    den = math.lcm(*(w.denominator for g in fracs for w in g.weights.values()))
    combined = {}
    for g in fracs:
        for e, w in g.weights.items():
            combined[e] = combined.get(e, 0) + w.numerator * (den // w.denominator)
    out = {}
    for e, num in combined.items():
        assert num <= 2 * den, f"combined weight {Fraction(num, 2 * den)} > 1 on {e}"
        out[e] = Fraction(num, 2 * den)
    return out


@dataclass
class SampledGraph:
    """An edge sample of the top level, with the stats the rounding step needs."""

    host: object
    edges: list                       # sorted tuples
    seed: int
    expected_degree: Fraction         # declared vertex weight of the sampling g
    color_class: dict = None          # edge -> class id, set by color_classes
    num_classes: int = 0
    stats: dict = field(default_factory=dict)

    def vertices(self) -> list:
        return sorted(self.host.vertex_pool)

    def compute_stats(self):
        deg = Counter()
        codeg = Counter()
        per_index = Counter()
        uni = self.host.universe
        for e in self.edges:
            for v in e:
                deg[v] += 1
            for a in range(len(e)):
                for b in range(a + 1, len(e)):
                    codeg[(e[a], e[b])] += 1
            per_index[index_vector(e, uni)] += 1
        pool = self.vertices()
        degrees = {v: deg.get(v, 0) for v in pool}
        self.stats = {
            "degrees": degrees,
            "min_degree": min(degrees.values(), default=0),
            "max_degree": max(degrees.values(), default=0),
            "mean_degree": (sum(degrees.values()) / len(pool)) if pool else 0.0,
            "max_codegree": max(codeg.values(), default=0),
            "per_index": dict(sorted(per_index.items())),
            "edge_count": len(self.edges),
        }
        return self.stats


def sample_subgraph(host, g: dict, seed: int = 0) -> SampledGraph:
    """Keep each support edge independently with probability g(e).

    The weights are ints over their common denominator den. random() is
    m / 2**53 for an integer m, so random() < num / den is tested exactly
    as m * den < num * 2**53."""
    rng = random.Random(seed)
    den = math.lcm(*(w.denominator for w in g.values()))
    edges = []
    expected = {}
    for e in sorted(g):
        w = g[e]
        num = w.numerator * (den // w.denominator)
        assert 0 <= num <= den, f"weight {w} outside [0, 1]"
        for v in e:
            expected[v] = expected.get(v, 0) + num
        if num == den or int(rng.random() * _TWO53) * den < num * _TWO53:
            edges.append(e)
    values = set(expected.values())
    declared = Fraction(values.pop(), den) if len(values) == 1 else Fraction(
        sum(expected.values()), den * max(len(expected), 1)
    )
    out = SampledGraph(host=host, edges=edges, seed=seed, expected_degree=declared)
    out.compute_stats()
    return out


def color_classes(sampled: SampledGraph, alloc: Allocation, seed: int = 0) -> SampledGraph:
    """Split the edges of each index vector into m_i classes, as equal as
    possible, uniformly at random within the index group."""
    rng = random.Random(seed)
    uni = sampled.host.universe
    groups = {}
    for e in sampled.edges:
        vec = index_vector(e, uni)
        if alloc.multiplicity(vec) == 0:
            raise IndexNotInAllocation(f"index {vec} not in I(F)")
        groups.setdefault(vec, []).append(e)
    assignment = {}
    class_id = 0
    class_meta = []
    for vec in alloc.index_vectors():
        m = alloc.multiplicity(vec)
        members = sorted(groups.get(vec, []))
        rng.shuffle(members)
        base, extra = divmod(len(members), m)
        start = 0
        for c in range(m):
            size = base + (1 if c < extra else 0)
            for e in members[start:start + size]:
                assignment[e] = class_id
            class_meta.append({"index": vec, "size": size})
            start += size
            class_id += 1
    sampled.color_class = assignment
    sampled.num_classes = class_id
    sampled.stats["classes"] = class_meta
    return sampled


def check_regularity(sampled: SampledGraph, tau: float = 0.2, ell=None) -> dict:
    """Degree and codegree report against the (1 +- tau) ell targets.

    The per-vertex uniform bound is an asymptotic statement; at desk scale the
    headline pass gates on the mean degree, and the fraction of vertices
    inside the band is reported alongside. The codegree cap is
    max(3 ln n, 5).
    """
    if ell is None:
        ell = sampled.expected_degree
    ell = float(ell)
    st = sampled.stats or sampled.compute_stats()
    pool = sampled.vertices()
    nv = len(pool)
    lo, hi = (1 - tau) * ell, (1 + tau) * ell
    degrees = st["degrees"]
    inside = sum(1 for v in pool if lo <= degrees[v] <= hi)
    mean = st["mean_degree"]
    degree_pass = nv > 0 and lo <= mean <= hi
    cap = max(3 * math.log(nv), 5.0) if nv > 0 else 5.0
    codegree_pass = st["max_codegree"] <= cap
    return {
        "ell": ell,
        "tau": tau,
        "mean_degree": mean,
        "min_degree": st["min_degree"],
        "max_degree": st["max_degree"],
        "degree_pass": degree_pass,
        "strict_degree_pass": inside == nv,
        "vertices_in_band": inside,
        "band_fraction": inside / nv if nv else 0.0,
        "max_codegree": st["max_codegree"],
        "codegree_cap": cap,
        "codegree_pass": codegree_pass,
        "all_pass": degree_pass and codegree_pass,
        "per_index": st["per_index"],
    }


@dataclass
class NibbleResult:
    matching: Matching
    uncovered: tuple
    flag: str                   # "ok" or "round-limit"
    covered_fraction: float
    best_trace: tuple = ()      # best matching size after each improvement


def _collapsed_rounds(edges, pool, rng, budget, stop_at):
    """Random greedy plus single-conflict swap moves, tracking the best.

    Plain greedy stalls well short of the coverage the rounding step needs;
    swapping one matched edge for a fresh edge through an uncovered vertex is
    the standard k-set-packing plateau move and recovers the gap. Only the
    best matching found is reported, so the reported coverage sequence is
    monotone even though the walk itself may wander.
    """
    incident = {}
    for e in edges:
        for v in e:
            incident.setdefault(v, []).append(e)
    cover = {}
    matching = set()

    def try_add(e):
        if all(v not in cover for v in e):
            matching.add(e)
            for v in e:
                cover[v] = e
            return True
        return False

    order = list(edges)
    rng.shuffle(order)
    rounds = 0
    for e in order:
        rounds += 1
        try_add(e)
        if rounds >= budget:
            break
    best = set(matching)
    trace = [len(best)]
    uncovered = [v for v in pool if v not in cover]
    while rounds < budget and len(best) < stop_at:
        rounds += 1
        uncovered = [v for v in uncovered if v not in cover]
        if not uncovered:
            break
        u = uncovered[rng.randrange(len(uncovered))]
        cands = incident.get(u)
        if not cands:
            uncovered = [v for v in uncovered if v != u]
            continue
        e = cands[rng.randrange(len(cands))]
        conflicts = {cover[v] for v in e if v in cover}
        if len(conflicts) == 0:
            try_add(e)
        elif len(conflicts) == 1:
            f = conflicts.pop()
            matching.discard(f)
            for v in f:
                del cover[v]
            try_add(e)
            uncovered.extend(v for v in f if v not in cover)
        if len(matching) > len(best):
            best = set(matching)
            trace.append(len(best))
    return best, rounds, trace


def nibble_match(sampled: SampledGraph, max_uncovered: int, seed: int = 0) -> NibbleResult:
    """Round the sampled graph to a balanced matching, stopping at the first
    one that leaves at most max_uncovered vertices uncovered.

    Collapsed mode (a single color class) runs augmented random greedy on the
    sampled edges. Otherwise rounds draw one random edge per color class and
    accept the tuple when mutually disjoint and disjoint from the matching;
    each accepted tuple contributes m_i edges of every index vector, so the
    output is balanced tuple by tuple.

    The result is flagged "ok" when it meets max_uncovered and "round-limit"
    when the draw budget ran out first; an empty sample returns an empty
    matching rather than raising.
    """
    pool = sampled.vertices()
    nv = len(pool)
    rng = random.Random(seed)
    budget = NIBBLE_DRAWS_PER_VERTEX * max(nv, 1)
    best = []
    rounds_used = 0
    trace = []

    if sampled.num_classes <= 1:
        if sampled.edges:
            k = len(sampled.edges[0])
            stop_at = -(-(nv - max_uncovered) // k)  # fewest edges that meet the cap
            while rounds_used < budget:
                got, used_rounds, t = _collapsed_rounds(
                    sampled.edges, pool, rng, budget - rounds_used, stop_at
                )
                rounds_used += used_rounds
                if len(got) > len(best):
                    best = sorted(got)
                trace.extend(t)
                if len(best) >= stop_at:
                    break
    else:
        classes = [[] for _ in range(sampled.num_classes)]
        for e, c in sampled.color_class.items():
            classes[c].append(e)
        for cl in classes:
            cl.sort()
        if all(cl for cl in classes):
            attempts_per_restart = max(budget // 10, 1)
            best_covered = 0
            while rounds_used < budget:
                matching, used = [], set()
                stall = 0
                while rounds_used < budget and stall < attempts_per_restart:
                    rounds_used += 1
                    stall += 1
                    tup = [cl[rng.randrange(len(cl))] for cl in classes]
                    seen = set()
                    ok = True
                    for e in tup:
                        for v in e:
                            if v in seen or v in used:
                                ok = False
                                break
                            seen.add(v)
                        if not ok:
                            break
                    if ok:
                        matching.extend(tup)
                        used.update(seen)
                        stall = 0
                        if nv - len(used) <= max_uncovered:
                            break
                if len(matching) > len(best):
                    best, best_covered = list(matching), len(used)
                    trace.append(len(best))
                if nv - best_covered <= max_uncovered:
                    break

    matching = Matching.from_edges(best)
    covered = matching.vertex_set()
    uncovered = tuple(v for v in pool if v not in covered)
    frac = (nv - len(uncovered)) / nv if nv else 1.0
    flag = "ok" if len(uncovered) <= max_uncovered else "round-limit"
    return NibbleResult(
        matching=matching,
        uncovered=uncovered,
        flag=flag,
        covered_fraction=frac,
        best_trace=tuple(trace),
    )
