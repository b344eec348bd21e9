#!/usr/bin/env python3
"""Exact fractional matchings by rational LP, and weight-disjoint extraction.

A float64 simplex only suggests a starting basis; the solver finishes in
exact integer arithmetic over one shared denominator, so a returned matching
satisfies every vertex equation exactly, and infeasibility comes with an
exactly checked Farkas certificate, not a tolerance call.
"""

from kmatch import (
    build_lp,
    brute_force_fractional,
    complete_complex,
    dump_lp,
    extract_weight_disjoint,
    gen_space_barrier,
    plain_allocation,
    solve_feasible,
    verify_fractional,
)

alloc = plain_allocation(3)

# the complete 3-graph on 4 vertices: every vertex sits in 3 edges, so the
# uniform weight 1/3 works; the solver returns an exact rational point
k4 = complete_complex(4, 3)
model = build_lp(k4, alloc)
print("K4 model:", model.num_cols, "variables,", model.num_rows, "equations")
g = solve_feasible(model)
print("  solution:", {e: str(w) for e, w in sorted(g.weights.items())})
print("  exact residuals all zero?", verify_fractional(k4, g, alloc)["ok"])
print("\nLP text format:")
print(dump_lp(model))

# an oversized planted set is infeasible: the set needs total weight |S| = 3,
# but each edge carries at most one planted vertex and total weight is n/k = 2
blocked = gen_space_barrier(6, 3, 1, 3)
print("planted |S|=3 on 6 vertices feasible?",
      solve_feasible(build_lp(blocked, alloc)) is not None)
print("independent dense-simplex oracle agrees?",
      brute_force_fractional(blocked) is False)

# weight-disjoint extraction: repeated solves on the pair-pruned system;
# across the whole family no vertex pair ever carries more than weight 2
cc = complete_complex(30, 3)
res = extract_weight_disjoint(cc, alloc, 10, seed=7)
print(f"\nextracted {len(res.matchings)}/10 matchings on K(30);",
      "min residual pair weight:", res.diagnostics["min_pair_weight"])
for rnd in res.diagnostics["rounds"][:3]:
    print("  round", rnd["round"], "dead pairs at any vertex:", rnd["max_dead_pairs"])
