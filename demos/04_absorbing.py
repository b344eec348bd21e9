#!/usr/bin/env python3
"""Lattice-based absorbing: swallow a leftover set into a prebuilt reservoir.

Builds reachability-closed parts, checks the robust-vector lattice is
complete, assembles disjoint absorber sets with recorded internal matchings,
and then absorbs a random leftover: decompose its index over the robust
vectors, draw reserve edges for the negative coefficients, re-partition, and
match each piece inside an absorber.
"""

import random
from fractions import Fraction

from kmatch import (
    AbsorberConfig,
    absorb,
    allocation_from_index_multiset,
    build_absorber,
    closed_partition,
    gen_random_dense,
    plain_allocation,
    validate_matching,
)

# one-part case: identity decompositions, absorbers do all the work
cx = gen_random_dense(30, 3, p=0.9, seed=3)
cp = closed_partition(cx, delta=Fraction(1, 8), alpha=Fraction(1, 100))
print("closed partition parts:", [len(p) for p in cp.parts],
      "| closure t per part:", [t for _, t in cp.witness])

cfg = AbsorberConfig(seed=5, phi=Fraction(1, 5), epsilon=Fraction(7, 10),
                     mu=Fraction(1, 500), family_target=2)
state = build_absorber(cx, plain_allocation(3), cfg, partition=cp)
print("absorber: W =", len(state.w_vertices), "vertices,",
      len(state.family.sets), "members of", len(state.family.sets[0]), "vertices each")

rng = random.Random(9)
outside = sorted(set(cx.vertex_pool) - state.w_vertices)
leftover = rng.sample(outside, 6)
m = absorb(state, leftover)
print("absorbed leftover", sorted(leftover), "->", len(m), "edges;",
      "exact cover of W u U:", validate_matching(cx, m, cover=state.w_vertices | set(leftover)))

# two-part case: an all-A triple has index (3,0), which decomposes over the
# robust vectors {(1,2),(2,1)} as 2*(2,1) - 1*(1,2); absorbing it consumes one
# (1,2) reserve edge and re-partitions the six vertices into two (2,1)-sets
alloc = allocation_from_index_multiset([(1, 2), (2, 1)])
cx2 = gen_random_dense(18, 3, r=2, p=1.0, seed=0, allocation=alloc)
cfg2 = AbsorberConfig(seed=3, phi=Fraction(1, 12), epsilon=Fraction(25, 36),
                      mu=Fraction(1, 400), family_target=2)
state2 = build_absorber(cx2, alloc, cfg2)
dec = state2.decomposition_table[(3, 0)]
print("\ntwo-part decomposition of (3,0): +", dec.positive_part,
      " -", dec.negative_part)
a_free = sorted(set(cx2.universe.part_vertices(0)) - state2.w_vertices)[:3]
m2 = absorb(state2, a_free)
print("absorbed an all-A triple:", a_free, "| valid:",
      validate_matching(cx2, m2, cover=state2.w_vertices | set(a_free)))
