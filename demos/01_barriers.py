#!/usr/bin/env python3
"""Two ways a dense complex can fail to have a perfect matching.

Walks through the planted constructions: a space barrier (a set too large for
the volume its edges can cover) and a divisibility barrier (an index-vector
lattice that arithmetically excludes the full vertex set), then shows the
searches recovering certificates for both.
"""

from fractions import Fraction

from kmatch import (
    brute_force_pm,
    decide,
    degree_sequences,
    find_transferral,
    gen_divisibility_barrier,
    gen_space_barrier,
    generate_lattice,
    index_vector,
    is_complete,
    lattice_contains,
    robust_edge_vectors,
)

# --- space barrier -----------------------------------------------------------
# Plant S of size 4 in 10 vertices, keep only i-sets with at most one S-vertex.
# Every top edge carries at most one S-vertex, so a perfect matching could
# cover at most n/k of S; with |S| > n/k there is none.
cx = gen_space_barrier(10, 3, 1, 4)
print("space barrier, n=10, |S|=4")
print("  degree sequence:", degree_sequences(cx).plain, "(= (n, n-|S|, n-|S|-1))")

small = gen_space_barrier(12, 3, 1, 5)
print("  n=12, |S|=5 > 12/3: brute force says matching =", brute_force_pm(small))
cert = decide(small)
print("  decide tag:", cert.tag, "| planted set recovered:", cert.payload["sets"])

# --- divisibility barrier ----------------------------------------------------
# Parts A (5 vertices) and B (3): edges are the triples meeting B in an even
# number of vertices. Index vectors live in L = <(1,2),(3,0)>, and the full
# vertex set has index (5,3), which is outside L, so no matching can cover it.
H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
rv = robust_edge_vectors(H.iter_top(), H.universe, Fraction(1, 100))
lat = generate_lattice(rv.vectors(), 2)
print("\ndivisibility barrier, |A|=5, |B|=3")
print("  robust index vectors:", rv.vectors())
print("  lattice basis:", lat.basis)
print("  complete?", is_complete(lat, 3), "| transferral:", find_transferral(lat))
print("  i(V) =", index_vector(H.universe.vertices(), H.universe),
      "in lattice?", lattice_contains(lat, (5, 3)))
print("  brute force matching:", brute_force_pm(H))
cert = decide(H)
print("  decide tag:", cert.tag, "| parts:", [len(p) for p in cert.payload["parts"]])
