#!/usr/bin/env python3
"""decide() on the three kinds of instances, then the paper's matching
pipeline.

decide() runs a bounded exact search for a perfect matching, then the
barrier searches, and draws no random number. run_matching_pipeline() runs
the paper's absorber, restriction, weight-disjoint fractional family,
randomized rounding and absorption from a seed. Every certificate is
verified before it is returned, and small instances carry a brute-force
cross-check.
"""

from kmatch import (
    PipelineConfig,
    decide,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
    run_matching_pipeline,
)

print("dense random, n=12:")
cert = decide(gen_random_dense(12, 3, p=0.9, seed=5))
print("  tag:", cert.tag, "| size:", cert.payload.get("size"),
      "| oracle agrees:", not cert.diagnostics["oracle"]["contradicts"])

print("planted space barrier, n=12, |S|=5:")
cert = decide(gen_space_barrier(12, 3, 1, 5))
print("  tag:", cert.tag, "| count:", cert.payload["edge_count"],
      "<= threshold", cert.payload["threshold"])

print("planted divisibility barrier, |A|=5, |B|=3:")
cert = decide(gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]))
print("  tag:", cert.tag, "| robust vectors:", cert.payload["robust_vectors"])

print("\nfull pipeline at n=60 (dense, degree floor (60, 36, 20)):")
cx = gen_random_dense(60, 3, p=0.92, degree_floor=(60, 36, 20), seed=1000)
cert = run_matching_pipeline(cx, None, PipelineConfig(seed=0, ell=30))
print("  tag:", cert.tag, "| alpha:", cert.payload.get("alpha"),
      "| edges:", cert.payload.get("size"))
for stage in cert.diagnostics["stages"]:
    print("   ", stage["stage"], "->", stage["status"])

print("\ncanonical JSON certificate (reproducible for a fixed seed):")
line = cert.dumps()
print(" ", line[:120], "...")
assert line == run_matching_pipeline(cx, None, PipelineConfig(seed=0, ell=30)).dumps()
