"""Benchmark self-test: a traced smoke run of every workload on one instance
per recipe.

It fails when a layer reads zero on the workload meant to exercise it, when a
bound wrapper records no call on any workload (it is bound to a name nobody
calls through), when tracing changes an output, or when an output fails its
check. Run it with `python3 perfbench/run.py --selftest`.
"""

from __future__ import annotations

from collections import Counter


def one_per_label(instances):
    first = {}
    for inst in instances:
        first.setdefault(inst.label, inst)
    return list(first.values())


def main(tracer_mod, wl_mod, run_workload) -> int:
    fired = Counter()
    ok = True
    for name, workload in wl_mod.WORKLOADS.items():
        metrics, _, failures, errors, _, n = run_workload(
            tracer_mod, wl_mod, name, 0, None, 1, 0.0, select=one_per_label
        )
        for _, _, span, _ in tracer_mod.BINDINGS:
            fired[span] += metrics.get(f"{span}.calls", 0)
        problems = failures + errors
        readings = ", ".join(f"{m}={metrics.get(m, 0):g}" for m in workload.exercised)
        print(f"[selftest] {name}: {n} instances, {readings}: {'PASS' if not problems else 'FAIL'}")
        for message in problems:
            print("    " + message.strip().replace("\n", " | "))
        ok &= not problems
    silent = sorted({span for _, _, span, _ in tracer_mod.BINDINGS if not fired[span]})
    print(f"[selftest] wrappers with no call on any workload: {silent or 'none'}: "
          f"{'PASS' if not silent else 'FAIL'}")
    return 0 if ok and not silent else 1
