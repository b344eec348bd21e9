"""kmatch benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload match-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

One process, one instance at a time (a closed loop with one client), no
threads and no subprocesses. Set-up (imports, instance generation, writing
.khg files) is timed as setup_s, repeated SETUP_REPS times, and kept out of
every other timing. The run first makes one full pass over the workload's
instances and then keeps cycling through them until `--seconds` of program
time have been measured; every output is checked outside the timed region.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are measured with
no tracing. With `--trace 1` the runner makes one untraced pass and one
traced pass, reports the per-layer metrics of BENCHMARK.json from the traced
pass, the difference in wall time as trace.overhead_s, and requires both
passes to produce the same output bytes. The last line of standard output is
the JSON result; the lines before it list every metric with its unit and the
environment. Results are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# On a shared 2-vCPU Xeon virtual machine, neighbours slow the CPU by up to
# 1.8x for tens of seconds at a time, on wall and CPU time alike. A short fixed
# slice of pure-Python work (reference_slice) is timed every REF_EVERY_S seconds
# of program time, and the *_norm metrics rescale each instance's time to a
# machine on which that slice takes REF_NOMINAL_S, using the median of the
# REF_WINDOW slices before and after it; setup_s is rescaled by the slices
# around it.
REF_EVERY_S = 1.0
REF_WINDOW = 4
REF_NOMINAL_S = 0.005
# end-to-end figures reported next to the BENCHMARK.json ones; they can read
# zero or need more samples than every workload has, so they carry no bound
EXTRA_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_samples": "count",
    "latency_p90_s": "s",
    "latency_p90_s_norm": "s",
    "cpu_s_per_instance": "s",
    "error_rate": "ratio",
    "barrier_on_matchable": "count",
    "reference_slice_s": "s",
}


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_program():
    """Import kmatch from this checkout's src/ only; never an installed copy."""
    if not (SRC / "kmatch" / "__init__.py").is_file():
        _fail(f"no kmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    before = reference_slice()
    start = time.perf_counter()
    import kmatch  # noqa: F401  (timed as part of set-up)
    import tracer
    import workloads
    elapsed = time.perf_counter() - start
    elapsed *= 2 * REF_NOMINAL_S / (before + reference_slice())
    if Path(kmatch.__file__).resolve().parent != SRC / "kmatch":
        _fail(f"imported kmatch from {kmatch.__file__}, not from {SRC}")
    return tracer, workloads, elapsed


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _code_digest() -> str:
    """Digest of the program and benchmark sources, which fix the outputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kmatch").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _set_up(workload, seed, workdir):
    """Generate and write the instances SETUP_REPS times; median seconds,
    rescaled by the reference slices around each repetition."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = reference_slice()
        start = time.perf_counter()
        instances = workload.generate(seed, workdir)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * REF_NOMINAL_S / (before + reference_slice()))
    return instances, statistics.median(times)


def _reference_unit():
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 97 + 1)
    items = [((i * 7919) % 10007, i % 31, i) for i in range(3000)]
    seen = set(items)
    counts = {}
    for item in sorted(items):
        counts[item[:2]] = counts.get(item[:2], 0) + (item in seen)
    return total, counts


def reference_slice() -> float:
    """Median wall seconds of five runs of a fixed unit of Fraction, sort,
    set and dict work over a few thousand tuples, the kind of work kmatch
    does. It tracks a shared CPU's slow and fast phases better than Fraction
    arithmetic alone, which speeds up more than kmatch in fast phases. The
    garbage collector is paused, so that the size of the benchmark's heap
    does not leak into the slice."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            _reference_unit()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def _measure(workload, instances, seconds, outcome_cls, trace=None):
    """Closed loop over the instances: one full pass, then keep cycling until
    `seconds` of timed program work when `seconds` is given. Returns wall
    and CPU seconds per attempt, the outcomes, and per attempt the median of
    the reference slices taken within REF_WINDOW slices of it."""
    walls, cpus, outcomes = [], [], []
    slices = [reference_slice()]
    slice_of = []               # per attempt: index of the last slice before it
    timed = since_ref = 0.0
    i = 0
    while i < len(instances) or (seconds is not None and timed < seconds):
        if since_ref >= REF_EVERY_S:
            slices.append(reference_slice())
            since_ref = 0.0
        inst = instances[i % len(instances)]
        root = trace.span(workload.root_span) if trace and workload.root_span else nullcontext()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with root:
                raw = workload.run(inst)
            error = None
        except Exception:  # counted as a failed attempt, never hidden
            error = traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        if error is None:
            try:
                outcome = workload.check(inst, raw)
            except Exception:
                outcome = outcome_cls(digest="", error=traceback.format_exc(limit=3))
        else:
            outcome = outcome_cls(digest="", error=error)
        if outcome.error is not None:
            outcome.error = f"instance {i % len(instances)} ({inst.label}): {outcome.error}"
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        outcomes.append(outcome)
        slice_of.append(len(slices) - 1)
        timed += t1 - t0
        since_ref += t1 - t0
        i += 1
    slices.append(reference_slice())
    refs = [
        statistics.median(slices[max(0, j - REF_WINDOW + 1): j + REF_WINDOW + 1])
        for j in slice_of
    ]
    return walls, cpus, outcomes, refs


def _consistency_errors(n, *passes):
    """Each instance must give the same output bytes on every attempt."""
    errors = []
    first = {}
    for outcomes in passes:
        for i, outcome in enumerate(outcomes):
            idx = i % n
            if first.setdefault(idx, outcome.digest) != outcome.digest:
                errors.append(f"instance {idx}: output bytes differ between attempts")
    return errors, [first[i] for i in range(n)]


def _stored_digest_errors(name, seed, digests, code_digest):
    """Compare with an earlier run of the same seed and sources, if any."""
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"digests-{name}-seed{seed}-{code_digest[:16]}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != digests:
            return [f"output bytes differ from the earlier run recorded in {path.name}"]
        return []
    path.write_text(json.dumps(digests))
    return []


def end_to_end(walls, cpus, refs, outcomes, n, setup_s):
    """Timings are per-instance means over every attempt, so the instances
    repeated while filling the run carry no extra weight; rates and counts
    come from the first pass."""
    scale = [REF_NOMINAL_S / r for r in refs]
    metrics = {
        "conclusive_rate": sum(o.conclusive for o in outcomes[:n]) / n,
        "error_rate": sum(o.error is not None for o in outcomes) / len(outcomes),
        "barrier_on_matchable": sum(o.barrier_on_matchable for o in outcomes[:n]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "latency_samples": n,
    }
    for suffix, factors in (("", [1.0] * len(refs)), ("_norm", scale)):
        wall = [w * f for w, f in zip(walls, factors)]
        cpu = [c * f for c, f in zip(cpus, factors)]
        per_wall = [statistics.fmean(wall[i::n]) for i in range(n)]
        metrics["instances_per_s" + suffix] = n / sum(per_wall)
        metrics["latency_p50_s" + suffix] = statistics.median(per_wall)
        metrics["cpu_s_per_instance" + suffix] = statistics.fmean(
            statistics.fmean(cpu[i::n]) for i in range(n)
        )
        # the highest percentile with at least ten samples beyond it
        if n >= 100:
            metrics["latency_p90_s" + suffix] = statistics.quantiles(per_wall, n=10)[-1]
    metrics["reference_slice_s"] = statistics.median(refs)
    return metrics


def run_workload(tracer_mod, wl_mod, name, seed, seconds, trace, import_s, select=None):
    """One run: set up, measure (untraced, or untraced then traced), check.

    Returns the metrics, every attempt's outcome, the failed attempts'
    messages, the run's other errors, one output digest per instance and the
    instance count."""
    workload = wl_mod.WORKLOADS[name]
    workdir = BENCH_DIR / ".work" / f"{name}-{seed}"
    try:
        generated, setup_s = _set_up(workload, seed, workdir)
        instances = generated if select is None else select(generated)
        n = len(instances)
        if not trace:
            walls, cpus, outcomes, refs = _measure(workload, instances, seconds, wl_mod.Outcome)
            errors, digests = _consistency_errors(n, outcomes)
            metrics = end_to_end(walls, cpus, refs, outcomes, n, import_s + setup_s)
            attempted = outcomes
        else:
            walls0, _, plain, _ = _measure(workload, instances, None, wl_mod.Outcome)
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                walls1, _, traced, _ = _measure(workload, instances, None, wl_mod.Outcome, trace=tr)
            finally:
                tr.uninstall()
            errors, digests = _consistency_errors(n, plain, traced)
            metrics = tr.layer_metrics()
            metrics["trace.overhead_s"] = sum(walls1) - sum(walls0)
            spans = BENCH_DIR / "results" / f"{name}-seed{seed}-spans.json"
            spans.parent.mkdir(exist_ok=True)
            spans.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "failed"], "spans": tr.spans}
            ))
            errors += [
                f"layer {m} reads zero on {name}" for m in workload.exercised if not metrics.get(m)
            ]
            attempted = plain + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [o.error for o in attempted if o.error is not None]
    return metrics, attempted, failures, errors, digests, n


def _environment(name, seed, n, code_digest):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "code_sha256": code_digest,
        "workload": name,
        "seed": seed,
        "instances": n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="traced smoke run of every workload; fails on a zero layer reading")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer_mod, wl_mod, import_s = _import_program()
    if args.selftest:
        import selftest
        return selftest.main(tracer_mod, wl_mod, run_workload)
    if args.workload not in wl_mod.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(wl_mod.WORKLOADS)}")

    metrics, attempted, failures, errors, digests, n = run_workload(
        tracer_mod, wl_mod, args.workload, args.seed, args.seconds, args.trace, import_s
    )
    code_digest = _code_digest()
    errors += _stored_digest_errors(args.workload, args.seed, digests, code_digest)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    units.update({k: v for k, v in EXTRA_UNITS.items() if k in metrics and not args.trace})
    for key in units:
        print(f"{key:56s} {metrics[key]:>14.6g} {units[key]}")
    env = _environment(args.workload, args.seed, n, code_digest)
    print("env " + json.dumps(env, sort_keys=True))
    for message in (failures + errors)[:10]:
        print("error " + message.strip().replace("\n", " | "))
    report = {"env": env, "metrics": {k: metrics[k] for k in units}, "errors": failures + errors}
    out = BENCH_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": not failures and not errors,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
