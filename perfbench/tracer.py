"""Spans and counters for the traced benchmark run.

Spans are recorded by wrappers that the benchmark binds around public kmatch
calls. kmatch imports with `from .x import f` throughout, so each wrapper is
bound to the name in the *calling* module's namespace; rebinding the defining
module would record nothing. Spans stay in memory and are reduced to per-layer
metrics when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from kmatch.errors import KmatchError


def _count_extraction(tracer, result):
    diag = result.diagnostics
    tracer.counters["fractional.greedy_hits"] += diag["greedy_hits"]
    tracer.counters["fractional.lp_solves"] += diag["lp_solves"]
    # one entry per round, and every round tries the greedy integer matching
    tracer.counters["fractional.greedy_tries"] += len(diag["rounds"])


def _count_pivots(tracer, result):
    tracer.counters["simplex.pivots"] += result.pivots


def _count_found(span):
    def hook(tracer, result):
        tracer.counters[f"{span}.found"] += result is not None
    return hook


def _record_nibble(tracer, result):
    tracer.covered_fractions.append(result.covered_fraction)


# (calling module, attribute, span name, hook reading counters off the result)
BINDINGS = [
    ("kmatch.cli", "load_khg", "khg.load_khg", None),
    ("kmatch.cli", "decide", "pipeline.decide", None),
    ("kmatch.cli", "run_matching_pipeline", "pipeline.run_matching_pipeline", None),
    ("kmatch.pipeline", "extract_weight_disjoint", "fractional.extract_weight_disjoint",
     _count_extraction),
    ("kmatch.pipeline", "closed_partition", "absorbing.closed_partition", None),
    ("kmatch.pipeline", "build_absorber", "absorbing.build_absorber", None),
    ("kmatch.pipeline", "absorb", "absorbing.absorb", None),
    ("kmatch.pipeline", "space_barrier_search", "barriers.space_barrier_search",
     _count_found("barriers.space_barrier_search")),
    ("kmatch.pipeline", "divisibility_barrier_search", "barriers.divisibility_barrier_search",
     _count_found("barriers.divisibility_barrier_search")),
    ("kmatch.pipeline", "verify_space_barrier", "barriers.verify", None),
    ("kmatch.pipeline", "verify_divisibility_barrier", "barriers.verify", None),
    ("kmatch.pipeline", "sample_subgraph", "rounding.sample_subgraph", None),
    ("kmatch.pipeline", "color_classes", "rounding.color_classes", None),
    ("kmatch.pipeline", "check_regularity", "rounding.check_regularity", None),
    ("kmatch.pipeline", "nibble_match", "rounding.nibble_match", _record_nibble),
    ("kmatch.pipeline", "brute_force_pm", "oracle.brute_force_pm.pipeline", None),
    ("kmatch.pipeline", "degree_sequences", "core.degree_sequences", None),
    ("kmatch.pipeline", "validate_matching", "core.validate_matching", None),
    ("kmatch.absorbing", "brute_force_pm", "oracle.brute_force_pm.absorbing", None),
    ("kmatch.fractional", "build_lp", "fractional.build_lp", None),
    ("kmatch.fractional", "solve_feasible", "fractional.solve_feasible", None),
    ("kmatch.fractional", "solve_equality_feasibility", "simplex.solve", _count_pivots),
    ("kmatch.fractional", "verify_fractional", "fractional.verify_fractional", None),
    ("kmatch.barriers", "generate_lattice", "lattice.generate_lattice", None),
    ("kmatch.barriers", "is_complete", "lattice.is_complete", None),
    ("kmatch.barriers", "find_transferral", "lattice.find_transferral", None),
    ("kmatch.barriers", "robust_edge_vectors", "lattice.robust_edge_vectors", None),
]

COUNTERS = (
    "fractional.greedy_hits",
    "fractional.lp_solves",
    "fractional.greedy_tries",
    "simplex.pivots",
    "barriers.space_barrier_search.found",
    "barriers.divisibility_barrier_search.found",
)

# Spans whose own time (minus wrapped children) is a layer's self time.
SELF_TIME_PREFIXES = {"pipeline.self_s": "pipeline.", "cli.self_s": "cli."}


class Tracer:
    """In-memory spans (name, start, end, parent) plus named counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, failed]
        self.stack = []
        self.counters = Counter()
        self.covered_fractions = []
        self._saved = []

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        record = [name, time.perf_counter(), None, parent, False]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except KmatchError:
            record[4] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind every wrapper; a missing name raises, so a renamed call fails
        loudly instead of silently recording nothing."""
        for module_name, attr, span, hook in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer calls, busy (inclusive) time, failures and self time."""
        calls = Counter()
        busy = Counter()
        failed = Counter()
        child_time = Counter()
        for name, start, end, parent, err in self.spans:
            calls[name] += 1
            busy[name] += end - start
            failed[name] += err
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for name in {span for _, _, span, _ in BINDINGS} | set(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.failed"] = failed[name]
        for metric, prefix in SELF_TIME_PREFIXES.items():
            out[metric] = sum(
                (end - start) - child_time[i]
                for i, (name, start, end, _, _) in enumerate(self.spans)
                if name.startswith(prefix)
            )
        for caller in ("pipeline", "absorbing"):
            for suffix in ("calls", "busy_s"):
                key = f"oracle.brute_force_pm.{suffix}"
                out[key] = out.get(key, 0) + out.get(
                    f"oracle.brute_force_pm.{caller}.{suffix}", 0
                )
        out.update({key: self.counters[key] for key in COUNTERS})
        tries = self.counters["fractional.greedy_tries"]
        out["fractional.greedy_hit_ratio"] = (
            self.counters["fractional.greedy_hits"] / tries if tries else 0.0
        )
        out["simplex.solves"] = calls["simplex.solve"]
        out["simplex.busy_s"] = busy["simplex.solve"]
        out["rounding.nibble_attempts"] = calls["rounding.nibble_match"]
        covered = self.covered_fractions
        out["rounding.covered_fraction_p50"] = statistics.median(covered) if covered else 0.0
        return out
