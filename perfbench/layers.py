"""The traced layers of bqual and the per-layer metrics built from spans.

Each layer is a module (or module group) of ``src/bqual``; ``gc`` is the
CPython cyclic collector, and ``trace`` is the tracer's own counting
hooks, reported so that tracing overhead is not hidden in a layer.
"""

from __future__ import annotations

import resource
from collections import Counter

from tracer import GC_LAYER, HOOK_LAYER, JOB_LAYER, Span, Target

LAYERS = (
    "parser",
    "explorer",
    "lts",
    "alignment",
    "metrics",
    "mutation",
    "evaluation",
    "cli",
    GC_LAYER,
    HOOK_LAYER,
)


def _maxrss_kb(args, kwargs) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _explore_counts(tracer, before, args, kwargs, result) -> dict:
    return {
        "states": len(result.states),
        "transitions": len(result.transitions),
        "rss_growth_kb": _maxrss_kb(args, kwargs) - before,
    }


def _written_lines(tracer, before, args, kwargs, result) -> dict:
    return {"lines": result}


def _read_lines(tracer, before, args, kwargs, result) -> dict:
    return {"lines": len(result)}


def _pairs_counts(tracer, before, args, kwargs, result) -> dict:
    return {"repeat": int(tracer.repeated(args[0]))}


def _similarity_counts(tracer, before, args, kwargs, result) -> dict:
    left = args[0] if args else kwargs["left"]
    right = args[1] if len(args) > 1 else kwargs["right"]
    counts = {"repeat": int(tracer.repeated(left, right))}
    if isinstance(left, (set, frozenset)) and isinstance(right, (set, frozenset)):
        counts["cells"] = len(left - right) * len(right - left)
    return counts


def _metric(attr: str, group: str) -> Target:
    return Target("bqual.metrics", attr, "metrics", f"metrics.{group}.{attr}")


FUNCTIONAL = ("tfcomp", "pfcomp", "tfcorr", "pfcorr", "tfappr", "pfappr")
RELIABILITY = (
    "invariant_satisfiability",
    "availability",
    "accountability",
    "fault_tolerance",
    "recoverability",
)
MAINTAINABILITY = (
    "functional_analysability",
    "fault_analysability",
    "modularity_of",
    "weighted_modularity",
    "reusability",
)

TARGETS = [
    Target("bqual.parser", "parse_machine", "parser", "parser.parse_machine"),
    Target("bqual.evaluation", "parse_goals", "parser", "parser.parse_goals"),
    Target(
        "bqual.explorer", "explore", "explorer", "explorer.explore",
        before=_maxrss_kb, after=_explore_counts,
    ),
    Target("bqual.explorer", "serialize_result", "explorer", "explorer.serialize"),
    Target(
        "bqual.lts", "write_transitions_jsonl", "lts", "lts.jsonl_write",
        after=_written_lines,
    ),
    Target(
        "bqual.lts", "read_transitions_jsonl", "lts", "lts.jsonl_read",
        after=_read_lines,
    ),
    Target("bqual.lts", "pairs_of", "lts", "lts.pairs_of", after=_pairs_counts),
    Target(
        "bqual.alignment", "similarity", "alignment", "alignment.similarity",
        after=_similarity_counts,
    ),
    *(_metric(attr, "functional") for attr in FUNCTIONAL),
    *(_metric(attr, "reliability") for attr in RELIABILITY),
    *(_metric(attr, "maintainability") for attr in MAINTAINABILITY),
    _metric("goal_appropriateness", "goals"),
    Target("bqual.mutation", "generate_plan", "mutation", "mutation.generate_plan"),
    Target("bqual.mutation", "apply_plan", "mutation", "mutation.apply_plan"),
    Target("bqual.mutation", "run_trials", "mutation", "mutation.run_trials"),
    Target("bqual.mutation", "modularity_sweep", "mutation", "mutation.modularity_sweep"),
    Target("bqual.evaluation", "evaluate", "evaluation", "evaluation.evaluate"),
    Target("bqual.evaluation", "render_report", "evaluation", "evaluation.render"),
    Target("bqual.cli", "main", "cli", "cli.main"),
]


def _group(prefix: str) -> tuple[str, ...]:
    return tuple(t.name for t in TARGETS if t.name.startswith(prefix))


# Per-layer metric -> (unit, the span names it is computed from).  A metric
# whose spans are all absent is reported as absent.
SPAN_METRICS = {
    "parser.s": ("s", _group("parser.")),
    "parser.calls": ("count", _group("parser.")),
    "explorer.s": ("s", ("explorer.explore",)),
    "explorer.calls": ("count", ("explorer.explore",)),
    "explorer.states": ("count", ("explorer.explore",)),
    "explorer.transitions": ("count", ("explorer.explore",)),
    "explorer.transitions_per_s": ("1/s", ("explorer.explore",)),
    "explorer.rss_growth_mb": ("MB", ("explorer.explore",)),
    "explorer.serialize.s": ("s", ("explorer.serialize",)),
    "lts.jsonl_write.s": ("s", ("lts.jsonl_write",)),
    "lts.jsonl_read.s": ("s", ("lts.jsonl_read",)),
    "lts.jsonl_lines": ("count", ("lts.jsonl_write", "lts.jsonl_read")),
    "lts.pairs_of.s": ("s", ("lts.pairs_of",)),
    "lts.pairs_of.calls": ("count", ("lts.pairs_of",)),
    "lts.pairs_of.repeat_frac": ("frac", ("lts.pairs_of",)),
    "alignment.s": ("s", ("alignment.similarity",)),
    "alignment.calls": ("count", ("alignment.similarity",)),
    "alignment.cells": ("count", ("alignment.similarity",)),
    "alignment.repeat_frac": ("frac", ("alignment.similarity",)),
    "metrics.functional.s": ("s", _group("metrics.functional.")),
    "metrics.reliability.s": ("s", _group("metrics.reliability.")),
    "metrics.maintainability.s": ("s", _group("metrics.maintainability.")),
    "metrics.goals.s": ("s", _group("metrics.goals.")),
    "mutation.generate_plan.s": ("s", ("mutation.generate_plan",)),
    "mutation.generate_plan.calls": ("count", ("mutation.generate_plan",)),
    "mutation.apply_plan.s": ("s", ("mutation.apply_plan",)),
    "mutation.apply_plan.calls": ("count", ("mutation.apply_plan",)),
    "mutation.trials.s": ("s", ("mutation.run_trials", "mutation.modularity_sweep")),
    "evaluation.s": ("s", ("evaluation.evaluate",)),
    "evaluation.render.s": ("s", ("evaluation.render",)),
    "cli.s": ("s", ("cli.main",)),
}

# Filled in by the worker from the pass itself, not from one span.
PASS_METRICS = {
    "trace.pass_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "gc.pause_s": "s",
    "gc.collections": "count",
    **{f"gc.gen{g}.collections": "count" for g in range(3)},
    **{f"gc.gen{g}.pause_s": "s" for g in range(3)},
    **{f"gc.in_{layer}.pause_s": "s" for layer in LAYERS if layer != GC_LAYER},
    "gc.in_unattributed.pause_s": "s",
    **{f"share.{layer}": "frac" for layer in LAYERS},
    "share.unattributed": "frac",
}


def summarize(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; the job spans are its roots."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    counts: dict[str, Counter] = {}
    layer_self: Counter = Counter()
    gc_in: Counter = Counter()
    gc_gen_calls: Counter = Counter()
    gc_gen_pause: Counter = Counter()
    wall = 0.0
    for span, own in zip(spans, selfs):
        duration = span.end - span.start
        calls[span.name] += 1
        self_s[span.name] += own
        total_s[span.name] += duration
        counts.setdefault(span.name, Counter()).update(span.counts)
        if span.layer == JOB_LAYER:
            wall += duration
            layer_self["unattributed"] += own
        else:
            layer_self[span.layer] += own
        if span.layer == GC_LAYER:
            generation = span.counts["generation"]
            gc_gen_calls[generation] += 1
            gc_gen_pause[generation] += duration
            parent_layer = spans[span.parent].layer
            gc_in["unattributed" if parent_layer == JOB_LAYER else parent_layer] += duration

    def sum_self(names):
        return sum(self_s[n] for n in names)

    def sum_calls(names):
        return sum(calls[n] for n in names)

    def sum_count(names, key):
        return sum(counts.get(n, Counter())[key] for n in names)

    def frac(part, whole):
        return part / whole if whole else 0.0

    out: dict[str, float] = {}
    for name, (unit, names) in SPAN_METRICS.items():
        if name.endswith(".calls"):
            out[name] = sum_calls(names)
        elif unit == "s":
            out[name] = sum_self(names)
    out["explorer.states"] = sum_count(("explorer.explore",), "states")
    out["explorer.transitions"] = sum_count(("explorer.explore",), "transitions")
    out["explorer.transitions_per_s"] = frac(
        out["explorer.transitions"], total_s["explorer.explore"]
    )
    out["explorer.rss_growth_mb"] = sum_count(("explorer.explore",), "rss_growth_kb") / 1024
    out["lts.jsonl_lines"] = sum_count(("lts.jsonl_write", "lts.jsonl_read"), "lines")
    out["lts.pairs_of.repeat_frac"] = frac(
        sum_count(("lts.pairs_of",), "repeat"), calls["lts.pairs_of"]
    )
    out["alignment.cells"] = sum_count(("alignment.similarity",), "cells")
    out["alignment.repeat_frac"] = frac(
        sum_count(("alignment.similarity",), "repeat"), calls["alignment.similarity"]
    )

    out["trace.pass_wall_s"] = wall
    out["trace.unattributed_s"] = layer_self["unattributed"]
    out["trace.spans"] = len(spans)
    out["gc.pause_s"] = sum(gc_gen_pause.values())
    out["gc.collections"] = sum(gc_gen_calls.values())
    for generation in range(3):
        out[f"gc.gen{generation}.collections"] = gc_gen_calls[generation]
        out[f"gc.gen{generation}.pause_s"] = gc_gen_pause[generation]
    for layer in [*(l for l in LAYERS if l != GC_LAYER), "unattributed"]:
        out[f"gc.in_{layer}.pause_s"] = gc_in[layer]
    for layer in [*LAYERS, "unattributed"]:
        out[f"share.{layer}"] = frac(layer_self[layer], wall)
    return out


def absent_metrics(absent_spans: list[str]) -> list[str]:
    gone = set(absent_spans)
    return [name for name, (_, names) in SPAN_METRICS.items() if set(names) <= gone]
