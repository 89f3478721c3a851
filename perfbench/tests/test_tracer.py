"""Span arithmetic, identity-based wrapping and the layer summary."""

import gc
import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from tracer import JOB_LAYER, Span, Target, Tracer, self_times


def span(name, layer, start, end, parent):
    return Span(name, layer, start, end, parent, "job")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("job", JOB_LAYER, 0.0, 10.0, None),
        span("a", "parser", 1.0, 4.0, 0),
        span("b", "explorer", 3.0, 6.0, 0),  # overlaps a: union is 1..6
        span("c", "lts", 2.0, 3.0, 1),
        span("d", "gc", 5.5, 7.0, 2),  # sticks out of b: clipped at 6
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0, 1.5])


def test_layer_shares_and_remainder_add_up_to_the_pass():
    spans = [
        span("job", JOB_LAYER, 0.0, 4.0, None),
        span("explorer.explore", "explorer", 0.5, 3.0, 0),
        span("gc.gen2", "gc", 1.0, 1.5, 1),
        span("job2", JOB_LAYER, 4.0, 6.0, None),
        span("alignment.similarity", "alignment", 4.0, 5.0, 3),
    ]
    spans[1].counts = {"states": 3, "transitions": 10, "rss_growth_kb": 2048}
    spans[2].counts = {"generation": 2}
    out = layers.summarize(spans, self_times(spans))
    assert out["trace.pass_wall_s"] == 6.0
    assert out["explorer.s"] == 2.0
    assert out["gc.pause_s"] == out["gc.gen2.pause_s"] == out["gc.in_explorer.pause_s"] == 0.5
    assert out["trace.unattributed_s"] == 2.5
    assert out["explorer.rss_growth_mb"] == 2.0
    assert out["explorer.transitions_per_s"] == 4.0
    shares = sum(out[f"share.{layer}"] for layer in (*layers.LAYERS, "unattributed"))
    assert shares == pytest.approx(1.0)


@pytest.fixture
def fake_package():
    a = types.ModuleType("fakepkg.a")

    def work(x):
        return x + 1

    a.work = work
    b = types.ModuleType("fakepkg.b")
    b.work = a.work  # "from .a import work"
    b.renamed = a.work  # imported under another name
    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    yield a, b, work
    for name in modules:
        del sys.modules[name]


def test_wrapping_by_identity_reports_missing_names_as_absent(fake_package):
    a, b, work = fake_package
    tracer = Tracer()
    targets = [
        Target("fakepkg.a", "work", "parser", "parser.work"),
        Target("fakepkg.a", "removed", "parser", "parser.removed"),
        Target("fakepkg.gone", "work", "lts", "lts.work"),
    ]
    tracer.install(targets, package="fakepkg")
    try:
        assert tracer.absent == ["parser.removed", "lts.work"]
        assert b.work is not work and b.renamed is b.work and a.work is b.work
        job = tracer.begin_job("j")
        assert b.work(1) == 2 and b.renamed(2) == 3 and a.work(3) == 4
        tracer.end_job(job)
    finally:
        tracer.uninstall()
    assert a.work is work and b.work is work and b.renamed is work
    assert [s.name for s in tracer.spans] == ["j"] + ["parser.work"] * 3
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_absent_spans_mark_their_metrics_absent():
    gone = layers.absent_metrics(["alignment.similarity"])
    assert set(gone) == {"alignment.s", "alignment.calls", "alignment.cells",
                         "alignment.repeat_frac"}
    assert layers.absent_metrics(["parser.parse_machine"]) == []


def test_collections_become_children_of_the_open_span():
    tracer = Tracer()
    tracer.install([], package="fakepkg-none")
    try:
        job = tracer.begin_job("j")
        gc.collect()
        tracer.end_job(job)
    finally:
        tracer.uninstall()
    collections = [s for s in tracer.spans if s.layer == "gc"]
    assert collections and all(s.parent == 0 for s in collections)
    assert tracer._on_gc not in gc.callbacks


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.BUILDERS)
