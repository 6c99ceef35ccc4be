"""Span arithmetic and the reporting of wrapped names that are missing."""

import types

import pytest

import spans
from spans import Span, Target, Tracer, evaluate, self_times


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("a.child", 2.0, 3.0, 1, None),
        Span("b", 3.5, 6.0, 0, None),  # overlaps a: the union 1..6 is covered once
        Span("c", 9.0, 12.0, 0, None),  # runs past the root's end: only 9..10 counts
        Span("leaf", 7.0, 8.0, None, None),
    ]
    assert self_times(tree) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0, 1.0])


def _fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.present = lambda x: x + 1
    mod.idle = lambda: None
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", mod)
    return mod


def test_missing_names_are_reported_not_raised(monkeypatch):
    mod = _fake_module(monkeypatch)
    original = mod.present
    tracer = Tracer([
        Target("fake_layer", "present", "layer.present"),
        Target("fake_layer", "idle", "layer.idle"),
        Target("fake_layer", "deleted", "layer.deleted"),
        Target("no_such_module_anywhere", "fn", "layer.gone"),
    ])
    with tracer:
        assert mod.present(1) == 2
    assert mod.present is original
    assert [s.name for s in tracer.spans] == ["layer.present"]
    missing = tracer.missing(tracer.spans)
    assert missing == {
        "layer.idle": "fake_layer.idle never called",
        "layer.deleted": "fake_layer.deleted absent",
        "layer.gone": "no_such_module_anywhere.fn absent",
    }
    table = {
        "layer.present.calls": spans.calls("layer.present"),
        "layer.deleted.s": spans.total("layer.deleted"),
    }
    metrics, missing_metrics = evaluate(table, [tracer.spans], missing)
    assert metrics["layer.present.calls"]["value"] == 1
    assert metrics["layer.deleted.s"] == {"value": 0.0, "unit": "s"}
    assert missing_metrics == {"layer.deleted.s": "layer.deleted: fake_layer.deleted absent"}


def test_spans_nest_and_carry_video_and_counters(monkeypatch):
    mod = _fake_module(monkeypatch)
    mod.load = lambda path: mod.present(1)
    tracer = Tracer([
        Target("fake_layer", "load", "layer.load", lambda a, kw, r: {"result": r}, sets_video=True),
        Target("fake_layer", "present", "layer.present"),
    ])
    with tracer:
        mod.load("corpus/v0007.sfeat")
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.video == inner.video == "v0007"
    assert outer.counters == {"result": 2}


def test_every_target_of_the_pipeline_exists():
    tracer = Tracer()
    with tracer:
        pass
    assert tracer.absent == []
