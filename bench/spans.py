"""In-memory spans recorded around the public functions of each module.

The tracer wraps a public name in the module where its caller looks it up
(``saliseg.pipeline.solve_fugw``, ``saliseg.transport.kl_divergence``...),
so no program file changes. Each call records one span: name, start, end,
parent span, video id and counters taken from the call's arguments or
result. Spans stay in memory until the benchmark writes them out.

A wrapped name that no longer exists, or that is never called, is reported
as missing rather than raising: planned refactors delete or reroute some of
these call paths, and the benchmark must keep running across them.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    video: str | None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(obj) -> int:
    """Summed ``nbytes`` of the array fields of a dataclass instance."""
    return sum(getattr(getattr(obj, f.name), "nbytes", 0) for f in fields(obj))


# Counter hooks: (args, kwargs, result) -> {counter: value}.
def _read_bytes(a, kw, r):
    return {"read_bytes": os.path.getsize(a[0])}


def _write_bytes(a, kw, r):
    return {"write_bytes": os.path.getsize(a[1])}


def _solve_stats(a, kw, r):
    return {"outer_iters": r.iterations, "unconverged": int(not r.converged)}


def _problem_bytes(a, kw, r):
    return {"problem_bytes": _nbytes(r)}


def _segment_count(a, kw, r):
    return {"segments": len(r.segments)}


def _scanned(a, kw, r):
    return {"scanned": len(a[0])}


def _train_steps(a, kw, r):
    return {"steps": r.state.step}


@dataclass(frozen=True)
class Target:
    """One wrapped name: where the caller looks it up, and its span name."""

    module: str
    attr: str
    span: str
    counters: object = None  # hook returning counters, or None
    sets_video: bool = False  # the first argument is a feature file of one video
    clears_video: bool = False  # a stage or run boundary: no video yet


_P = "saliseg.pipeline"
TARGETS = (
    Target(_P, "run_pipeline", "pipeline.run", clears_video=True),
    Target(_P, "stage_refine", "pipeline.refine", clears_video=True),
    Target(_P, "stage_score_saliency", "pipeline.score", clears_video=True),
    Target(_P, "stage_segment", "pipeline.segment", clears_video=True),
    Target(_P, "stage_retrieve", "pipeline.retrieve", clears_video=True),
    Target(_P, "stage_assemble", "pipeline.assemble", clears_video=True),
    Target(_P, "stage_eval", "pipeline.eval", clears_video=True),
    Target(_P, "load_saliency", "pipeline.load_saliency"),
    Target(_P, "load_retrieval", "pipeline.load_retrieval"),
    Target(_P, "load_segments", "pipeline.load_segments"),
    Target(_P, "load_features", "data.load_features", _read_bytes, sets_video=True),
    Target(_P, "save_features", "data.save_features", _write_bytes),
    Target(_P, "refine_features", "refine.refine_features"),
    Target("saliseg.refine", "window_attention", "refine.window_attention"),
    Target(_P, "saliency_forward", "saliency.saliency_forward"),
    Target(_P, "train_saliency", "saliency.train_saliency", _train_steps),
    Target(_P, "init_anchors", "transport.init_anchors"),
    Target(_P, "build_problem", "transport.build_problem", _problem_bytes),
    Target(_P, "solve_fugw", "transport.solve_fugw", _solve_stats),
    Target("saliseg.transport", "gw_gradient", "transport.gw_gradient"),
    Target("saliseg.transport", "fused_objective", "transport.fused_objective"),
    Target("saliseg.transport", "gw_value", "transport.gw_value"),
    Target("saliseg.transport", "kl_divergence", "transport.kl_divergence"),
    Target(_P, "decode_segments", "segments.decode_segments", _segment_count),
    Target(_P, "score_segments", "segments.score_segments"),
    Target(_P, "select_topk", "segments.select_topk"),
    Target("saliseg.store", "pool_segment_features", "segments.pool_segment_features"),
    Target(_P, "load_datastore", "store.load_datastore", _read_bytes),
    Target("saliseg.store", "query_topp", "store.query_topp", _scanned),
    Target(_P, "retrieval_vectors", "store.retrieval_vectors"),
    Target("saliseg.store", "build_datastore", "store.build_datastore"),
    Target("saliseg.store", "save_datastore", "store.save_datastore"),
    Target("saliseg.synth", "build_datastore", "store.build_datastore"),
    Target("saliseg.synth", "save_datastore", "store.save_datastore"),
    Target(_P, "init_prompt_map", "prompts.init_prompt_map"),
    Target(_P, "project_saliency", "prompts.project_saliency"),
    Target(_P, "assemble_input", "prompts.assemble_input"),
    Target(_P, "save_decoder_input", "prompts.save_decoder_input", _write_bytes),
    Target(_P, "evaluate_corpus", "metrics.evaluate_corpus"),
    Target("saliseg.synth", "generate_corpus", "synth.generate_corpus"),
    Target("saliseg.synth", "write_corpus", "synth.write_corpus"),
)


class Tracer:
    """Records spans for the wrapped targets while installed.

    Calls are assumed to come from one thread (the pipeline runs with its
    default single job), so the open spans form one stack.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []  # "module.attr" of targets that do not exist
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._video: str | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for t in self.targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                module = None
            original = getattr(module, t.attr, None)
            if not callable(original):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            self._originals.append((module, t.attr, original))
            setattr(module, t.attr, self._wrap(t, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, t: Target, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if t.clears_video:
                self._video = None
            elif t.sets_video and args:
                self._video = Path(args[0]).stem
            index = len(self.spans)
            span = Span(t.span, clock(), 0.0, self._stack[-1] if self._stack else None, self._video)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if t.counters is not None:
                try:
                    span.counters = t.counters(args, kwargs, result)
                except Exception as exc:  # instrumentation must not fail the run
                    self.hook_errors[t.span] = repr(exc)
            return result

        return traced

    # -- reading ------------------------------------------------------------
    def missing(self, spans: list[Span]) -> dict[str, str]:
        """Span names never recorded in ``spans``, with where they were looked up."""
        called = {s.name for s in spans}
        out: dict[str, list[str]] = {}
        for t in self.targets:
            if t.span not in called:
                where = f"{t.module}.{t.attr}"
                out.setdefault(t.span, []).append(
                    f"{where} {'absent' if where in self.absent else 'never called'}"
                )
        return {name: "; ".join(reasons) for name, reasons in out.items()}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# A metric is (unit, span names it reads, function of one repeat's spans
# grouped by name and of their self times keyed by id).
def total(*names):
    """Summed duration of the named spans, in seconds."""
    return ("s", names, lambda by, st: sum(s.duration for n in names for s in by.get(n, ())))


def calls(*names):
    return ("count", names, lambda by, st: sum(len(by.get(n, ())) for n in names))


def counter(name, key, unit="count"):
    return (unit, (name,), lambda by, st: sum(s.counters.get(key, 0) for s in by.get(name, ())))


def self_time(name):
    return ("s", (name,), lambda by, st: sum(st[id(s)] for s in by.get(name, ())))


def percentile_ms(name, q):
    return ("ms", (name,), lambda by, st: 1e3 * _percentile([s.duration for s in by.get(name, ())], q))


_JSONL = ("pipeline.load_saliency", "pipeline.load_retrieval", "pipeline.load_segments")
_PROMPTS = (
    "prompts.init_prompt_map", "prompts.project_saliency",
    "prompts.assemble_input", "prompts.save_decoder_input",
)

# Per-layer metrics of one timed repeat.
REPEAT_METRICS = {
    **{
        f"pipeline.{stage}.s": total(f"pipeline.{stage}")
        for stage in ("refine", "score", "segment", "retrieve", "assemble", "eval")
    },
    "pipeline.self.s": self_time("pipeline.run"),
    "pipeline.jsonl_load.calls": calls(*_JSONL),
    "pipeline.jsonl_load.s": total(*_JSONL),
    "data.load_features.calls": calls("data.load_features"),
    "data.load_features.s": total("data.load_features"),
    "data.read_bytes": counter("data.load_features", "read_bytes", "B"),
    "data.save_features.calls": calls("data.save_features"),
    "data.save_features.s": total("data.save_features"),
    "data.write_bytes": counter("data.save_features", "write_bytes", "B"),
    "refine.refine_features.s": total("refine.refine_features"),
    "refine.window_attention.calls": calls("refine.window_attention"),
    "saliency.saliency_forward.s": total("saliency.saliency_forward"),
    "transport.init_anchors.s": total("transport.init_anchors"),
    "transport.build_problem.s": total("transport.build_problem"),
    "transport.solve_fugw.s": total("transport.solve_fugw"),
    "transport.solve_fugw.p50_ms": percentile_ms("transport.solve_fugw", 50),
    "transport.solve_fugw.p90_ms": percentile_ms("transport.solve_fugw", 90),
    "transport.solve_self.s": self_time("transport.solve_fugw"),
    **{
        f"transport.{fn}.{kind}": (calls if kind == "calls" else total)(f"transport.{fn}")
        for fn in ("gw_gradient", "fused_objective", "gw_value", "kl_divergence")
        for kind in ("calls", "s")
    },
    "transport.outer_iters": counter("transport.solve_fugw", "outer_iters"),
    "transport.unconverged": counter("transport.solve_fugw", "unconverged"),
    "transport.problem_bytes": counter("transport.build_problem", "problem_bytes", "B"),
    "segments.decode.s": total("segments.decode_segments", "segments.score_segments", "segments.select_topk"),
    "segments.count": counter("segments.decode_segments", "segments"),
    "segments.pool_segment_features.s": total("segments.pool_segment_features"),
    "store.load_datastore.s": total("store.load_datastore"),
    "store.load_bytes": counter("store.load_datastore", "read_bytes", "B"),
    "store.query_topp.calls": calls("store.query_topp"),
    "store.query_topp.s": total("store.query_topp"),
    "store.query_topp.p50_ms": percentile_ms("store.query_topp", 50),
    "store.query_topp.p90_ms": percentile_ms("store.query_topp", 90),
    "store.entries_scanned": counter("store.query_topp", "scanned"),
    "store.retrieval_vectors.s": total("store.retrieval_vectors"),
    "prompts.s": total(*_PROMPTS),
    "prompts.write_bytes": counter("prompts.save_decoder_input", "write_bytes", "B"),
    "metrics.evaluate_corpus.s": total("metrics.evaluate_corpus"),
}

# Per-layer metrics of one set-up repetition.
SETUP_METRICS = {
    "saliency.train_saliency.s": total("saliency.train_saliency"),
    "saliency.train_steps": counter("saliency.train_saliency", "steps"),
    "store.build_datastore.s": total("store.build_datastore"),
    "store.save_datastore.s": total("store.save_datastore"),
    "synth.generate_corpus.s": total("synth.generate_corpus"),
    "synth.write_corpus.s": total("synth.write_corpus"),
}


def evaluate(table: dict, span_groups: list[list[Span]], missing: dict[str, str]):
    """Median over groups (repeats) of each metric in ``table``.

    Returns ``(metrics, missing_metrics)``: a metric whose spans are all
    missing is reported as 0 and named in ``missing_metrics`` with why.
    """
    per_group: dict[str, list[float]] = {name: [] for name in table}
    for group in span_groups:
        by: dict[str, list[Span]] = {}
        for s in group:
            by.setdefault(s.name, []).append(s)
        st = dict(zip(map(id, group), self_times(group)))
        for name, (_unit, _needs, fn) in table.items():
            per_group[name].append(float(fn(by, st)))
    metrics, missing_metrics = {}, {}
    for name, (unit, needs, _fn) in table.items():
        values = per_group[name]
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        gone = [f"{n}: {missing[n]}" for n in needs if n in missing]
        if len(gone) == len(needs):
            missing_metrics[name] = "; ".join(gone)
    return metrics, missing_metrics

