"""File-level pipeline stages and the end-to-end runner.

Every stage reads its predecessor's files and writes its own, so the
subcommands can be chained by hand; :func:`run_pipeline` calls the very same
functions in order, which makes chained and monolithic execution byte
identical. Every stage visits the videos one at a time in sorted video-id
order, each as the valid rows that :func:`~saliseg.data.load_features`
returns: padding ends at that reader, so no stage slices or masks. Two
stages run one corpus kernel between two visits: segment builds each
video's transport problem, solves every problem of the corpus in one call
and then decodes each video from its plan; retrieve pools and checks each
video's queries, answers every query of the corpus in one call and then
writes each video's record. All randomness is drawn from named substreams
of the config seed, so reruns with the same inputs produce identical
artifact trees. The manifest deliberately contains no timings or timestamps
for the same reason; timings go to the log.

A video that fails a stage (a :class:`SalisegError`, including more frames
than ``F_max`` and a missing upstream record or record field) is logged and
skipped, so it is absent from that stage's output and from every later one;
with ``fail_fast`` the error propagates. An output that cannot be written (an
:class:`OutputError`) is not the video's fault and always ends the run; a
stage that writes one file after its loop checks that file before the first
video.

Record files are JSON Lines, one object per video, keys sorted:

- saliency: ``{"video_id": str, "scores": [valid_len floats], "prior":
  [valid_len floats]}``: the head's raw per-frame scores and their sigmoid
  (the transport problem normalizes the prior itself);
- retrieval: ``{"video_id": str, "segments": [{"index": int, "neighbors":
  [[entry_id, similarity], ...]}, ...], "vectors": [[D floats], ...]}``,
  one entry per selected segment in temporal order (``index`` into the
  video's segment list) and one retrieval vector per selected segment.

The segments layout is documented in :mod:`saliseg.segments`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    FrameFeatures,
    PipelineConfig,
    check_writable,
    derive_highlight_labels,
    load_annotations,
    load_features,
    load_records,
    make_dir,
    read_file,
    save_features,
    save_records,
    write_file,
)
from .errors import ConfigError, DataError, NumericalError, OutputError, SalisegError
from .metrics import evaluate_corpus, save_report
from .prompts import assemble_input, init_prompt_map, project_saliency, save_decoder_input
from .refine import refine_features
from .saliency import (
    EPOCHS,
    LEARNING_RATE,
    SaliencyExample,
    TrainResult,
    check_training,
    load_head,
    saliency_forward,
    saliency_prior,
    save_head,
    train_saliency,
)
from .segments import (
    baseline_kmeans,
    baseline_uniform,
    decode_segments,
    load_segments,
    score_segments,
    segments_to_doc,
    select_topk,
)
from .store import load_datastore, retrieval_vectors, segment_queries
from .transport import build_problem, init_anchors, solve_fugw

logger = logging.getLogger(__name__)

# Segmentation strategies: the transport plan, or a heuristic baseline.
BASELINES = ("none", "uniform", "kmeans")


def _check_baseline(baseline: str) -> None:
    if baseline not in BASELINES:
        raise ConfigError(f"unknown baseline {baseline!r}; expected one of {BASELINES}")


def _skips(path: Path, exc: SalisegError, fail_fast: bool) -> bool:
    """Whether ``exc`` only skips the video of ``path``, which is logged: a
    :class:`SalisegError` does unless ``fail_fast``; an :class:`OutputError`
    never does."""
    if fail_fast or isinstance(exc, OutputError):
        return False
    logger.error("%s: stage failed, video skipped: %s", path, exc)
    return True


@contextlib.contextmanager
def _video_errors(path: Path, fail_fast: bool):
    """Skip the video of ``path`` on a :class:`SalisegError` with a log line,
    or under ``fail_fast`` propagate it after a log line naming the file; an
    :class:`OutputError` always propagates."""
    try:
        yield
    except SalisegError as exc:
        if not _skips(path, exc, fail_fast):
            if not isinstance(exc, OutputError):
                logger.error("%s: stage failed", path)
            raise


def _take(items: list):
    """Yield the items of ``items`` in order, dropping each from the list as
    it is yielded, so that the consumer alone decides how long it lives."""
    items.reverse()
    while items:
        yield items.pop()


def _for_each_video(
    features_dir: str | Path, work, cfg: PipelineConfig, fail_fast: bool,
    kernel=None, finish=None,
) -> list:
    """Load every feature file in sorted order, run ``work(path, features)``
    on it and collect the results.

    A stage with a corpus kernel also passes ``kernel`` and ``finish``:
    ``work`` then prepares each video as a pair ``(context, input)``,
    ``kernel`` runs once on an iterator over the inputs and returns one
    result per input, and ``finish(context, result)`` runs per video in the
    same order; its values are returned. No input the kernel has taken
    stays referenced here, so the kernel may free each one once it is done.

    A video with more than ``cfg.F_max`` frames is a :class:`DataError`. A
    :class:`SalisegError` in ``work`` or ``finish`` skips that video with a
    log line, or under ``fail_fast`` propagates after a log line naming the
    file; an :class:`OutputError` always propagates. Either way the error
    that ends the run is the first in sorted video order, as in a loop that
    finishes each video before it prepares the next: an error in ``work``
    stops the preparing, and the videos before it go through the kernel and
    ``finish`` before it propagates.
    """
    paths = sorted(Path(features_dir).glob("*.sfeat"))
    if not paths:
        raise DataError(f"no .sfeat files in {features_dir}")
    done = []  # (path, value) of each video that has not failed
    stop = None  # (path, error) that ends the run once the videos before it are done
    for path in paths:
        try:
            f = load_features(path)
            if f.n_frames > cfg.F_max:
                raise DataError(f"{f.video_id}: {f.n_frames} frames exceed F_max={cfg.F_max}")
            done.append((path, work(path, f)))
        except SalisegError as exc:
            if not _skips(path, exc, fail_fast):
                stop = path, exc
                break
    if kernel is not None:
        inputs = [value for _, (_, value) in done]
        contexts = [(path, context) for path, (context, _) in done]
        done = []
        for (path, context), result in zip(contexts, kernel(_take(inputs)), strict=True):
            with _video_errors(path, fail_fast):
                done.append((path, finish(context, result)))
    if stop is not None:
        path, exc = stop
        with _video_errors(path, fail_fast):
            raise exc
    return [value for _, value in done]


# One reader serves both record kinds. The stages call it by kind, so a
# profile wrapping these module attributes counts the two loads apart.
load_saliency = load_retrieval = load_records


def _record(records: dict, video_id: str, kind: str, field: str | None = None):
    """The upstream ``kind`` record of one video, or its ``field``; a gap
    skips the video."""
    if video_id not in records:
        raise DataError(f"{video_id}: missing {kind} record")
    if field is None:
        return records[video_id]
    if field not in records[video_id]:
        raise DataError(f"{video_id}: {kind} record lacks '{field}'")
    return records[video_id][field]


def _is_numbers(values, n: int) -> bool:
    """Whether ``values`` is a JSON list of ``n`` numbers, each finite as a float."""
    try:
        return isinstance(values, list) and len(values) == n and all(
            type(v) in (int, float) and math.isfinite(v) for v in values)
    except OverflowError:  # an integer past the float range
        return False


def _frame_values(records: dict, f: FrameFeatures, kind: str, field: str) -> np.ndarray:
    """A per-frame field of one video's upstream record, which must be a
    list of exactly ``valid_len`` numbers; anything else skips the video."""
    values = _record(records, f.video_id, kind, field)
    if not _is_numbers(values, f.valid_len):
        raise DataError(f"{f.video_id}: {kind} '{field}' is not a list of {f.valid_len} numbers")
    return np.asarray(values, dtype=np.float64)


def _feature_rows(records: dict, f: FrameFeatures, kind: str, field: str) -> np.ndarray:
    """A field of one video's upstream record that must be a list of rows of
    exactly ``D`` numbers each; anything else skips the video."""
    rows = _record(records, f.video_id, kind, field)
    if not (isinstance(rows, list) and all(_is_numbers(row, f.dim) for row in rows)):
        raise DataError(f"{f.video_id}: {kind} '{field}' is not a list of rows of {f.dim} numbers")
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), f.dim)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_refine(
    features_dir: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
    fail_fast: bool = False,
) -> list[Path]:
    """Refine encoded features; spatial rows pass through untouched."""
    out = make_dir(out_dir)

    def work(path: Path, f: FrameFeatures) -> Path:
        refined = refine_features(f.encoded, cfg.windows)
        out_path = out / path.name
        save_features(dataclasses.replace(f, encoded=refined.astype(np.float32)), out_path)
        return out_path

    return _for_each_video(features_dir, work, cfg, fail_fast)


def stage_score_saliency(
    refined_dir: str | Path,
    head_path: str | Path,
    cfg: PipelineConfig,
    out_path: str | Path,
    fail_fast: bool = False,
) -> Path:
    """Score refined features; write scores and priors as JSON Lines."""
    head = load_head(head_path)
    check_writable(out_path)

    def work(path: Path, f: FrameFeatures) -> dict:
        if f.dim != head.dim:
            raise DataError(f"{f.video_id}: feature dim {f.dim} != head dim {head.dim}")
        scores = saliency_forward(head, f.encoded)
        p_s = saliency_prior(scores)
        return {"video_id": f.video_id, "scores": scores.tolist(), "prior": p_s.tolist()}

    return save_records(_for_each_video(refined_dir, work, cfg, fail_fast), out_path)


def stage_segment(
    features_dir: str | Path,
    saliency_path: str | Path,
    cfg: PipelineConfig,
    out_path: str | Path,
    baseline: str = "none",
    dump_plan_dir: str | Path | None = None,
    fail_fast: bool = False,
) -> Path:
    """Segment each video from its transport plan, or a baseline strategy.

    Each video's transport problem is built per video, one
    :func:`solve_fugw` call solves the problems of the whole corpus, and
    each video is then decoded from its plan. A solve that failed skips its
    video alone. A solve that did not converge raises
    :class:`NumericalError` under ``fail_fast``; otherwise it logs one
    warning naming the video and its outer steps, and the video keeps its
    segments.
    """
    _check_baseline(baseline)
    saliency = load_saliency(saliency_path)
    check_writable(out_path)
    if dump_plan_dir is not None:
        make_dir(dump_plan_dir)

    def work(path: Path, f: FrameFeatures) -> dict:  # a baseline strategy
        _frame_values(saliency, f, "saliency", "prior")  # checked as for the transport
        if baseline == "uniform":
            segs = baseline_uniform(f.valid_len, cfg.top_k)
        else:
            xs = f.spatial.astype(np.float64)
            segs = select_topk(baseline_kmeans(xs, cfg.K, cfg.seed, f.video_id), cfg.top_k)
        return segments_to_doc(f.video_id, segs)

    def prepare(path: Path, f: FrameFeatures) -> tuple:
        xs = f.spatial.astype(np.float64)
        p_s = _frame_values(saliency, f, "saliency", "prior")
        anchors = init_anchors(xs, cfg.K, cfg.seed, f.video_id)
        prob = build_problem(xs, anchors, p_s, cfg.alpha, cfg.gamma, cfg.epsilon, cfg.mu)
        return (f.video_id, f.valid_len), prob

    def finish(video: tuple, plan) -> dict:
        video_id, valid_len = video
        if isinstance(plan, NumericalError):
            raise plan
        if not plan.converged:
            message = (f"{video_id}: transport solver did not converge"
                       f" in {plan.iterations} outer steps")
            if fail_fast:
                raise NumericalError(message)
            logger.warning("%s", message)
        segs = select_topk(score_segments(decode_segments(plan.T), plan.T), cfg.top_k)
        if dump_plan_dir is not None:
            doc = {"F_v": valid_len, "K": cfg.K, "T": plan.T.flatten().tolist()}
            write_file(Path(dump_plan_dir) / f"{video_id}.json", json.dumps(doc, sort_keys=True) + "\n")
        return segments_to_doc(video_id, segs)

    if baseline == "none":
        # The solver frees each problem once its batch is solved.
        records = _for_each_video(features_dir, prepare, cfg, fail_fast, solve_fugw, finish)
    else:
        records = _for_each_video(features_dir, work, cfg, fail_fast)
    return save_records(records, out_path)


def stage_retrieve(
    features_dir: str | Path,
    saliency_path: str | Path,
    segments_path: str | Path,
    store_path: str | Path,
    cfg: PipelineConfig,
    out_path: str | Path,
    fail_fast: bool = False,
) -> Path:
    """Retrieve top-p captions per selected segment; write vectors + neighbors.

    Each video's pooled queries are built and checked per video, so a bad
    one skips that video alone; one :func:`retrieval_vectors` call then
    answers every query of the corpus, and the records follow from it.
    """
    saliency = load_saliency(saliency_path)
    segments = load_segments(segments_path)
    store = load_datastore(store_path)
    check_writable(out_path)

    def prepare(path: Path, f: FrameFeatures) -> tuple:
        segs = _record(segments, f.video_id, "segments")
        p_s = _frame_values(saliency, f, "saliency", "prior")
        return (f.video_id, segs), segment_queries(segs, f.spatial.astype(np.float64), p_s, store)

    def answer(queries) -> list:
        queries = list(queries)
        everything = np.concatenate(queries or [np.zeros((0, store.dim))])
        neighbors, vectors = retrieval_vectors(everything, store, cfg.top_p)
        bounds = [0, *itertools.accumulate(map(len, queries))]
        return [(neighbors[lo:hi], vectors[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def finish(video: tuple, answered: tuple) -> dict:
        (video_id, segs), (neighbors, vectors) = video, answered
        return {
            "video_id": video_id,
            "segments": [{"index": int(idx), "neighbors": hits}
                         for idx, hits in zip(segs.selected, neighbors)],
            "vectors": vectors.tolist(),
        }

    return save_records(
        _for_each_video(features_dir, prepare, cfg, fail_fast, answer, finish), out_path)


def stage_assemble(
    refined_dir: str | Path,
    saliency_path: str | Path,
    retrieval_path: str | Path,
    cfg: PipelineConfig,
    out_dir: str | Path,
    fail_fast: bool = False,
) -> list[Path]:
    """Build decoder-input sequences [frames; prompts; retrieval; text] with
    an empty text section."""
    saliency = load_saliency(saliency_path)
    retrieval = load_retrieval(retrieval_path)
    out = make_dir(out_dir)

    def work(path: Path, f: FrameFeatures) -> Path:
        scores = _frame_values(saliency, f, "saliency", "scores")
        vectors = _feature_rows(retrieval, f, "retrieval", "vectors")
        prompts = project_saliency(scores, init_prompt_map(f.dim, cfg.seed))
        d_in = assemble_input(f.encoded, prompts, vectors, np.zeros((0, f.dim)))
        out_path = out / f"{f.video_id}.stin"
        save_decoder_input(d_in, out_path)
        return out_path

    return _for_each_video(refined_dir, work, cfg, fail_fast)


def stage_eval(
    segments_path: str | Path,
    annotations_path: str | Path,
    out_json: str | Path,
    out_table: str | Path,
    out_csv: str | Path | None = None,
):
    """Evaluate selected segments against annotated events; write the JSON
    report, its text table and, given ``out_csv``, a CSV table."""
    segments = load_segments(segments_path)
    anns = load_annotations(annotations_path)
    per_video = {}
    for ann in anns:
        gt = [(s, e) for s, e in ann.events]
        if ann.video_id in segments:
            pred = [(s.start, s.end) for s in segments[ann.video_id].selected_segments()]
        else:
            logger.warning("%s: no predictions", ann.video_id)
            pred = []
        per_video[ann.video_id] = (pred, gt)
    corpus, reports = evaluate_corpus(per_video)
    save_report(corpus, reports, out_json, out_table, out_csv)
    return corpus


def train_saliency_from_files(
    features_dir: str | Path,
    annotations_path: str | Path,
    cfg: PipelineConfig,
    out_head: str | Path,
    epochs: int = EPOCHS,
    learning_rate: float = LEARNING_RATE,
    fail_fast: bool = False,
) -> TrainResult:
    """Refine raw features, derive labels, train the head, save the checkpoint.

    A video whose annotation and feature file disagree on ``valid_len`` is
    a :class:`DataError`, so it is skipped (or ends the run under ``fail_fast``).
    A bad ``epochs`` or ``learning_rate`` fails before any file is read.
    """
    check_training(epochs, learning_rate)
    anns = {a.video_id: a for a in load_annotations(annotations_path)}
    check_writable(out_head)

    def build_example(path: Path, f: FrameFeatures) -> SaliencyExample | None:
        if f.video_id not in anns:
            logger.warning("%s: no annotation, skipped", f.video_id)
            return None
        ann = anns[f.video_id]
        if ann.valid_len != f.valid_len:
            raise DataError(
                f"{f.video_id}: annotation valid_len {ann.valid_len}"
                f" != feature valid_len {f.valid_len}"
            )
        refined = refine_features(f.encoded, cfg.windows)
        return SaliencyExample(f.video_id, refined, derive_highlight_labels(ann))

    examples = [
        ex for ex in _for_each_video(features_dir, build_example, cfg, fail_fast) if ex is not None
    ]
    result = train_saliency(examples, cfg, epochs=epochs, learning_rate=learning_rate)
    save_head(result.head, out_head)
    return result


# ---------------------------------------------------------------------------
# End-to-end runner
# ---------------------------------------------------------------------------

def run_pipeline(
    cfg: PipelineConfig,
    features_dir: str | Path,
    annotations_path: str | Path,
    store_path: str | Path,
    head_path: str | Path,
    out_dir: str | Path,
    baseline: str = "none",
    dump_plan: bool = False,
    fail_fast: bool = False,
):
    """Refine, score, segment, retrieve, assemble, evaluate; write a manifest.

    The decoder inputs under ``tin/`` hold an empty text section.

    ``out_dir`` must be new or empty, so no earlier run's file passes as this run's.
    """
    _check_baseline(baseline)
    t0 = time.monotonic()
    out = make_dir(out_dir)
    if any(out.glob("*")):
        raise OutputError(f"{out}: not empty; a run starts from a new or empty directory")

    stage_refine(features_dir, out / "refined", cfg, fail_fast)
    stage_score_saliency(out / "refined", head_path, cfg, out / "saliency.jsonl", fail_fast)
    stage_segment(
        features_dir,
        out / "saliency.jsonl",
        cfg,
        out / "segments.jsonl",
        baseline=baseline,
        dump_plan_dir=(out / "plans") if dump_plan else None,
        fail_fast=fail_fast,
    )
    stage_retrieve(
        features_dir,
        out / "saliency.jsonl",
        out / "segments.jsonl",
        store_path,
        cfg,
        out / "retrieval.jsonl",
        fail_fast,
    )
    stage_assemble(
        out / "refined",
        out / "saliency.jsonl",
        out / "retrieval.jsonl",
        cfg,
        out / "tin",
        fail_fast,
    )
    corpus = stage_eval(
        out / "segments.jsonl", annotations_path, out / "report.json", out / "report.txt"
    )

    files = {
        str(p.relative_to(out)): hashlib.sha256(read_file(p)).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    config_doc = json.loads(cfg.to_json())
    manifest = {
        "config": config_doc,
        "baseline": baseline,
        "versions": {"saliseg": __version__, "numpy": np.__version__},
        "files": files,
    }
    write_file(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    logger.info("pipeline finished in %.2fs", time.monotonic() - t0)
    return corpus
