"""The decisions a fixed seeded run makes stay what ``tests/data/decisions.json``
records.

Two synthetic corpora go through ``run_pipeline``, as the benchmark's
workloads do at two lengths: 20 videos at F=100 with the corpus' own
12-entry store, and 4 videos at F=400 with a seeded 2000-entry store. Per
video the file holds each segment's ``[anchor, start, end]``, the selected
indices and the neighbour ids of each selected segment in rank order; per
corpus it holds F1 and Mean IoU, which follow from those integers. It holds
no segment score or similarity, whose last bits move with the BLAS kernel
and the summation grouping while the decisions should not.

A change that means to move a decision regenerates the file with

    PYTHONPATH=src python tests/test_decisions.py

and the JSON diff shows what moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from saliseg.data import PipelineConfig, load_records
from saliseg.pipeline import run_pipeline, train_saliency_from_files
from saliseg.rng import substream
from saliseg.store import DatastoreEntry, build_datastore, save_datastore
from saliseg.synth import SynthSpec, generate_corpus, write_corpus

DECISIONS = Path(__file__).resolve().parent / "data" / "decisions.json"

# name: (videos, F, event lengths, datastore size or None for the corpus' own)
CORPORA = {
    "short": (20, 100, (8, 11), None),
    "long": (4, 400, (32, 44), 2_000),
}
SEED = 1
# F1 and Mean IoU are ratios of the recorded integers; a moved decision
# shifts them by far more than their rounding.
RATIO_TOL = 1e-12


def run_corpus(name: str, root: Path) -> dict:
    """Synthesize one corpus under ``root``, train the head, run the pipeline
    and return its decisions."""
    n_videos, frames, event_len, store_size = CORPORA[name]
    corpus = generate_corpus(SynthSpec(n_videos=n_videos, F=frames, event_len=event_len, seed=SEED))
    inputs = root / "inputs"
    write_corpus(corpus, inputs)
    if store_size is not None:
        store = corpus.datastore
        vecs = substream(SEED, "decisions", "distractors").standard_normal(
            (store_size - len(store), store.dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        entries = [DatastoreEntry(*e) for e in zip(store.entry_ids, store.captions, store.embeddings)]
        entries += [DatastoreEntry(f"d{i:06d}", f"distractor {i}", v.astype(np.float32))
                    for i, v in enumerate(vecs)]
        save_datastore(build_datastore(entries), inputs / "datastore.sds")
    cfg = PipelineConfig(F_max=frames, seed=SEED)
    train_saliency_from_files(inputs / "features", inputs / "annotations.jsonl", cfg,
                              inputs / "head.shd")
    out = root / "run"
    report = run_pipeline(cfg, inputs / "features", inputs / "annotations.jsonl",
                          inputs / "datastore.sds", inputs / "head.shd", out)
    retrieval = load_records(out / "retrieval.jsonl")
    videos = {}
    for video_id, doc in load_records(out / "segments.jsonl").items():
        videos[video_id] = {
            "segments": [[s["anchor"], s["start"], s["end"]] for s in doc["segments"]],
            "selected": doc["selected"],
            "neighbors": [[eid for eid, _ in s["neighbors"]]
                          for s in retrieval[video_id]["segments"]],
        }
    return {"corpus": {"f1": report.f1, "mean_iou": report.mean_iou}, "videos": videos}


def changes(name: str, want: dict, got: dict) -> list[str]:
    """One line per corpus ratio, video field or selected segment's
    neighbour list that differs."""
    lines = []
    for key in ("f1", "mean_iou"):
        if abs(got["corpus"][key] - want["corpus"][key]) > RATIO_TOL:
            lines.append(f"{name}: {key} {want['corpus'][key]} -> {got['corpus'][key]}")
    for video_id in sorted(want["videos"].keys() | got["videos"].keys()):
        old, new = want["videos"].get(video_id), got["videos"].get(video_id)
        if old is None or new is None:
            lines.append(f"{name}/{video_id}: {'added' if old is None else 'missing'}")
            continue
        lines += [f"{name}/{video_id}: {field} {old[field]} -> {new[field]}"
                  for field in ("segments", "selected") if old[field] != new[field]]
        if len(old["neighbors"]) != len(new["neighbors"]):
            lines.append(f"{name}/{video_id}: neighbors for {len(old['neighbors'])}"
                         f" -> {len(new['neighbors'])} segments")
            continue
        lines += [f"{name}/{video_id}: neighbors[{i}] {a} -> {b}"
                  for i, (a, b) in enumerate(zip(old["neighbors"], new["neighbors"])) if a != b]
    return lines


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_decisions_match_the_record(name, tmp_path):
    want = json.loads(DECISIONS.read_text(encoding="utf-8"))[name]
    moved = changes(name, want, run_corpus(name, tmp_path))
    assert not moved, "decisions moved:\n" + "\n".join(moved)


def _dump(value, depth: int = 0) -> str:
    """JSON with one line per object key and each list on one line."""
    if not isinstance(value, dict):
        return json.dumps(value)
    pad = "  " * (depth + 1)
    items = [f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in sorted(value.items())]
    return "{\n" + ",\n".join(items) + "\n" + "  " * depth + "}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: run_corpus(name, Path(tmp) / name) for name in CORPORA}
    DECISIONS.parent.mkdir(exist_ok=True)
    DECISIONS.write_text(_dump(record) + "\n", encoding="utf-8")
