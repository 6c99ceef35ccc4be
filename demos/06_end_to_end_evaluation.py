#!/usr/bin/env python3
"""The full pipeline as files on disk, plus the localization report.

Mirrors what the command line does: synthesize a corpus, train the saliency
head, run refine / score / segment / retrieve / assemble / eval as chained
stages, and read the report. Every artifact is reproducible byte-for-byte
from the config seed.
"""

import json
import tempfile
from pathlib import Path

from saliseg import PipelineConfig, SynthSpec, generate_corpus, write_corpus
from saliseg.pipeline import run_pipeline, train_saliency_from_files

cfg = PipelineConfig(seed=42)
spec = SynthSpec(n_videos=10, noise_sigma=0.1, events_per_video=(5, 7),
                 event_len=(4, 12), n_caption_concepts=10, seed=42)

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    data = root / "data"
    write_corpus(generate_corpus(spec), data)
    print(f"corpus written to {data}")

    head = root / "head.shd"
    result = train_saliency_from_files(
        data / "features", data / "annotations.jsonl", cfg, head, epochs=8
    )
    print(f"trained saliency head: loss {result.loss_curve[0]:.3f} -> {result.loss_curve[-1]:.3f}")

    out = root / "run"
    report = run_pipeline(
        cfg, data / "features", data / "annotations.jsonl",
        data / "datastore.sds", head, out,
    )
    print("\nartifact tree:")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print(f"  {p.relative_to(out)}  ({p.stat().st_size} bytes)")

    print("\nlocalization report (corpus means):")
    print((out / "report.txt").read_text())

    manifest = json.loads((out / "manifest.json").read_text())
    print(f"manifest lists {len(manifest['files'])} files with content hashes")

    base = run_pipeline(
        cfg, data / "features", data / "annotations.jsonl",
        data / "datastore.sds", head, root / "run_uniform", baseline="uniform",
    )
    print(f"\nuniform-chunking baseline Mean IoU {base.mean_iou:.3f} "
          f"vs transport {report.mean_iou:.3f}")
