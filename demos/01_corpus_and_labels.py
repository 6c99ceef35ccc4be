#!/usr/bin/env python3
"""Generate a synthetic corpus and derive highlight labels from annotations.

Walks through the data model end to end: seeded generation, the binary
feature file format, annotation linting, and the label derivation that
feeds saliency training.
"""

import tempfile
from pathlib import Path

import numpy as np

from saliseg import (
    SynthSpec,
    derive_highlight_labels,
    generate_corpus,
    load_features,
    save_features,
    write_corpus,
)
from saliseg.data import lint_annotations

spec = SynthSpec(n_videos=4, F=60, D=16, events_per_video=(3, 4), event_len=(5, 9),
                 noise_sigma=0.05, n_caption_concepts=6, seed=7)
corpus = generate_corpus(spec)

print(f"generated {len(corpus.features)} videos, {len(corpus.datastore)} caption concepts")
f = corpus.features[0]
ann = corpus.annotations[0]
print(f"\n{f.video_id}: {f.n_frames} frames x {f.dim} dims, valid_len={f.valid_len}")
print(f"events: {list(ann.events)}")
print(f"concepts: {list(corpus.truth[0].concepts)}")

labels = derive_highlight_labels(ann, f.n_frames, f.valid_len)
print(f"\nhighlight labels H ({int(labels.sum())} ones):")
print("".join(str(int(v)) for v in labels))
print(f"valid_len: {f.valid_len} of {f.n_frames} frames (frames from valid_len on are padding)")

warnings = lint_annotations(corpus.annotations)
print(f"\nlint warnings: {warnings or 'none (events are disjoint)'}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "video.sfeat"
    save_features(f, path)
    size = path.stat().st_size
    again = load_features(path)
    identical = again.spatial.tobytes() == f.spatial.tobytes()
    print(f"\nfeature file round trip: {size} bytes, bit-identical={identical}")

    out = Path(tmp) / "corpus"
    write_corpus(corpus, out)
    names = sorted(p.name for p in out.rglob("*") if p.is_file())[:6]
    print(f"corpus directory holds: {names} ...")

event_rows = corpus.features[0].spatial[ann.events[0][0] : ann.events[0][1]]
proto = corpus.prototypes[int(corpus.truth[0].concepts[0][1:])]
drift = float(np.linalg.norm(event_rows.mean(axis=0) - proto))
print(f"\nmean event frame sits {drift:.3f} from its generating prototype (noise sigma 0.05)")
