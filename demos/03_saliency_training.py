#!/usr/bin/env python3
"""Train the frame-saliency head and inspect what it learned.

The head is supervised with binary labels derived from event annotations and
a listwise softmax loss: all valid frames compete for probability
mass, annotated frames are pushed up. On a held-out split the trained scores
separate event frames from background by a wide margin.
"""

import numpy as np

from saliseg import (
    PipelineConfig,
    SaliencyExample,
    RefineConfig,
    SynthSpec,
    derive_highlight_labels,
    generate_corpus,
    refine_features,
    saliency_forward,
    saliency_prior,
    train_saliency,
)

cfg = PipelineConfig(seed=1)
corpus = generate_corpus(SynthSpec(n_videos=24, noise_sigma=0.1, seed=5))
refine_cfg = RefineConfig(windows=cfg.windows)

examples = []
for f, ann in zip(corpus.features, corpus.annotations):
    refined = refine_features(f.encoded, refine_cfg)
    examples.append(SaliencyExample(f.video_id, refined, derive_highlight_labels(ann)))

train, held = examples[:18], examples[18:]
result = train_saliency(train, cfg, epochs=10)
print("per-epoch mean training loss (saliency term scaled by lambda):")
for i, loss in enumerate(result.loss_curve):
    bar = "#" * int((loss / result.loss_curve[0]) * 40)
    print(f"  epoch {i:2d}  {loss:8.3f}  {bar}")

inside, outside = [], []
for ex in held:
    scores = saliency_forward(result.head, ex.features).scores
    inside.extend(scores[ex.labels > 0])
    outside.extend(scores[ex.labels == 0])
inside, outside = np.array(inside), np.array(outside)
se = np.sqrt(inside.var(ddof=1) / len(inside) + outside.var(ddof=1) / len(outside))
print(f"\nheld-out scores: events {inside.mean():.3f} vs background {outside.mean():.3f}"
      f" ({(inside.mean() - outside.mean()) / se:.0f} standard errors apart)")

ex = held[0]
scores = saliency_forward(result.head, ex.features).scores
p_s = saliency_prior(scores)
line = "".join("#" if s > scores.mean() else "." for s in scores)
truth = "".join("E" if l > 0 else " " for l in ex.labels)
print(f"\nframes scoring above the video mean for {ex.video_id} (# = predicted salient):")
print(f"  pred  {line}")
print(f"  truth {truth}")
print(f"sigmoid prior: mass {p_s.sum():.3f} over {len(p_s)} valid frames")
