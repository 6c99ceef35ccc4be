#!/usr/bin/env python3
"""Saliency-guided optimal-transport segmentation versus the baselines.

Solves the fused problem (cosine matching cost with a saliency discount, a
quadratic temporal-structure term, KL-relaxed frame marginals, hard uniform
anchor marginals), decodes the plan into contiguous segments, scores and
ranks them, and compares localization quality against uniform chunking and
k-means run-length segments.
"""

from dataclasses import replace

import numpy as np

from saliseg import (
    PipelineConfig,
    SaliencyExample,
    SynthSpec,
    baseline_kmeans,
    baseline_uniform,
    decode_segments,
    derive_highlight_labels,
    generate_corpus,
    init_anchors,
    kl_divergence,
    refine_features,
    saliency_forward,
    saliency_prior,
    score_segments,
    segment_quality,
    select_topk,
    solve_fugw,
    train_saliency,
)
from saliseg.transport import build_problem

cfg = PipelineConfig()
corpus = generate_corpus(
    SynthSpec(n_videos=12, noise_sigma=0.1, events_per_video=(5, 7),
              event_len=(4, 12), n_caption_concepts=10, seed=11)
)
examples = []
for f, ann in zip(corpus.features, corpus.annotations):
    refined = refine_features(f.encoded, cfg.windows)
    examples.append(SaliencyExample(f.video_id, refined, derive_highlight_labels(ann)))
head = train_saliency(examples, replace(cfg, seed=3), epochs=8).head

f, ex, ann = corpus.features[0], examples[0], corpus.annotations[0]
xs = f.spatial.astype(np.float64)
p_s = saliency_prior(saliency_forward(head, ex.features))

anchors = init_anchors(xs, cfg.K, cfg.seed, f.video_id)
prob = build_problem(xs, anchors, p_s, cfg.alpha, cfg.gamma, cfg.epsilon, cfg.mu)
(plan,) = solve_fugw([prob])  # a list of problems in, one plan (or error) per problem out
print(f"{f.video_id}: solver converged={plan.converged} after {plan.iterations} outer steps "
      f"and {plan.scaling_iterates} scaling iterates")
print(f"objective trace head: {[round(v, 4) for v in plan.objective_trace[:6]]}")
print(f"anchor marginal error: {np.max(np.abs(plan.T.sum(axis=0) - 1 / cfg.K)):.2e}")
print(f"KL(frame marginal || saliency prior): {kl_divergence(plan.T.sum(axis=1), prob.p_hat):.4f}")

segs = select_topk(score_segments(decode_segments(plan.T), plan.T), cfg.top_k)
print(f"\ndecoded {len(segs.segments)} segments, selected top {len(segs.selected)}:")
for i in segs.selected:
    s = segs.segments[i]
    s_len = np.log1p(s.length)  # S = S_OT * S_len, S_OT the mean plan mass
    print(f"  anchor {s.anchor_id}: [{s.start:3d}, {s.end:3d})  "
          f"S_OT={s.score / s_len:.4f} S_len={s_len:.3f} S={s.score:.4f}")
print(f"ground truth events: {list(ann.events)}")

problems = []
for f, ex in zip(corpus.features, examples):
    xs = f.spatial.astype(np.float64)
    p_s = saliency_prior(saliency_forward(head, ex.features))
    anchors = init_anchors(xs, cfg.K, cfg.seed, f.video_id)
    problems.append(build_problem(xs, anchors, p_s, cfg.alpha, cfg.gamma, cfg.epsilon, cfg.mu))
plans = solve_fugw(problems)  # one call solves the corpus
print(f"\n{len(plans)} videos solved in one call: {plans.iterations} outer steps in all, "
      f"all converged={plans.converged}")
print("corpus comparison (Recall@0.5 / Mean IoU over ground truth):")
stats = {"transport": [], "kmeans": [], "uniform": []}
for f, ann, plan in zip(corpus.features, corpus.annotations, plans):
    xs = f.spatial.astype(np.float64)
    sets = {
        "transport": select_topk(score_segments(decode_segments(plan.T), plan.T), cfg.top_k),
        "kmeans": select_topk(baseline_kmeans(xs, cfg.K, cfg.seed, f.video_id), cfg.top_k),
        "uniform": baseline_uniform(f.valid_len, cfg.top_k),
    }
    for name, segset in sets.items():
        pred = [(s.start, s.end) for s in segset.selected_segments()]
        r05, miou, _ = segment_quality(pred, list(ann.events))
        stats[name].append((r05, miou))
for name, values in stats.items():
    r = np.mean([v[0] for v in values])
    m = np.mean([v[1] for v in values])
    print(f"  {name:10s} Recall@0.5={r:.3f}  MeanIoU={m:.3f}")
