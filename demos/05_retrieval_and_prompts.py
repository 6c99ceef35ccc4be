#!/usr/bin/env python3
"""Caption retrieval per segment and decoder-input assembly.

Pools each selected segment with saliency weights, queries the caption
datastore by exact cosine top-p, averages the retrieved embeddings into one
retrieval vector per segment, projects frame saliency into prompt rows, and
concatenates everything into the decoder-input sequence.

Retrieval is exact: each similarity is the correctly rounded value of the
exact dot product of a stored float32 embedding with the normalized query,
so every machine prints the same digits. One ``query_topp`` call answers a
whole matrix of queries, one ranked list per row.
"""

import tempfile
from pathlib import Path

import numpy as np

from saliseg import (
    DatastoreEntry,
    PipelineConfig,
    build_datastore,
    assemble_input,
    project_saliency,
    query_topp,
    retrieval_vectors,
    segment_queries,
)
from saliseg.prompts import init_prompt_map, load_decoder_input, save_decoder_input
from saliseg.segments import Segment, SegmentSet

cfg = PipelineConfig()
rng = np.random.default_rng(0)

# A tiny datastore of four orthogonal caption concepts.
concepts = ["whisk eggs", "dice onions", "sear steak", "plate dish"]
basis = np.eye(8)[:4]
store = build_datastore(
    [DatastoreEntry(f"c{i}", text, basis[i].astype(np.float32))
     for i, text in enumerate(concepts)]
)
print(f"datastore: {len(store)} captions, dim {store.dim}")

q = basis[2] + 0.1 * rng.normal(size=8)
(hits,) = query_topp(store, [q], p=2)
print(f"query near concept 2 -> top-2: {[(h[0], round(h[1], 3)) for h in hits]}")
print(f"  captions: {[store.captions[store.entry_ids.index(h[0])] for h in hits]}")
print(f"  exact similarity of the best hit: {hits[0][1].hex()}")

# Two segments whose frames were generated from concepts 1 and 2.
xs = np.vstack([
    basis[1] + 0.05 * rng.normal(size=(5, 8)),
    basis[2] + 0.05 * rng.normal(size=(4, 8)),
])
p_s = np.array([0.9, 0.8, 0.95, 0.85, 0.9, 0.7, 0.8, 0.75, 0.9])
segs = SegmentSet(segments=(Segment(0, 0, 5), Segment(1, 5, 9)), selected=(0, 1))
queries = segment_queries(segs, xs, p_s, store)  # one pooled row per selected segment
neighbors, vectors = retrieval_vectors(queries, store, p=2)
print("\nper-segment retrieval (id, cosine):")
for i, hits in enumerate(neighbors):
    print(f"  segment {i}: {[(h[0], round(h[1], 3)) for h in hits]}")
print(f"retrieval matrix R shape: {vectors.shape},"
      f" row norms {np.linalg.norm(vectors, axis=1).round(3)}")

# Saliency prompts and the decoder-input sequence.
w_map = init_prompt_map(8, seed=cfg.seed)
scores = rng.normal(size=9)
prompts = project_saliency(scores, w_map)
d_in = assemble_input(xs, prompts, vectors)
print(f"\ndecoder input: {d_in.sequence.shape[0]} rows = "
      f"{d_in.lengths[0]} frames + {d_in.lengths[1]} prompts + "
      f"{d_in.lengths[2]} retrieval; offsets {d_in.offsets}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "video.stin"
    save_decoder_input(d_in, path)
    again = load_decoder_input(path)
    print(f"sequence file round trip: {path.stat().st_size} bytes, "
          f"sections recovered={all(np.array_equal(again.section(i), d_in.section(i).astype(np.float32).astype(np.float64)) for i in range(3))}")
