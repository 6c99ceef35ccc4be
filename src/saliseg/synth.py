"""Deterministic synthetic corpus generator with exact ground truth.

Each caption concept owns a unit prototype vector; prototypes (plus one
shared background prototype) are mutually orthogonal by construction, so
cosine structure is controlled. Event frames are their concept's prototype
plus isotropic Gaussian noise, background frames the background prototype
plus noise. Annotations, per-event concepts and the caption datastore are
recorded exactly, which makes the corpus usable as an oracle for
segmentation and retrieval quality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    EventAnnotation,
    FrameFeatures,
    make_dir,
    save_annotations,
    save_features,
    save_records,
)
from .errors import ConfigError, DataError, config_int
from .rng import substream
from .store import Datastore, DatastoreEntry, build_datastore, save_datastore

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthSpec:
    """Knobs of the generator; defaults give roughly 30 percent background."""

    n_videos: int = 20
    F: int = 100
    D: int = 32
    events_per_video: tuple[int, int] = (6, 8)
    event_len: tuple[int, int] = (8, 11)
    noise_sigma: float = 0.05
    n_caption_concepts: int = 12
    background_leak: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("n_videos", "F", "D", "n_caption_concepts", "seed"):
            object.__setattr__(self, key, config_int(key, getattr(self, key)))
        for key in ("events_per_video", "event_len"):
            object.__setattr__(self, key, tuple(config_int(key, x) for x in getattr(self, key)))
        lo, hi = self.events_per_video
        llo, lhi = self.event_len
        if self.n_videos < 1 or self.F < 1 or self.D < 1:
            raise ConfigError("n_videos, F and D must be >= 1")
        if not (1 <= lo <= hi) or not (1 <= llo <= lhi):
            raise ConfigError("event count and length ranges must be nonempty and >= 1")
        if not 0 <= self.noise_sigma < np.inf:  # NaN fails too
            raise ConfigError("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.background_leak < 1.0:
            raise ConfigError("background_leak must lie in [0, 1)")
        if self.n_caption_concepts < hi:
            raise ConfigError("need at least as many concepts as events per video")
        if self.D < self.n_caption_concepts + 1:
            raise ConfigError("need D >= n_caption_concepts + 1 for orthogonal prototypes")
        if lhi > self.F:
            raise ConfigError("event length exceeds F")


@dataclass(frozen=True)
class SynthVideoTruth:
    """Per-event generating concept ids, parallel to the annotation events."""

    video_id: str
    concepts: tuple[str, ...]


@dataclass(frozen=True)
class SynthCorpus:
    features: list[FrameFeatures]
    annotations: list[EventAnnotation]
    datastore: Datastore
    truth: list[SynthVideoTruth]
    prototypes: np.ndarray
    background: np.ndarray


def _orthonormal_prototypes(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    # Gram-Schmidt on seeded Gaussians; rows are exactly unit, mutually orthogonal.
    raw = rng.standard_normal((n, dim))
    basis = np.zeros_like(raw)
    for i in range(n):
        v = raw[i] - basis[:i].T @ (basis[:i] @ raw[i])
        norm = np.linalg.norm(v)
        if norm < 1e-10:
            raise DataError("degenerate prototype draw")
        basis[i] = v / norm
    return basis


def concept_id(index: int) -> str:
    return f"c{index:03d}"


def _place_events(
    rng: np.random.Generator, valid_len: int, spec: SynthSpec
) -> list[tuple[int, int]]:
    """Sample non-overlapping events with at least one background frame between.

    The event count is clipped to the largest value that is feasible for
    this video length even if every event draws the maximum length.
    """
    lo, hi = spec.events_per_video
    llo, lhi = spec.event_len
    n_max = (valid_len + 1) // (lhi + 1)
    if n_max < 1:
        raise ConfigError(f"no event of length {lhi} fits in {valid_len} frames")
    n_events = int(rng.integers(lo, min(hi, n_max) + 1)) if min(hi, n_max) >= lo else n_max
    lengths = rng.integers(llo, lhi + 1, size=n_events)
    slack = valid_len - int(lengths.sum()) - (n_events - 1)
    # Spread the slack over n_events + 1 gaps (both ends may be zero width).
    cuts = np.sort(rng.integers(0, slack + 1, size=n_events))
    gaps = np.diff(np.concatenate([[0], cuts, [slack]]))
    events = []
    cursor = 0
    for i in range(n_events):
        cursor += int(gaps[i]) + (1 if i > 0 else 0)
        events.append((cursor, cursor + int(lengths[i])))
        cursor += int(lengths[i])
    assert events[-1][1] <= valid_len
    return events


def generate_corpus(spec: SynthSpec) -> SynthCorpus:
    """Build features, annotations, datastore and per-event truth, all seeded.

    Every third video is shortened to exercise zero padding: it has fewer
    valid frames than ``spec.F``, the ``n_frames`` its feature file is padded
    to. The frames are generated identically for the spatial and encoded
    matrices.
    """
    proto_rng = substream(spec.seed, "synth", "prototypes")
    basis = _orthonormal_prototypes(spec.n_caption_concepts + 1, spec.D, proto_rng)
    prototypes = basis[: spec.n_caption_concepts]
    background = basis[spec.n_caption_concepts]

    features: list[FrameFeatures] = []
    annotations: list[EventAnnotation] = []
    truth: list[SynthVideoTruth] = []
    for v in range(spec.n_videos):
        video_id = f"v{v:04d}"
        rng = substream(spec.seed, "synth", video_id)
        valid_len = spec.F - (spec.F // 5 if v % 3 == 2 else 0)
        events = _place_events(rng, valid_len, spec)
        concepts = rng.choice(spec.n_caption_concepts, size=len(events), replace=False)

        spatial = np.tile(background, (valid_len, 1))
        if spec.background_leak > 0:
            # Difficulty knob: each background gap borrows a fraction of one of
            # the video's own event concepts, blurring appearance boundaries.
            bounds = [0] + [b for s, e in events for b in (s, e)] + [valid_len]
            for g in range(0, len(bounds), 2):
                lo_b, hi_b = bounds[g], bounds[g + 1]
                if hi_b > lo_b:
                    leak_c = int(concepts[int(rng.integers(len(concepts)))])
                    mixed = background + spec.background_leak * prototypes[leak_c]
                    spatial[lo_b:hi_b] = mixed / np.linalg.norm(mixed)
        for (s, e), c in zip(events, concepts):
            spatial[s:e] = prototypes[c]
        spatial += spec.noise_sigma * rng.standard_normal((valid_len, spec.D))
        spatial32 = spatial.astype(np.float32)
        features.append(FrameFeatures(video_id, spatial32, spatial32.copy(), n_frames=spec.F))
        annotations.append(
            EventAnnotation(video_id=video_id, valid_len=valid_len, events=tuple(events))
        )
        truth.append(
            SynthVideoTruth(
                video_id=video_id,
                concepts=tuple(concept_id(int(c)) for c in concepts),
            )
        )

    entries = [
        DatastoreEntry(
            entry_id=concept_id(i),
            caption=f"activity {concept_id(i)}",
            embedding=prototypes[i].astype(np.float32),
        )
        for i in range(spec.n_caption_concepts)
    ]
    datastore = build_datastore(entries)
    return SynthCorpus(
        features=features,
        annotations=annotations,
        datastore=datastore,
        truth=truth,
        prototypes=prototypes,
        background=background,
    )


def write_corpus(corpus: SynthCorpus, out_dir: str | Path) -> None:
    """Emit feature files, annotations, datastore and truth records."""
    out = Path(out_dir)
    make_dir(out / "features")
    for f in corpus.features:
        save_features(f, out / "features" / f"{f.video_id}.sfeat")
    save_annotations(corpus.annotations, out / "annotations.jsonl")
    save_datastore(corpus.datastore, out / "datastore.sds")
    save_records(
        [{"video_id": t.video_id, "concepts": list(t.concepts)} for t in corpus.truth],
        out / "truth.jsonl",
    )
