"""Plan decoding, segment scoring and selection, pooling, and baselines.

A plan here is the solver's ``F_v x K`` array, ``TransportPlan.T``.

Segments file format: JSON Lines, one object per video,
``{"video_id": str, "segments": [{"anchor", "start", "end", "score"}, ...],
"selected": [strictly increasing segment indices]}``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .data import load_records
from .errors import DataError, config_int
from .rng import substream
from .transport import farthest_points

logger = logging.getLogger(__name__)

_KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class Segment:
    """A half-open run of frames assigned to one anchor, with its score."""

    anchor_id: int
    start: int
    end: int
    score: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise DataError(f"bad segment bounds ({self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class SegmentSet:
    """Contiguous partition of the valid frames plus the selected indices,
    which are strictly increasing indices into ``segments``."""

    segments: tuple[Segment, ...]
    selected: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prev_end = 0
        for seg in self.segments:
            if seg.start != prev_end:
                raise DataError("segments must partition the frame range")
            prev_end = seg.end
        bounds = (-1, *self.selected, len(self.segments))
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise DataError(f"selected {list(self.selected)} must be strictly increasing"
                            f" indices into {len(self.segments)} segments")

    def selected_segments(self) -> list[Segment]:
        return [self.segments[i] for i in self.selected]


def _runs(labels: NDArray[np.int64]) -> list[Segment]:
    """Maximal runs of equal per-frame labels as unscored segments."""
    bounds = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), len(labels)]
    return [Segment(int(labels[s]), s, e) for s, e in zip(bounds, bounds[1:])]


def _length_scored(segments: list[Segment]) -> tuple[Segment, ...]:
    """Score each segment by log(1 + L) alone, the baselines' only ranking."""
    return tuple(replace(s, score=float(np.log1p(s.length))) for s in segments)


def decode_segments(t: NDArray[np.float64]) -> SegmentSet:
    """Run-length encode the per-frame argmax anchor of plan ``t`` (ties to lower index)."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] < 1:
        raise DataError("plan must be F_v x K")
    return SegmentSet(segments=tuple(_runs(np.argmax(t, axis=1))))


def score_segments(segs: SegmentSet, t: NDArray[np.float64]) -> SegmentSet:
    """Score each segment from plan ``t``: S = S_OT * S_len = mean plan mass * log(1 + L)."""
    t = np.asarray(t, dtype=np.float64)
    scored = []
    for seg in segs.segments:
        mass = float(t[seg.start : seg.end, seg.anchor_id].sum())
        scored.append(replace(seg, score=(mass / seg.length) * float(np.log1p(seg.length))))
    return SegmentSet(segments=tuple(scored), selected=segs.selected)


def select_topk(segs: SegmentSet, k: int) -> SegmentSet:
    """Keep the k highest-scoring segments; report them in temporal order.

    Ties break toward the earlier segment. If there are fewer than k
    segments, all are selected.
    """
    if k < 1:
        raise DataError("k must be >= 1")
    order = sorted(
        range(len(segs.segments)),
        key=lambda i: (-segs.segments[i].score, segs.segments[i].start),
    )
    chosen = sorted(order[: min(k, len(order))])
    return SegmentSet(segments=segs.segments, selected=tuple(chosen))


def pool_segment_features(
    seg: Segment, xs: NDArray[np.float64], p_s: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Saliency-weighted average of the segment's feature rows.

    The weighted rows are summed frame by frame, a running sum in every
    memory layout, so the result does not depend on a BLAS kernel or on
    pairwise grouping. Falls back to the uniform mean when the segment
    carries zero prior mass, which keeps the result inside the convex hull
    of its rows either way.
    """
    xs = np.asarray(xs, dtype=np.float64)
    p_s = np.asarray(p_s, dtype=np.float64)
    if seg.end > xs.shape[0]:
        raise DataError("segment exceeds feature rows")
    rows = xs[seg.start : seg.end]
    weights = p_s[seg.start : seg.end]
    total = float(weights.sum())
    if total <= 0.0:
        logger.warning(
            "segment [%d, %d) has zero saliency mass, uniform pooling", seg.start, seg.end
        )
        return rows.mean(axis=0)
    return np.add.accumulate(weights[:, None] * rows, axis=0)[-1] / total


def baseline_uniform(n_frames: int, k: int) -> SegmentSet:
    """k contiguous near-equal segments; the remainder goes to the earliest."""
    if not 1 <= k <= n_frames:
        raise DataError("need 1 <= k <= F_v")
    base, rem = divmod(n_frames, k)
    labels = np.repeat(np.arange(k), base + (np.arange(k) < rem))
    return SegmentSet(segments=_length_scored(_runs(labels)), selected=tuple(range(k)))


def baseline_kmeans(xs: NDArray[np.float64], k: int, seed: int, video_id: str = "") -> SegmentSet:
    """Lloyd's iterations with deterministic farthest-point seeding.

    Cluster labels are run-length encoded into contiguous segments, so a
    label sequence 0,1,0 yields three segments. An emptied cluster is
    re-seeded at the point farthest from its assigned center and captures
    that point immediately, which keeps every cluster nonempty; on fully
    degenerate input (all rows identical) this splits one frame off into a
    singleton segment. Segment scores are log(1 + L), the only intrinsic
    ranking available.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.shape[0]
    if n < k:
        raise DataError("need F_v >= k")
    centers = xs[farthest_points(xs, k, substream(seed, "kmeans", video_id))]

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        dists = np.linalg.norm(xs[:, None, :] - centers[None, :, :], axis=2)
        new_labels = np.argmin(dists, axis=1)
        for j in range(k):
            members = new_labels == j
            if np.any(members):
                centers[j] = xs[members].mean(axis=0)
            else:
                # Deterministic re-seed: the point farthest from its own center.
                gaps = dists[np.arange(n), new_labels]
                far = int(np.argmax(gaps))
                centers[j] = xs[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return SegmentSet(segments=_length_scored(_runs(labels)))


# ---------------------------------------------------------------------------
# Segments file IO
# ---------------------------------------------------------------------------

def segments_to_doc(video_id: str, segs: SegmentSet) -> dict:
    return {
        "video_id": video_id,
        "segments": [
            {"anchor": s.anchor_id, "start": s.start, "end": s.end, "score": s.score}
            for s in segs.segments
        ],
        "selected": list(segs.selected),
    }


def load_segments(path: str | Path) -> dict[str, SegmentSet]:
    """Read a segments file; a frame bound, anchor or selected index that is
    not an integer (a float included) is a :class:`DataError`."""
    out: dict[str, SegmentSet] = {}
    for video_id, doc in load_records(path).items():
        try:
            segments = tuple(
                Segment(
                    anchor_id=config_int("anchor", s["anchor"], DataError),
                    start=config_int("start", s["start"], DataError),
                    end=config_int("end", s["end"], DataError),
                    score=float(s["score"]),
                )
                for s in doc["segments"]
            )
            selected = tuple(config_int("selected", j, DataError) for j in doc["selected"])
            out[video_id] = SegmentSet(segments=segments, selected=selected)
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
            raise DataError(f"{path}: {video_id}: bad segments record: {exc}") from exc
    return out
