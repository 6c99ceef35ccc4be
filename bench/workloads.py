"""The benchmark's workloads: seeded synthetic corpora at three shapes.

Each workload moves cost to a different module of the pipeline, so one
optimisation is exercised by one workload and bypassed by another:

* ``short-many``: 40 videos at the paper scale (F=100). Python
  per-call overhead in the transport solve and the per-video file and JSON
  plumbing dominate; F x F costs and retrieval are negligible.
* ``long-few``: 24 videos at F=1600. The dense F x F structure matrices
  dominate the solve and peak memory, refinement runs thousands of windows
  per video, and per-video overhead is amortised away.
* ``retrieval-wide``: the ``short-many`` corpus against a 100k-entry
  datastore, so the datastore load and the exact top-p scans dominate while
  the transport work is exactly ``short-many``'s.

Corpus quality (F1, Mean IoU) and solver work depend on how many events
each seed draws and how each video converges: a long video takes 5 to 30
outer solver steps. The video counts average that out over a corpus; with
2 long videos or 20 short ones a metric's spread across seeds is 8-25%.

Configs only set ``F_max`` (always >= F, so every window fits under an
enforced limit) and ``seed``; ``jobs``, ``rho`` and the refine stride are
never passed, so their planned removal needs no edit here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_videos: int
    F: int
    event_len: tuple[int, int]
    datastore_size: int | None = None  # None: the corpus' own 12-entry store

    def synth_spec(self, seed: int):
        from saliseg.synth import SynthSpec

        return SynthSpec(n_videos=self.n_videos, F=self.F, event_len=self.event_len, seed=seed)

    def config(self, seed: int):
        from saliseg.data import PipelineConfig

        return PipelineConfig(F_max=self.F, seed=seed)


# The paper-scale event lengths (8..11 frames at F=100), scaled by F / 100.
_PAPER_EVENT_LEN = (8, 11)


def _scaled(F: int) -> tuple[int, int]:
    return (_PAPER_EVENT_LEN[0] * F // 100, _PAPER_EVENT_LEN[1] * F // 100)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-many",
            "40 paper-scale videos (F=100): solver per-call overhead and per-video file/JSON plumbing",
            n_videos=40, F=100, event_len=_scaled(100),
        ),
        Workload(
            "long-few",
            "24 videos at F=1600: dense F x F structure terms in the solve, peak memory, refine windows",
            n_videos=24, F=1600, event_len=_scaled(1600),
        ),
        Workload(
            "retrieval-wide",
            "the short-many corpus against a 100k-entry datastore: datastore load and exact top-p scans",
            n_videos=40, F=100, event_len=_scaled(100), datastore_size=100_000,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload shape at a size that runs in about a second (tests)."""
    F = 100 if w.F == 100 else 200
    return Workload(
        w.name, w.why, n_videos=min(w.n_videos, 3), F=F, event_len=_scaled(F),
        datastore_size=None if w.datastore_size is None else 2_000,
    )
