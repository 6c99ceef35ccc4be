"""Output checks on one pipeline run directory, made outside the timed region.

Each check names the videos it fails, so the benchmark can count failed
videos against attempted ones:

* every attempted video has a record in ``segments.jsonl`` and
  ``retrieval.jsonl`` and a ``tin/<video>.stin`` file;
* every file hash in ``manifest.json`` matches the file on disk, and every
  file on disk is listed;
* segments partition the valid frames and the selection has the configured
  size;
* the retrieval neighbours of every selected segment equal an independent
  brute-force exact top-p (cosine, ties by ascending id) over the datastore
  file, parsed here without the program's reader, and each retrieval vector
  is the mean of its neighbours' embeddings.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# Two similarities this close are a near tie that summation order may flip.
SIM_TOL = 1e-9


class ReferenceStore:
    """Datastore ids and embeddings read straight from a ``.sds`` file."""

    def __init__(self, ids: list[str], embeddings: np.ndarray):
        self.ids = ids
        self.emb = np.asarray(embeddings, dtype=np.float64)
        self.row = {entry_id: i for i, entry_id in enumerate(ids)}

    @classmethod
    def read(cls, path: Path) -> "ReferenceStore":
        raw = Path(path).read_bytes()
        if raw[:4] != b"SDS1":
            raise ValueError(f"{path}: not a datastore file")
        n, dim = struct.unpack_from("<QQ", raw, 4)
        offset, ids = 20, []
        emb = np.empty((n, dim), dtype=np.float32)
        for i in range(n):
            (id_len,) = struct.unpack_from("<I", raw, offset)
            ids.append(raw[offset + 4 : offset + 4 + id_len].decode("utf-8"))
            offset += 4 + id_len
            (cap_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4 + cap_len
            emb[i] = np.frombuffer(raw, dtype="<f4", count=dim, offset=offset)
            offset += 4 * dim
        return cls(ids, emb)

    def sims(self, query: np.ndarray) -> np.ndarray:
        q = np.asarray(query, dtype=np.float64)
        return self.emb @ (q / np.linalg.norm(q))

    def topp(self, sims: np.ndarray, p: int) -> list[int]:
        """Rows of the exact top-p by similarity, ties by ascending id."""
        p = min(p, len(self.ids))
        cut = -np.partition(-sims, p - 1)[p - 1]
        candidates = np.flatnonzero(sims >= cut)
        return sorted(candidates, key=lambda i: (-sims[i], self.ids[i]))[:p]


def neighbours_problem(ref: ReferenceStore, query: np.ndarray, hits: list, p: int) -> str | None:
    """Why ``hits`` ([[id, sim], ...]) is not the exact top-p of ``query``, or None."""
    sims = ref.sims(query)
    expected = ref.topp(sims, p)
    if len(hits) != len(expected):
        return f"{len(hits)} neighbours, expected {len(expected)}"
    seen = set()
    for rank, ((entry_id, sim), want) in enumerate(zip(hits, expected)):
        row = ref.row.get(entry_id)
        if row is None or entry_id in seen:
            return f"rank {rank}: unknown or repeated id {entry_id!r}"
        seen.add(entry_id)
        if abs(sims[row] - sim) > SIM_TOL:
            return f"rank {rank}: similarity {sim} of {entry_id}, expected {sims[row]}"
        # A different id is accepted only for a near tie that is not an exact one:
        # exact ties must come in ascending id order.
        if row != want and (sims[row] == sims[want] or abs(sims[row] - sims[want]) > SIM_TOL):
            return f"rank {rank}: {entry_id}, expected {ref.ids[want]}"
    return None


def read_jsonl(path: Path) -> dict[str, str]:
    """Video id -> raw line; empty when the file is missing or unreadable."""
    out = {}
    try:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                out[json.loads(line)["video_id"]] = line
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return out


def _manifest_problems(run_dir: Path, videos: list[str]) -> dict[str, list[str]]:
    """Per video, the manifest entries that do not match the disk."""
    problems: dict[str, list[str]] = {}

    def blame(rel: str, why: str) -> None:
        stem = Path(rel).stem
        for v in [stem] if stem in videos else videos:
            problems.setdefault(v, []).append(f"manifest: {rel} {why}")

    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        blame("manifest.json", "missing")
        return problems
    listed = json.loads(manifest_path.read_text(encoding="utf-8")).get("files", {})
    on_disk = {
        str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    for rel in sorted(on_disk - set(listed)):
        blame(rel, "not listed")
    for rel, digest in sorted(listed.items()):
        path = run_dir / rel
        if not path.is_file():
            blame(rel, "missing on disk")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            blame(rel, "hash mismatch")
    return problems


class RunChecker:
    """Checks run directories of one corpus; caches verdicts of identical lines."""

    def __init__(self, inputs_dir: Path, cfg, videos: dict[str, tuple[np.ndarray, int]]):
        self.cfg = cfg
        self.videos = videos  # video id -> (spatial rows as float64, valid_len)
        self.ref = ReferenceStore.read(inputs_dir / "datastore.sds")
        self._verdicts: dict[tuple[str, str, str], list[str]] = {}

    def check(self, run_dir: Path) -> dict[str, list[str]]:
        """Problems per video id; a video with an empty list passed."""
        ids = sorted(self.videos)
        problems = {v: [] for v in ids}
        for v, found in _manifest_problems(run_dir, ids).items():
            problems[v] += found
        saliency = read_jsonl(run_dir / "saliency.jsonl")
        segments = read_jsonl(run_dir / "segments.jsonl")
        retrieval = read_jsonl(run_dir / "retrieval.jsonl")
        for v in ids:
            if not (run_dir / "tin" / f"{v}.stin").is_file():
                problems[v].append("no decoder input file")
            lines = (saliency.get(v), segments.get(v), retrieval.get(v))
            if None in lines:
                problems[v].append("missing from saliency, segments or retrieval records")
                continue
            if lines not in self._verdicts:
                try:
                    verdict = self._check_video(v, *map(json.loads, lines))
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    verdict = [f"malformed record: {exc!r}"]
                self._verdicts[lines] = verdict
            problems[v] += self._verdicts[lines]
        return problems

    def _check_video(self, v: str, sal: dict, seg: dict, ret: dict) -> list[str]:
        from saliseg.segments import Segment, pool_segment_features

        xs, valid_len = self.videos[v]
        bounds = [(s["start"], s["end"]) for s in seg["segments"]]
        if not bounds or bounds[0][0] != 0 or bounds[-1][1] != valid_len or any(
            e != s2 for (_, e), (s2, _) in zip(bounds, bounds[1:])
        ):
            return [f"segments do not partition [0, {valid_len})"]
        selected = seg["selected"]
        if selected != sorted(set(selected)) or len(selected) != min(self.cfg.top_k, len(bounds)):
            return [f"bad selection {selected}"]
        records = ret["segments"]
        if [r["index"] for r in records] != selected or len(ret["vectors"]) != len(selected):
            return ["retrieval records do not follow the selected segments"]
        prior = np.asarray(sal["prior"], dtype=np.float64)[:valid_len]
        out = []
        for r, vector in zip(records, ret["vectors"]):
            s = seg["segments"][r["index"]]
            query = pool_segment_features(Segment(s["anchor"], s["start"], s["end"]), xs, prior)
            why = neighbours_problem(self.ref, query, r["neighbors"], self.cfg.top_p)
            if why is None:
                rows = [self.ref.row[entry_id] for entry_id, _ in r["neighbors"]]
                if np.max(np.abs(self.ref.emb[rows].mean(axis=0) - vector)) > SIM_TOL:
                    why = "retrieval vector is not the mean of its neighbours"
            if why is not None:
                out.append(f"segment {r['index']}: {why}")
        return out
