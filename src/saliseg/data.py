"""Core data model: frame features, event annotations, highlight labels, config.

File formats
------------
Feature file (``.sfeat``): magic ``b"SFT1"``, three little-endian u64 values
``F``, ``D``, ``valid_len``, then ``F * D`` little-endian f32 values for the
spatial matrix (row-major) followed by ``F * D`` f32 values for the encoded
matrix. Padding rows (index >= ``valid_len``) must be all zero.

Annotations: JSON Lines, one object per video,
``{"video_id": str, "valid_len": int, "events": [[start, end], ...]}`` with
half-open integer frame intervals. Frame indices assume the 1 FPS sampling
convention, i.e. one frame per second of video; callers with sub-second
timestamps are expected to pre-round (floor the start, ceil the end).

Config: a single JSON document mirroring :class:`PipelineConfig` field names
(the loss weight is spelled ``lambda`` in JSON). Unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

_MAGIC = b"SFT1"
_HEADER = struct.Struct("<4sQQQ")


@dataclass(frozen=True)
class FrameFeatures:
    """Per-video feature matrices: spatial rows and temporally encoded rows.

    Both matrices are ``F x D`` float32; rows with index >= ``valid_len``
    are zero padding and must stay zero.
    """

    video_id: str
    spatial: NDArray[np.float32]
    encoded: NDArray[np.float32]
    valid_len: int

    def __post_init__(self) -> None:
        spatial = np.ascontiguousarray(self.spatial, dtype=np.float32)
        encoded = np.ascontiguousarray(self.encoded, dtype=np.float32)
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "encoded", encoded)
        if spatial.ndim != 2 or spatial.shape[0] < 1 or spatial.shape[1] < 1:
            raise DataError(f"{self.video_id}: spatial matrix must be F x D with F, D >= 1")
        if encoded.shape != spatial.shape:
            raise DataError(
                f"{self.video_id}: spatial {spatial.shape} and encoded {encoded.shape} differ"
            )
        if not (0 <= self.valid_len <= spatial.shape[0]):
            raise DataError(f"{self.video_id}: valid_len exceeds F ({self.valid_len} > {spatial.shape[0]})")
        pad = slice(self.valid_len, None)
        if np.any(spatial[pad] != 0) or np.any(encoded[pad] != 0):
            raise DataError(f"{self.video_id}: nonzero padding rows beyond valid_len")
        if not (np.all(np.isfinite(spatial)) and np.all(np.isfinite(encoded))):
            raise DataError(f"{self.video_id}: non-finite feature values")

    @property
    def n_frames(self) -> int:
        return self.spatial.shape[0]

    @property
    def dim(self) -> int:
        return self.spatial.shape[1]

    def mask(self) -> NDArray[np.float64]:
        """Validity mask M: 1.0 for frames below valid_len, else 0.0."""
        m = np.zeros(self.n_frames, dtype=np.float64)
        m[: self.valid_len] = 1.0
        return m


@dataclass(frozen=True)
class EventAnnotation:
    """Ground-truth event list for one video, half-open [start, end) frames."""

    video_id: str
    valid_len: int
    events: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        events = tuple((int(s), int(e)) for s, e in self.events)
        object.__setattr__(self, "events", events)
        prev_start = -1
        for s, e in events:
            if not (0 <= s < e):
                raise DataError(f"{self.video_id}: bad event ({s}, {e})")
            if e > self.valid_len:
                raise DataError(
                    f"{self.video_id}: event exceeds valid_len ({e} > {self.valid_len})"
                )
            if s < prev_start:
                raise DataError(f"{self.video_id}: events not sorted by start")
            prev_start = s


@dataclass(frozen=True)
class HighlightLabels:
    """Binary highlight labels H and validity mask M for one video."""

    labels: NDArray[np.float64]
    mask: NDArray[np.float64]

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=np.float64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mask", mask)
        if labels.shape != mask.shape or labels.ndim != 1:
            raise DataError("labels and mask must be equal-length vectors")
        for v in (labels, mask):
            if not np.all((v == 0) | (v == 1)):
                raise DataError("labels and mask must be binary")
        if np.any(labels > mask):
            raise DataError("highlight label set on a masked frame")

    @property
    def n_highlight(self) -> int:
        return int(np.sum(self.labels * self.mask))


def derive_highlight_labels(ann: EventAnnotation, n_frames: int, valid_len: int) -> HighlightLabels:
    """Convert annotated events into binary frame labels plus a validity mask.

    A frame is a highlight (label 1) iff it lies inside the union of the
    annotated half-open event intervals. Frames at or beyond ``valid_len``
    are masked out. A video without events yields all-zero labels and is
    unusable for saliency training; a warning is logged.
    """
    if not (0 <= valid_len <= n_frames):
        raise DataError(f"{ann.video_id}: valid_len exceeds F ({valid_len} > {n_frames})")
    labels = np.zeros(n_frames, dtype=np.float64)
    for s, e in ann.events:
        if e > valid_len:
            raise DataError(f"{ann.video_id}: event exceeds valid_len ({e} > {valid_len})")
        labels[s:e] = 1.0
    mask = np.zeros(n_frames, dtype=np.float64)
    mask[:valid_len] = 1.0
    if not ann.events:
        logger.warning("%s: no events, all-zero highlight labels", ann.video_id)
    return HighlightLabels(labels=labels, mask=mask)


def lint_annotations(anns: list[EventAnnotation]) -> list[str]:
    """Return human-readable warnings; currently flags overlapping events."""
    warnings: list[str] = []
    for ann in anns:
        for (s1, e1), (s2, e2) in zip(ann.events, ann.events[1:]):
            if s2 < e1:
                warnings.append(
                    f"{ann.video_id}: events ({s1},{e1}) and ({s2},{e2}) overlap"
                )
    return warnings


# ---------------------------------------------------------------------------
# Reading input files
# ---------------------------------------------------------------------------

def read_file(path: str | Path) -> bytes:
    """The bytes of ``path``; a file that cannot be read is a :class:`DataError`."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``, read through :func:`read_file`."""
    try:
        return read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


# ---------------------------------------------------------------------------
# Binary feature files
# ---------------------------------------------------------------------------

def save_features(f: FrameFeatures, path: str | Path) -> None:
    """Write a feature file; byte output is a pure function of the value."""
    path = Path(path)
    payload = bytearray()
    payload += _HEADER.pack(_MAGIC, f.n_frames, f.dim, f.valid_len)
    payload += f.spatial.astype("<f4", copy=False).tobytes(order="C")
    payload += f.encoded.astype("<f4", copy=False).tobytes(order="C")
    path.write_bytes(bytes(payload))


def load_features(path: str | Path, video_id: str | None = None) -> FrameFeatures:
    """Read a feature file, enforcing header consistency and padding."""
    path = Path(path)
    raw = read_file(path)
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, n_frames, dim, valid_len = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if valid_len > n_frames:
        raise DataError(f"{path}: valid_len exceeds F ({valid_len} > {n_frames})")
    body = raw[_HEADER.size :]
    expected = 2 * n_frames * dim * 4
    if len(body) != expected:
        raise DataError(f"{path}: truncated body ({len(body)} bytes, expected {expected})")
    flat = np.frombuffer(body, dtype="<f4")
    spatial = flat[: n_frames * dim].reshape(n_frames, dim)
    encoded = flat[n_frames * dim :].reshape(n_frames, dim)
    if video_id is None:
        video_id = path.stem
    return FrameFeatures(video_id=video_id, spatial=spatial, encoded=encoded, valid_len=int(valid_len))


# ---------------------------------------------------------------------------
# JSON Lines records
# ---------------------------------------------------------------------------

def save_records(docs: list[dict], path: str | Path) -> Path:
    """Write one JSON object per line, keys sorted."""
    lines = "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
    Path(path).write_text(lines, encoding="utf-8")
    return Path(path)


def _jsonl_lines(path: str | Path):
    """Yield ``(line number, object)`` for every non-blank line of ``path``."""
    for i, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            yield i, json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{i}: bad JSON: {exc}") from exc


def load_records(path: str | Path) -> dict[str, dict]:
    """Read a JSON Lines file of per-video records, keyed by ``video_id``."""
    records = {}
    for i, doc in _jsonl_lines(path):
        try:
            records[str(doc["video_id"])] = doc
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}:{i}: record without a video_id") from exc
    return records


def save_annotations(anns: list[EventAnnotation], path: str | Path) -> None:
    save_records(
        [
            {"video_id": a.video_id, "valid_len": a.valid_len, "events": [[s, e] for s, e in a.events]}
            for a in anns
        ],
        path,
    )


def load_annotations(path: str | Path) -> list[EventAnnotation]:
    anns = []
    for i, doc in _jsonl_lines(path):
        try:
            anns.append(
                EventAnnotation(
                    video_id=str(doc["video_id"]),
                    valid_len=int(doc["valid_len"]),
                    events=tuple((int(s), int(e)) for s, e in doc["events"]),
                )
            )
        except KeyError as exc:
            raise DataError(f"{path}:{i}: missing key {exc}") from exc
    return anns


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline, with defaults matching the reference setup.

    ``lambda_`` is the saliency-loss weight (spelled ``lambda`` in JSON).
    """

    tau: float = 0.5
    lambda_: float = 6.0
    mu: float = 0.1
    gamma: float = 0.3
    alpha: float = 0.5
    epsilon: float = 0.1
    K: int = 8
    top_k: int = 5
    top_p: int = 10
    windows: tuple[int, ...] = (8, 32, 64)
    F_max: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if not 1 <= self.top_k <= self.K:
            raise ConfigError("top_k must satisfy 1 <= top_k <= K")
        if self.top_p < 1:
            raise ConfigError("top_p must be >= 1")
        if self.F_max < 1:
            raise ConfigError("F_max must be >= 1")
        if any(w2 <= w1 for w1, w2 in zip(self.windows, self.windows[1:])):
            raise ConfigError("windows must be strictly increasing")
        if any(w > self.F_max for w in self.windows):
            raise ConfigError("window size exceeds F_max")

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        doc["lambda"] = doc.pop("lambda_")
        doc["windows"] = list(self.windows)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_CONFIG_KEYS = {f.name for f in dataclasses.fields(PipelineConfig)} - {"lambda_"} | {"lambda"}


def config_from_json(text: str) -> PipelineConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad config JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "lambda" in doc:
        doc["lambda_"] = doc.pop("lambda")
    try:
        return PipelineConfig(**doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> PipelineConfig:
    return config_from_json(read_text(path))


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(cfg.to_json(), encoding="utf-8")
