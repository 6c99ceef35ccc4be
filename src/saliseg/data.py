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
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DataError, OutputError
from .refine import RefineConfig

logger = logging.getLogger(__name__)

T = TypeVar("T")

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
    """Binary highlight labels H for one video; frames from ``valid_len`` on
    are padding and carry no label."""

    labels: NDArray[np.float64]
    valid_len: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.float64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise DataError("labels must be a vector")
        if not (0 <= self.valid_len <= labels.shape[0]):
            raise DataError(f"valid_len exceeds F ({self.valid_len} > {labels.shape[0]})")
        if not np.all((labels == 0) | (labels == 1)):
            raise DataError("labels must be binary")
        if np.any(labels[self.valid_len :]):
            raise DataError("highlight label set beyond valid_len")

    @property
    def n_highlight(self) -> int:
        return int(np.sum(self.labels))


def derive_highlight_labels(ann: EventAnnotation, n_frames: int, valid_len: int) -> HighlightLabels:
    """Convert annotated events into binary frame labels.

    A frame is a highlight (label 1) iff it lies inside the union of the
    annotated half-open event intervals. A video without events yields
    all-zero labels and is unusable for saliency training; a warning is
    logged.
    """
    if not (0 <= valid_len <= n_frames):
        raise DataError(f"{ann.video_id}: valid_len exceeds F ({valid_len} > {n_frames})")
    labels = np.zeros(n_frames, dtype=np.float64)
    for s, e in ann.events:
        if e > valid_len:
            raise DataError(f"{ann.video_id}: event exceeds valid_len ({e} > {valid_len})")
        labels[s:e] = 1.0
    if not ann.events:
        logger.warning("%s: no events, all-zero highlight labels", ann.video_id)
    return HighlightLabels(labels=labels, valid_len=valid_len)


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
# Reading and writing files
# ---------------------------------------------------------------------------

def read_file(path: str | Path) -> bytes:
    """The bytes of ``path``; a file that cannot be read is a :class:`DataError`."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def write_file(path: str | Path, payload: bytes | str) -> Path:
    """Write ``payload`` (text as UTF-8); a failed write is an :class:`OutputError`."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc
    return Path(path)


def make_dir(path: str | Path) -> Path:
    """Create directory ``path`` and its parents if missing; a failure is an
    :class:`OutputError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc
    return Path(path)


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
    payload = bytearray()
    payload += _HEADER.pack(_MAGIC, f.n_frames, f.dim, f.valid_len)
    payload += f.spatial.astype("<f4", copy=False).tobytes(order="C")
    payload += f.encoded.astype("<f4", copy=False).tobytes(order="C")
    write_file(path, bytes(payload))


def load_features(path: str | Path) -> FrameFeatures:
    """Read a feature file, enforcing header consistency and padding; the
    video id is the file stem."""
    path = Path(path)
    raw = read_file(path)
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, n_frames, dim, valid_len = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if n_frames < 1 or dim < 1:
        raise DataError(f"{path}: F and D must be >= 1 (F={n_frames}, D={dim})")
    body = raw[_HEADER.size :]
    expected = 2 * n_frames * dim * 4
    if len(body) != expected:
        raise DataError(f"{path}: truncated body ({len(body)} bytes, expected {expected})")
    flat = np.frombuffer(body, dtype="<f4")
    spatial = flat[: n_frames * dim].reshape(n_frames, dim)
    encoded = flat[n_frames * dim :].reshape(n_frames, dim)
    return FrameFeatures(video_id=path.stem, spatial=spatial, encoded=encoded, valid_len=int(valid_len))


# ---------------------------------------------------------------------------
# JSON Lines records
# ---------------------------------------------------------------------------

def save_records(docs: list[dict], path: str | Path) -> Path:
    """Write one JSON object per line, keys sorted."""
    lines = "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
    return write_file(path, lines)


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
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{i}: bad annotation record: {exc}") from exc
    return anns


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline, with defaults matching the reference setup.

    ``lambda_`` is the saliency-loss weight (spelled ``lambda`` in JSON).
    The window sizes follow :class:`~saliseg.refine.RefineConfig`'s rules.
    """

    tau: float = 0.5
    lambda_: float = dataclasses.field(default=6.0, metadata={"json": "lambda"})
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
        # Every check is written so that NaN fails it.
        object.__setattr__(self, "windows", RefineConfig(self.windows).windows)
        if not self.tau > 0:
            raise ConfigError("tau must be > 0")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not self.gamma >= 0:
            raise ConfigError("gamma must be >= 0")
        if not (math.isfinite(self.lambda_) and math.isfinite(self.mu)):
            raise ConfigError("lambda and mu must be finite")
        if not self.K >= 1:
            raise ConfigError("K must be >= 1")
        if not 1 <= self.top_k <= self.K:
            raise ConfigError("top_k must satisfy 1 <= top_k <= K")
        if not self.top_p >= 1:
            raise ConfigError("top_p must be >= 1")
        if not self.F_max >= 1:
            raise ConfigError("F_max must be >= 1")
        if any(w > self.F_max for w in self.windows):
            raise ConfigError("window size exceeds F_max")

    def to_json(self) -> str:
        doc = {key: getattr(self, name) for key, name in _json_keys(type(self)).items()}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_keys(cls: type) -> dict[str, str]:
    """JSON key -> field name; the key is ``metadata["json"]`` or the name."""
    return {f.metadata.get("json", f.name): f.name for f in dataclasses.fields(cls)}


def dataclass_from_json(cls: type[T], text: str) -> T:
    """Build the dataclass ``cls`` from a JSON object keyed by :func:`_json_keys`.

    Bad JSON, anything but an object, an unknown key and a value that the
    constructor cannot take are all :class:`ConfigError`.
    """
    keys = _json_keys(cls)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad {cls.__name__} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} JSON must be an object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**{keys[k]: v for k, v in doc.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__} value: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    return dataclass_from_json(PipelineConfig, read_text(path))


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    write_file(path, cfg.to_json())
