"""Core data model: frame features, event annotations, highlight labels, config.

File formats
------------
Feature file (``.sfeat``): magic ``b"SFT1"``, three little-endian u64 values
``F``, ``D``, ``valid_len``, then ``F * D`` little-endian f32 values for the
spatial matrix (row-major) followed by ``F * D`` f32 values for the encoded
matrix. Padding rows (index >= ``valid_len``) must be all zero. Padding ends
at the reader: :func:`load_features` checks those rows and drops them, so a
loaded video is its ``valid_len`` valid rows plus the file's ``F``, and no
code past it sees a padded row; :func:`save_features` writes them back.

Annotations: JSON Lines, one object per video,
``{"video_id": str, "valid_len": int, "events": [[start, end], ...]}`` with
half-open integer frame intervals. Frame indices assume the 1 FPS sampling
convention, i.e. one frame per second of video; callers with sub-second
timestamps are expected to pre-round (floor the start, ceil the end).

Config: a single JSON document whose keys are :class:`PipelineConfig` field
names. Unknown keys are rejected.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import logging
import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DataError, OutputError, config_int
from .refine import check_windows
from .transport import check_solver_weights

logger = logging.getLogger(__name__)

T = TypeVar("T")

_MAGIC = b"SFT1"
_HEADER = struct.Struct("<4sQQQ")


@dataclass(frozen=True)
class FrameFeatures:
    """Per-video feature matrices: spatial rows and temporally encoded rows.

    Both matrices are ``valid_len x D`` float32 and hold the valid frames
    only; ``n_frames`` is the padded length ``F`` of the feature file.
    """

    video_id: str
    spatial: NDArray[np.float32]
    encoded: NDArray[np.float32]
    n_frames: int

    def __post_init__(self) -> None:
        spatial = np.ascontiguousarray(self.spatial, dtype=np.float32)
        encoded = np.ascontiguousarray(self.encoded, dtype=np.float32)
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "encoded", encoded)
        if spatial.ndim != 2 or spatial.shape[1] < 1 or self.n_frames < 1:
            raise DataError(f"{self.video_id}: spatial matrix must be valid_len x D with D, F >= 1")
        if encoded.shape != spatial.shape:
            raise DataError(
                f"{self.video_id}: spatial {spatial.shape} and encoded {encoded.shape} differ"
            )
        if self.valid_len > self.n_frames:
            raise DataError(f"{self.video_id}: valid_len exceeds F ({self.valid_len} > {self.n_frames})")
        if not (np.all(np.isfinite(spatial)) and np.all(np.isfinite(encoded))):
            raise DataError(f"{self.video_id}: non-finite feature values")

    @property
    def valid_len(self) -> int:
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
        # Frame bounds follow the config integer rule: a float is not truncated.
        def frame(name: str, value) -> int:
            return config_int(f"{self.video_id}: {name}", value, DataError)

        object.__setattr__(self, "valid_len", frame("valid_len", self.valid_len))
        events = tuple((frame("event start", s), frame("event end", e)) for s, e in self.events)
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


def derive_highlight_labels(ann: EventAnnotation) -> NDArray[np.float64]:
    """Convert annotated events into binary frame labels H, a float vector
    of length ``ann.valid_len``.

    A frame is a highlight (label 1) iff it lies inside the union of the
    annotated half-open event intervals. A video without events yields
    all-zero labels and is unusable for saliency training; a warning is
    logged.
    """
    labels = np.zeros(ann.valid_len, dtype=np.float64)
    for s, e in ann.events:
        labels[s:e] = 1.0
    if not ann.events:
        logger.warning("%s: no events, all-zero highlight labels", ann.video_id)
    return labels


# ---------------------------------------------------------------------------
# Reading and writing files
# ---------------------------------------------------------------------------

def read_file(path: str | Path) -> bytes:
    """The bytes of ``path``; a file that cannot be read is a :class:`DataError`."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


# read_pieces reads at most this many bytes at a time.
_PIECE_BYTES = 256 * 1024


@contextlib.contextmanager
def read_pieces(path: str | Path):
    """Open ``path`` and yield its size in bytes and an iterator over its
    bytes in pieces of ``_PIECE_BYTES``, or of the whole file if that is
    smaller (the last piece may be shorter), so a reader holds one piece at
    a time. A pipe or other file that is not regular has no size until it
    is read to its end, so it is read whole, as one piece. As with
    :func:`read_file`, a file that cannot be opened or read is a
    :class:`DataError` naming ``path``."""

    def pieces(step):
        while piece := file.read(step):
            yield piece

    try:
        with open(path, "rb") as file:
            info = os.fstat(file.fileno())
            if not stat.S_ISREG(info.st_mode):
                whole = file.read()
                yield len(whole), iter([whole] if whole else [])
            else:  # a read allocates the whole step before it fills it
                yield info.st_size, pieces(max(1, min(info.st_size, _PIECE_BYTES)))
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def write_file(path: str | Path, payload: bytes | memoryview | str) -> Path:
    """Write ``payload`` (any bytes-like value, or text as UTF-8) to a temp
    file beside ``path``, then rename it over ``path``, so ``path`` holds its
    old content or all of ``payload``. A failed write is an
    :class:`OutputError` and leaves no temp file behind."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc
    return path


def check_writable(path: str | Path) -> Path:
    """Raise, without writing, the :class:`OutputError` that :func:`write_file`
    would raise for ``path``: a missing or non-directory parent, a directory
    at ``path``, or a parent directory it may not write in."""
    path = Path(path)
    try:
        if not path.parent.is_dir():
            os.stat(path.parent)  # raises the reason when the parent is missing
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.access(path.parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc
    return path


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
    """Write a feature file, zero rows padding the valid ones up to
    ``f.n_frames``; byte output is a pure function of the value."""
    pad = bytes((f.n_frames - f.valid_len) * f.dim * 4)
    spatial, encoded = (np.ascontiguousarray(a, dtype="<f4") for a in (f.spatial, f.encoded))
    header = _HEADER.pack(_MAGIC, f.n_frames, f.dim, f.valid_len)
    write_file(path, b"".join([header, spatial, pad, encoded, pad]))


def load_features(path: str | Path) -> FrameFeatures:
    """Read a feature file, enforcing header consistency and zero padding,
    and keep its valid rows; the video id is the file stem."""
    path = Path(path)
    raw = read_file(path)
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, n_frames, dim, valid_len = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if n_frames < 1 or dim < 1:
        raise DataError(f"{path}: F and D must be >= 1 (F={n_frames}, D={dim})")
    if valid_len > n_frames:
        raise DataError(f"{path.stem}: valid_len exceeds F ({valid_len} > {n_frames})")
    body = raw[_HEADER.size :]
    expected = 2 * n_frames * dim * 4
    if len(body) != expected:
        raise DataError(f"{path}: truncated body ({len(body)} bytes, expected {expected})")
    spatial, encoded = np.frombuffer(body, dtype="<f4").reshape(2, n_frames, dim)
    if np.any(spatial[valid_len:] != 0) or np.any(encoded[valid_len:] != 0):
        raise DataError(f"{path.stem}: nonzero padding rows beyond valid_len")
    return FrameFeatures(path.stem, spatial[:valid_len], encoded[:valid_len], n_frames)


# ---------------------------------------------------------------------------
# JSON Lines records
# ---------------------------------------------------------------------------

def record_line(doc: dict) -> str:
    """One line of a record file: the JSON object, keys sorted."""
    return json.dumps(doc, sort_keys=True) + "\n"


def save_records(docs: list[dict], path: str | Path) -> Path:
    """Write one JSON object per line, keys sorted."""
    return write_file(path, "".join(map(record_line, docs)))


def _jsonl_lines(path: str | Path):
    """Yield ``(line number, object)`` for every non-blank line of ``path``."""
    for i, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            yield i, json.loads(line)
        except ValueError as exc:  # also an integer past the digit limit
            raise DataError(f"{path}:{i}: bad JSON: {exc}") from exc


def _add_record(records: dict, video_id: str, record, path: str | Path, line: int) -> None:
    if video_id in records:
        raise DataError(f"{path}:{line}: repeated video_id {video_id}")
    records[video_id] = record


def load_records(path: str | Path) -> dict[str, dict]:
    """Read a JSON Lines file of per-video records, keyed by ``video_id``;
    a repeated ``video_id`` is a :class:`DataError`."""
    records: dict[str, dict] = {}
    for i, doc in _jsonl_lines(path):
        try:
            video_id = str(doc["video_id"])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}:{i}: record without a video_id") from exc
        _add_record(records, video_id, doc, path, i)
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
    """Read annotations in file order; a repeated ``video_id`` is a
    :class:`DataError`."""
    anns: dict[str, EventAnnotation] = {}
    for i, doc in _jsonl_lines(path):
        try:
            ann = EventAnnotation(
                video_id=str(doc["video_id"]),
                valid_len=doc["valid_len"],
                events=doc["events"],
            )
        except (KeyError, TypeError, ValueError, DataError) as exc:
            raise DataError(f"{path}:{i}: bad annotation record: {exc}") from exc
        _add_record(anns, ann.video_id, ann, path, i)
    return list(anns.values())


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline, with defaults matching the reference setup.

    The window sizes follow :func:`~saliseg.refine.check_windows`.
    """

    tau: float = 0.5
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
        for name in ("K", "top_k", "top_p", "F_max", "seed"):
            object.__setattr__(self, name, config_int(name, getattr(self, name)))
        object.__setattr__(self, "windows", check_windows(self.windows))
        if not 0 < self.tau < math.inf:
            raise ConfigError("tau must be finite and > 0")
        check_solver_weights(self.epsilon, self.alpha, self.gamma, ConfigError)
        if not math.isfinite(self.mu):
            raise ConfigError("mu must be finite")
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
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"


def dataclass_from_json(cls: type[T], text: str) -> T:
    """Build the dataclass ``cls`` from a JSON object keyed by its field names.

    Bad JSON, anything but an object, an unknown key and a value that the
    constructor cannot take are all :class:`ConfigError`.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past the digit limit
        raise ConfigError(f"bad {cls.__name__} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} JSON must be an object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__} value: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    return dataclass_from_json(PipelineConfig, read_text(path))
