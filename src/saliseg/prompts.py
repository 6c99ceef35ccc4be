"""Saliency prompt projection and decoder-input sequence assembly.

There is no decoder here; the module realizes the sequence contract only:
frame scores are mapped affinely to D-dimensional prompt rows and the final
input is the row concatenation [refined frames; prompts; retrieval vectors;
text] with recorded section offsets. No stage produces text rows, so the
pipeline writes an empty text section; the format keeps it as the fourth.

Sequence file format (``.stin``): magic ``b"STIN"``, little-endian u64
values D and the four section lengths (frames, prompts, retrieval, text),
then all rows as little-endian f32, row-major.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .data import read_file, write_file
from .errors import DataError
from .rng import substream

_MAGIC = b"STIN"
_HEADER = struct.Struct("<4sQQQQQ")


@dataclass(frozen=True)
class PromptMap:
    """Affine map from a scalar score to a prompt row: s * w_map + b_map."""

    w_map: NDArray[np.float64]
    b_map: NDArray[np.float64]

    def __post_init__(self) -> None:
        w = np.asarray(self.w_map, dtype=np.float64)
        b = np.asarray(self.b_map, dtype=np.float64)
        object.__setattr__(self, "w_map", w)
        object.__setattr__(self, "b_map", b)
        if w.shape != b.shape or w.ndim != 1:
            raise DataError("w_map and b_map must be equal-length vectors")


def init_prompt_map(dim: int, seed: int) -> PromptMap:
    """Seeded N(0, 1/D) weight and zero bias; a stand-in for trained values."""
    rng = substream(seed, "prompt-map")
    return PromptMap(w_map=rng.normal(0.0, 1.0 / np.sqrt(dim), dim), b_map=np.zeros(dim))


@dataclass(frozen=True)
class DecoderInput:
    """Concatenated sequence and the start offsets of its four sections."""

    sequence: NDArray[np.float64]
    lengths: tuple[int, int, int, int]

    @property
    def offsets(self) -> tuple[int, int, int, int]:
        return tuple(accumulate(self.lengths[:3], initial=0))

    def section(self, i: int) -> NDArray[np.float64]:
        start = self.offsets[i]
        return self.sequence[start : start + self.lengths[i]]


def project_saliency(
    p_s: NDArray[np.float64], prompt_map: PromptMap
) -> NDArray[np.float64]:
    """One prompt row per frame: score times weight vector, plus bias."""
    p_s = np.asarray(p_s, dtype=np.float64)
    if not np.all(np.isfinite(p_s)):
        raise DataError("non-finite saliency scores")
    return p_s[:, None] * prompt_map.w_map[None, :] + prompt_map.b_map[None, :]


def assemble_input(
    xp: NDArray[np.float64],
    prompts: NDArray[np.float64],
    retrieval: NDArray[np.float64],
    text: NDArray[np.float64],
) -> DecoderInput:
    """Row-concatenate the four sections; widths must agree."""
    parts = [np.asarray(a, dtype=np.float64) for a in (xp, prompts, retrieval, text)]
    dim = parts[0].shape[1]
    for name, a in zip(("frames", "prompts", "retrieval", "text"), parts):
        if a.ndim != 2 or a.shape[1] != dim:
            raise DataError(f"{name} section width {a.shape} does not match D={dim}")
    return DecoderInput(sequence=np.vstack(parts), lengths=tuple(a.shape[0] for a in parts))


def save_decoder_input(d: DecoderInput, path: str | Path) -> None:
    dim = d.sequence.shape[1]
    payload = bytearray(_HEADER.pack(_MAGIC, dim, *d.lengths))
    payload += d.sequence.astype("<f4").tobytes(order="C")
    write_file(path, bytes(payload))


def load_decoder_input(path: str | Path) -> DecoderInput:
    raw = read_file(path)
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, dim, n_frames, n_prompts, n_retr, n_text = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    total = n_frames + n_prompts + n_retr + n_text
    if dim < 1 or total < 1:
        raise DataError(f"{path}: empty decoder input (D={dim}, {total} rows)")
    body = raw[_HEADER.size :]
    if len(body) != total * dim * 4:
        raise DataError(f"{path}: truncated body")
    seq = np.frombuffer(body, dtype="<f4").reshape(total, dim)
    if not np.all(np.isfinite(seq)):
        raise DataError(f"{path}: non-finite sequence values")
    lengths = (int(n_frames), int(n_prompts), int(n_retr), int(n_text))
    return DecoderInput(sequence=seq.astype(np.float64), lengths=lengths)
