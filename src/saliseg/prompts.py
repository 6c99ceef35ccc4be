"""Saliency prompt projection and decoder-input sequence assembly.

There is no decoder here; the module realizes the sequence contract only:
each frame's score times a D-dimensional weight vector is its prompt row,
and the final input is the row concatenation [refined frames; prompts;
retrieval vectors] with recorded section offsets.

Sequence file format (``.stin``): magic ``b"STI3"``, little-endian u64
values D and the three section lengths (frames, prompts, retrieval), then
all rows as little-endian f32, row-major.
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

_MAGIC = b"STI3"
_HEADER = struct.Struct("<4sQQQQ")


def init_prompt_map(dim: int, seed: int) -> NDArray[np.float64]:
    """Seeded N(0, 1/D) prompt weight vector; a stand-in for trained values."""
    rng = substream(seed, "prompt-map")
    return rng.normal(0.0, 1.0 / np.sqrt(dim), dim)


@dataclass(frozen=True)
class DecoderInput:
    """Concatenated sequence and the start offsets of its three sections."""

    sequence: NDArray[np.float64]
    lengths: tuple[int, int, int]

    @property
    def offsets(self) -> tuple[int, int, int]:
        return tuple(accumulate(self.lengths[:2], initial=0))

    def section(self, i: int) -> NDArray[np.float64]:
        start = self.offsets[i]
        return self.sequence[start : start + self.lengths[i]]


def project_saliency(
    p_s: NDArray[np.float64], w_map: NDArray[np.float64]
) -> NDArray[np.float64]:
    """One prompt row per frame: the frame's score times the weight vector."""
    p_s = np.asarray(p_s, dtype=np.float64)
    if not np.all(np.isfinite(p_s)):
        raise DataError("non-finite saliency scores")
    return p_s[:, None] * w_map


def assemble_input(
    xp: NDArray[np.float64],
    prompts: NDArray[np.float64],
    retrieval: NDArray[np.float64],
) -> DecoderInput:
    """Row-concatenate the three sections; widths must agree."""
    parts = [np.asarray(a, dtype=np.float64) for a in (xp, prompts, retrieval)]
    dim = parts[0].shape[1]
    for name, a in zip(("frames", "prompts", "retrieval"), parts):
        if a.ndim != 2 or a.shape[1] != dim:
            raise DataError(f"{name} section width {a.shape} does not match D={dim}")
    return DecoderInput(sequence=np.vstack(parts), lengths=tuple(a.shape[0] for a in parts))


def save_decoder_input(d: DecoderInput, path: str | Path) -> None:
    header = _HEADER.pack(_MAGIC, d.sequence.shape[1], *d.lengths)
    write_file(path, b"".join([header, np.ascontiguousarray(d.sequence, dtype="<f4")]))


def load_decoder_input(path: str | Path) -> DecoderInput:
    raw = read_file(path)
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, dim, *lengths = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    total = sum(lengths)
    if dim < 1 or total < 1:
        raise DataError(f"{path}: empty decoder input (D={dim}, {total} rows)")
    body = raw[_HEADER.size :]
    if len(body) != total * dim * 4:
        raise DataError(f"{path}: truncated body")
    seq = np.frombuffer(body, dtype="<f4").reshape(total, dim)
    if not np.all(np.isfinite(seq)):
        raise DataError(f"{path}: non-finite sequence values")
    return DecoderInput(sequence=seq.astype(np.float64), lengths=tuple(lengths))
