"""Parameter-free feature refinement by multi-scale sliding-window self-attention.

For every window size ``w`` and every start ``i`` the window's rows
attend to each other with plain scaled dot-product attention, queries, keys
and values all being the raw rows. Outputs of overlapping windows are
averaged per frame by the coverage count, layer-normalized (no learnable
affine) and added back residually. Two calls on identical inputs are
bit-identical: there are no parameters and no randomness.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

_LN_EPSILON = 1e-5  # variance guard of the layer normalization


@dataclass(frozen=True)
class RefineConfig:
    """Window sizes of the refinement pass."""

    windows: tuple[int, ...] = (8, 32, 64)

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
        if any(w < 2 for w in self.windows):
            raise ConfigError("window sizes must be >= 2")
        if any(w2 <= w1 for w1, w2 in zip(self.windows, self.windows[1:])):
            raise ConfigError("windows must be strictly increasing")


def window_attention(x_seg: NDArray[np.float64]) -> NDArray[np.float64]:
    """Self-attention of one window: softmax(X X^T / sqrt(D)) X.

    Rows of the weight matrix sum to one, so identical input rows map to
    themselves exactly.
    """
    x = np.asarray(x_seg, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError("window must be a w x D matrix with w >= 1")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite values in attention window")
    d = x.shape[1]
    logits = (x @ x.T) / np.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ x


def _layer_norm(x: NDArray[np.float64]) -> NDArray[np.float64]:
    # Per-frame normalization over the feature dimension, no learnable scale/shift.
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPSILON)


def refine_features(
    x: NDArray[np.float64],
    cfg: RefineConfig,
    mask: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Refine encoded frame features with multi-scale local attention.

    Only valid frames (mask 1) enter windows; window sizes larger than the
    valid length are skipped with a warning. Frames not covered by any
    window, and all padded frames, pass through unchanged. Accumulation
    order is fixed (ascending window size, then start), so the result is
    deterministic to the bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError("features must be an F x D matrix")
    n_frames, dim = x.shape
    if mask is None:
        mask = np.ones(n_frames, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (n_frames,):
        raise DataError("mask length must equal the number of frames")
    valid = np.flatnonzero(mask > 0)
    if valid.size and (valid[0] != 0 or np.any(np.diff(valid) != 1)):
        raise DataError("mask must select a prefix of frames")
    n_valid = int(valid.size)
    if n_valid == 0:
        return x.copy()

    xv = x[:n_valid]
    acc = np.zeros_like(xv)
    count = np.zeros(n_valid, dtype=np.int64)
    for w in cfg.windows:
        if w > n_valid:
            logger.warning("window %d exceeds valid length %d, skipped", w, n_valid)
            continue
        for start in range(0, n_valid - w + 1):
            out = window_attention(xv[start : start + w])
            acc[start : start + w] += out
            count[start : start + w] += 1

    refined = x.copy()
    covered = count > 0
    if np.any(covered):
        averaged = np.zeros_like(xv)
        averaged[covered] = acc[covered] / count[covered, None]
        normed = _layer_norm(averaged[covered])
        refined[:n_valid][covered] = xv[covered] + normed
    return refined
