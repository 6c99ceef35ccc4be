"""Parameter-free feature refinement by multi-scale sliding-window self-attention.

For every window size ``w`` and every start ``i`` the window's rows
attend to each other with plain scaled dot-product attention, queries, keys
and values all being the raw rows. Outputs of overlapping windows are
averaged per frame by the coverage count, layer-normalized (no learnable
affine) and added back residually. The input is a video's valid rows, as
:func:`~saliseg.data.load_features` returns them; there is no padding to
skip. Two calls on identical inputs are bit-identical: there are no
parameters and no randomness.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DataError, config_int

logger = logging.getLogger(__name__)

_LN_EPSILON = 1e-5  # variance guard of the layer normalization


@dataclass(frozen=True)
class RefineConfig:
    """Window sizes of the refinement pass."""

    windows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(config_int("window size", w) for w in self.windows))
        if any(w < 2 for w in self.windows):
            raise ConfigError("window sizes must be >= 2")
        if any(w2 <= w1 for w1, w2 in zip(self.windows, self.windows[1:])):
            raise ConfigError("windows must be strictly increasing")


def window_attention(x_seg: NDArray[np.float64]) -> NDArray[np.float64]:
    """Self-attention of one window: softmax(X X^T / sqrt(D)) X.

    ``x_seg`` must be a finite float64 ``w x D`` matrix with ``w >= 1``;
    :func:`refine_features` checks its whole matrix once, so no window is
    checked again. Rows of the weight matrix sum to one, so identical input
    rows map to themselves exactly.
    """
    d = x_seg.shape[1]
    logits = (x_seg @ x_seg.T) / np.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ x_seg


def _layer_norm(x: NDArray[np.float64]) -> NDArray[np.float64]:
    # Per-frame normalization over the feature dimension, no learnable scale/shift.
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPSILON)


def refine_features(x: NDArray[np.float64], cfg: RefineConfig) -> NDArray[np.float64]:
    """Refine the encoded rows of a video's valid frames with multi-scale
    local attention.

    Window sizes larger than the frame count are skipped with a warning;
    when no window fits, the rows pass through unchanged. Accumulation order
    is fixed (ascending window size, then start), so the result is
    deterministic to the bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DataError("features must be a valid_len x D matrix with D >= 1")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite feature values")
    n_frames = x.shape[0]
    acc = np.zeros_like(x)
    count = np.zeros(n_frames, dtype=np.int64)
    for w in cfg.windows:
        if w > n_frames:
            logger.warning("window %d exceeds valid length %d, skipped", w, n_frames)
            continue
        for start in range(0, n_frames - w + 1):
            acc[start : start + w] += window_attention(x[start : start + w])
            count[start : start + w] += 1

    # The smallest fitting window covers every frame: counts are all > 0 or all 0.
    if not count.any():
        return x.copy()
    return x + _layer_norm(acc / count[:, None])
