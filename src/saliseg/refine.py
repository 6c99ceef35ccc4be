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
    valid_len: int | None = None,
) -> NDArray[np.float64]:
    """Refine encoded frame features with multi-scale local attention.

    Only the first ``valid_len`` frames (all of them when ``None``) enter
    windows; window sizes larger than ``valid_len`` are skipped with a
    warning. Padded frames pass through unchanged, and so do the valid ones
    when no window fits. Accumulation order is fixed (ascending window size,
    then start), so the result is deterministic to the bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError("features must be an F x D matrix")
    n_frames = x.shape[0]
    n_valid = n_frames if valid_len is None else int(valid_len)
    if not 0 <= n_valid <= n_frames:
        raise DataError(f"valid_len must lie in [0, {n_frames}]")
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

    # The smallest fitting window covers every frame: counts are all > 0 or all 0.
    refined = x.copy()
    if count.any():
        refined[:n_valid] = xv + _layer_norm(acc / count[:, None])
    return refined
