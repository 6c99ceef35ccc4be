"""Parameter-free feature refinement by multi-scale sliding-window self-attention.

For every window size ``w`` and every start ``s`` the window's rows
attend to each other with plain scaled dot-product attention, queries, keys
and values all being the raw rows. Outputs of overlapping windows are
averaged per frame by the coverage count, layer-normalized (no learnable
affine) and added back residually. The input is a video's valid rows, as
:func:`~saliseg.data.load_features` returns them; there is no padding to
skip. Two calls on identical inputs are bit-identical: there are no
parameters and no randomness.

One window size is one banded pass, the sliding-window pattern of
Longformer (Beltagy et al., 2020), not one product per start. Frame i's
summed output over the windows that hold it is ``sum_j e_ij W_ij x_j`` over
the band ``|i - j| < w``, where ``e_ij = exp(x_i . x_j / sqrt(D) - m_i)``
with ``m_i`` row i's band maximum, and ``W_ij`` sums ``1 / Z_t`` over the
windows t that hold both i and j. Each window normalizer ``Z_t`` is a suffix
sum of the band's first half plus a prefix sum of its second half, and each
``W_ij`` a prefix or suffix sum of the ``1 / Z_t``: sums of non-negative
terms, so nothing cancels. The cost is O(n w D) per window size, in two
matrix products per block of :data:`ROWS` rows, against O(n w^2 D) window
by window. A window whose entries all lie far below ``m_i`` can underflow
its normalizer; a row with a normalizer below ``2**-900`` is recomputed
window by window, at O(w D) per window. The result matches the
window-by-window sum to rounding (about 1e-15 relative), not to the bit.
"""

from __future__ import annotations

import logging

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.typing import NDArray

from .errors import ConfigError, DataError, config_int

logger = logging.getLogger(__name__)

_LN_EPSILON = 1e-5  # variance guard of the layer normalization
ROWS = 64  # rows per block of window_attention: its temporaries stay under 128 KiB at w <= 64
_Z_FLOOR = 2.0**-900  # a window normalizer below this lost its entries to underflow


def check_windows(windows) -> tuple[int, ...]:
    """The window sizes as a tuple of ints; raise :class:`ConfigError` unless
    each is an integer >= 2 and they strictly increase."""
    windows = tuple(config_int("window size", w) for w in windows)
    if any(w < 2 for w in windows):
        raise ConfigError("window sizes must be >= 2")
    if any(w2 <= w1 for w1, w2 in zip(windows, windows[1:])):
        raise ConfigError("windows must be strictly increasing")
    return windows


def window_attention(x: NDArray[np.float64], w: int) -> NDArray[np.float64]:
    """Per frame, the summed self-attention outputs of every length-``w``
    window of ``x`` that holds the frame.

    A window's output is softmax(X X^T / sqrt(D)) X over its rows, so with
    ``w = len(x)`` this is that one window's output. ``x`` must be a finite
    float64 ``n x D`` matrix; :func:`refine_features` checks its matrix
    once, so only ``1 <= w <= n`` is checked here. The banded form and its
    fallback are in the module docstring.
    """
    n, d = x.shape
    if not 1 <= w <= n:
        raise ConfigError(f"window size {w} must be between 1 and the row count {n}")
    band = 2 * w - 1
    t = np.arange(w)
    out = np.empty_like(x)
    for a in range(0, n, ROWS):
        b = min(a + ROWS, n)
        lo, hi = max(a - w + 1, 0), min(b + w - 1, n)
        ctx = x[lo:hi]
        # Column c of the block matrix is frame a - w + 1 + c, so row r's
        # band starts at column r: a view with row stride one row plus one.
        block = np.full((b - a, b - a + band - 1), -np.inf)
        cols = slice(lo - (a - w + 1), hi - (a - w + 1))
        logits = np.matmul(x[a:b], ctx.T, out=block[:, cols])
        logits /= np.sqrt(d)
        view = as_strided(block, (b - a, band), (block.strides[0] + block.strides[1], block.strides[1]))
        e = view - view.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        # Window t of row i starts at frame i + t - w + 1 and holds band
        # entries t .. t + w - 1: Z_t is a suffix sum plus a prefix sum.
        z = np.cumsum(e[:, w - 1 :: -1], axis=1)[:, ::-1]
        z[:, 1:] += np.cumsum(e[:, w:], axis=1)
        rows = np.arange(a, b)[:, None]
        held = (t >= w - 1 - rows) & (t <= n - 1 - rows)  # window t lies inside the video
        fallback = np.any(held & (z < _Z_FLOOR), axis=1)
        z[~held | fallback[:, None]] = np.inf
        r = 1.0 / z
        # Entry k < w lies in windows 0 .. k, entry w + k in windows k + 1 .. w - 1.
        e[:, :w] *= np.cumsum(r, axis=1)
        e[:, w:] *= np.cumsum(r[:, :0:-1], axis=1)[:, ::-1]
        block.fill(0.0)
        view[...] = e
        out[a:b] = block[:, cols] @ ctx
        for i in a + np.flatnonzero(fallback):
            out[i] = _direct_row(x, w, i)
    return out


def _direct_row(x: NDArray[np.float64], w: int, i: int) -> NDArray[np.float64]:
    # Row i of every window that holds it, each softmax stabilized by its
    # own maximum: O(w D) per window.
    n, d = x.shape
    acc = np.zeros(d)
    for s in range(max(i - w + 1, 0), min(i, n - w) + 1):
        seg = x[s : s + w]
        logits = (seg @ x[i]) / np.sqrt(d)
        weights = np.exp(logits - logits.max())
        acc += (weights / weights.sum()) @ seg
    return acc


def _layer_norm(x: NDArray[np.float64]) -> NDArray[np.float64]:
    # Per-frame normalization over the feature dimension, no learnable scale/shift.
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPSILON)


def refine_features(x: NDArray[np.float64], windows: tuple[int, ...]) -> NDArray[np.float64]:
    """Refine the encoded rows of a video's valid frames with multi-scale
    local attention at the window sizes ``windows``, which follow
    :func:`check_windows`.

    Window sizes larger than the frame count are skipped with a warning;
    when no window fits, the rows pass through unchanged. Each fitting
    window size is one :func:`window_attention` call, summed in ascending
    order and divided by the frame's closed-form coverage count, so the
    result is deterministic to the bit.
    """
    windows = check_windows(windows)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DataError("features must be a valid_len x D matrix with D >= 1")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite feature values")
    n_frames = x.shape[0]
    acc = np.zeros_like(x)
    count = np.zeros(n_frames, dtype=np.int64)
    i = np.arange(n_frames)
    for w in windows:
        if w > n_frames:
            logger.warning("window %d exceeds valid length %d, skipped", w, n_frames)
            continue
        acc += window_attention(x, w)
        count += np.minimum(np.minimum(i + 1, n_frames - i), min(w, n_frames - w + 1))

    # The smallest fitting window covers every frame: counts are all > 0 or all 0.
    if not count.any():
        return x.copy()
    return x + _layer_norm(acc / count[:, None])
