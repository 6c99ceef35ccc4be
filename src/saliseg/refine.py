"""Parameter-free feature refinement by multi-scale sliding-window self-attention.

For every window size ``w`` and every start ``s`` the window's rows
attend to each other with plain scaled dot-product attention, queries, keys
and values all being the raw rows. Outputs of overlapping windows are
averaged per frame by the coverage count, layer-normalized (no learnable
affine) and added back residually. The input is a video's valid rows, as
:func:`~saliseg.data.load_features` returns them; there is no padding to
skip. Two calls on identical inputs are bit-identical: there are no
parameters and no randomness.

All window sizes share one banded pass per block of :data:`ROWS` rows,
the sliding-window pattern of Longformer (Beltagy et al., 2020), not one
product per start. With ``W`` the widest size, frame i's output summed over
every window of every size that holds it is ``sum_j e_ij W_ij x_j`` over
the band ``|i - j| < W``, where ``e_ij = exp(x_i . x_j / sqrt(D) - m_i)``
with ``m_i`` row i's maximum over that band, and ``W_ij`` sums ``1 / Z_t``
over the windows t, of any size, that hold both i and j. Each window
normalizer ``Z_t`` is a suffix sum of the band's first half plus a prefix
sum of its second half, and every size reads the same sums. Each ``W_ij``
is a prefix or suffix sum of the ``1 / Z_t`` gathered over the sizes: sums
of non-negative terms, so nothing cancels. A block costs one logits
product, one ``exp`` and one output product for all sizes together:
O(n W D) in all, against O(n w^2 D) per size window by window. A window
whose entries all lie far below ``m_i`` can underflow its normalizer, a
small window sooner, since ``m_i`` is taken over the widest band. A size
and row with a normalizer below ``2**-900`` drop out of the band, and that
row's windows of that size are recomputed one by one, at O(w D) each. The
result matches the window-by-window sum to rounding (about 1e-15
relative), not to the bit.
"""

from __future__ import annotations

import logging

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.typing import NDArray

from .errors import ConfigError, DataError, config_int

logger = logging.getLogger(__name__)

_LN_EPSILON = 1e-5  # variance guard of the layer normalization
ROWS = 128  # rows per block of window_attention: its temporaries take about 0.9 MB at a widest window of 64
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


def window_attention(x: NDArray[np.float64], windows: tuple[int, ...]) -> NDArray[np.float64]:
    """Per frame, the summed self-attention outputs of every window of ``x``
    that holds the frame, over every window size in ``windows``.

    A window's output is softmax(X X^T / sqrt(D)) X over its rows, so with
    ``windows = (len(x),)`` this is that one window's output. ``x`` must be
    a finite float64 ``n x D`` matrix; :func:`refine_features` checks its
    matrix once, so only ``1 <= w <= n`` for each size is checked here. The
    banded form and its fallback are in the module docstring.
    """
    n, d = x.shape
    if not windows:
        raise ConfigError("window_attention needs at least one window size")
    for w in windows:
        if not 1 <= w <= n:
            raise ConfigError(f"window size {w} must be between 1 and the row count {n}")
    wide = max(windows)
    band = 2 * wide - 1
    m = min(ROWS, n)
    out = np.empty_like(x)
    # Allocated once, sized for the widest band, and reused by every block.
    buffer = np.empty((m, m + band - 1))
    exps = np.empty((m, band))
    sums = np.empty((m, band))
    recips = np.empty((m, band))
    norms = np.empty((m, wide))
    for a in range(0, n, ROWS):
        b = min(a + ROWS, n)
        lo, hi = max(a - wide + 1, 0), min(b + wide - 1, n)
        ctx = x[lo:hi]
        # Column c of the block matrix is frame a - wide + 1 + c, so row r's
        # band starts at column r: a view with row stride one row plus one.
        block = buffer[: b - a, : b - a + band - 1]
        # Every window of an inner block lies inside the video, and the
        # widest band covers the whole block.
        inner = a >= wide - 1 and b <= n - wide + 1
        if not inner:
            block.fill(-np.inf)
        cols = slice(lo - (a - wide + 1), hi - (a - wide + 1))
        np.matmul(x[a:b], ctx.T, out=block[:, cols])
        view = as_strided(block, (b - a, band), (block.strides[0] + block.strides[1], block.strides[1]))
        e = np.divide(view, np.sqrt(d), out=exps[: b - a])
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        # Band entry k is frame i + k - wide + 1. The suffix sums of the
        # first half and the prefix sums of the second serve every size.
        suffix = sums[: b - a, :wide]
        np.cumsum(e[:, wide - 1 :: -1], axis=1, out=suffix[:, ::-1])
        prefix = np.cumsum(e[:, wide:], axis=1, out=sums[: b - a, wide:])
        r = recips[: b - a]
        r.fill(0.0)
        redo = []
        for w in windows:
            # Window t of size w starts at frame i + t - w + 1 and holds
            # entries wide - w + t .. wide + t - 1: Z_t is a suffix sum plus
            # a prefix sum.
            z = norms[: b - a, :w]
            z[:, 0] = suffix[:, wide - w]
            np.add(suffix[:, wide - w + 1 :], prefix[:, : w - 1], out=z[:, 1:])
            if not inner or z.min() < _Z_FLOOR:
                rows = np.arange(a, b)[:, None]
                t = np.arange(w)
                held = (t >= w - 1 - rows) & (t <= n - 1 - rows)  # window t lies inside the video
                fallback = np.any(held & (z < _Z_FLOOR), axis=1)
                z[~held | fallback[:, None]] = np.inf
                redo += [(w, a + i) for i in np.flatnonzero(fallback)]
            np.reciprocal(z, out=z)
            # Entry wide - w + k lies in windows 0 .. k and entry wide + k in
            # windows k + 1 .. w - 1, so with 1 / Z_t at entries wide - w + t
            # and wide + t - 1 the weights of every size at once are the
            # prefix sums of r's first half and the suffix sums of its second.
            r[:, wide - w : wide] += z
            r[:, wide : wide + w - 1] += z[:, 1:]
        weight = sums[: b - a]  # the sums are spent; their band takes the weights
        np.cumsum(r[:, :wide], axis=1, out=weight[:, :wide])
        np.cumsum(r[:, : wide - 1 : -1], axis=1, out=weight[:, : wide - 1 : -1])
        # The weighted band replaces the logits: one output product.
        block.fill(0.0)
        np.multiply(e, weight, out=view)
        out[a:b] = block[:, cols] @ ctx
        for w, i in redo:
            out[i] += _direct_row(x, w, i)
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
    when no window fits, the rows pass through unchanged. The fitting sizes
    are one :func:`window_attention` call, divided by the frame's
    closed-form coverage count, so the result is deterministic to the bit.
    """
    windows = check_windows(windows)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DataError("features must be a valid_len x D matrix with D >= 1")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite feature values")
    n_frames = x.shape[0]
    fitting = tuple(w for w in windows if w <= n_frames)
    for w in windows[len(fitting) :]:
        logger.warning("window %d exceeds valid length %d, skipped", w, n_frames)
    if not fitting:
        return x.copy()
    i = np.arange(n_frames)
    count = sum(np.minimum(np.minimum(i + 1, n_frames - i), min(w, n_frames - w + 1)) for w in fitting)
    return x + _layer_norm(window_attention(x, fitting) / count[:, None])
