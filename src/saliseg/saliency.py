"""Trainable frame-saliency head.

The head scores each frame against a pooled global context vector:
``score_n = (x_n W1^T) . (g W2^T) / sqrt(D)`` where ``g`` is an attention
pooling of the frames driven by a learnable query vector. Training
minimizes a listwise softmax loss in which all frames compete for
probability mass and annotated highlight frames are pushed up. Every
function takes one video's valid frames only, as
:func:`~saliseg.data.load_features` returns them, so nothing here masks.

Gradients are analytic (no autodiff framework); ``saliency_grad`` is checked
against central finite differences in the test suite.

Checkpoint format: one newline-terminated JSON header line ``{"D": int}``
followed by little-endian f32 payloads for ``w_pool`` (D), ``W1`` (D*D
row-major) and ``W2`` (D*D row-major). Other header keys, such as the
``tau`` that older checkpoints carry, are ignored.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .data import PipelineConfig, read_file, write_file
from .errors import ConfigError, DataError, config_int
from .rng import substream

logger = logging.getLogger(__name__)

# Adam moment decay rates and denominator guard.
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPSILON = 1e-8
# Largest parameter magnitude that the float32 checkpoint payload holds.
_F32_MAX = float(np.finfo(np.float32).max)
# Training defaults, also those of the ``train-saliency`` subcommand.
EPOCHS = 20
LEARNING_RATE = 1e-3


@dataclass
class SaliencyHead:
    """Learnable parameters of the saliency head."""

    w_pool: NDArray[np.float64]
    W1: NDArray[np.float64]
    W2: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.w_pool = np.asarray(self.w_pool, dtype=np.float64)
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        d = self.w_pool.shape[0]
        if self.W1.shape != (d, d) or self.W2.shape != (d, d):
            raise DataError("W1 and W2 must be square D x D matrices")
        for p in (self.w_pool, self.W1, self.W2):
            if not np.all(np.isfinite(p)):
                raise DataError("non-finite head parameters")

    @property
    def dim(self) -> int:
        return self.w_pool.shape[0]

    def copy(self) -> "SaliencyHead":
        return SaliencyHead(self.w_pool.copy(), self.W1.copy(), self.W2.copy())


def init_head(dim: int, seed: int) -> SaliencyHead:
    """Near-identity init: W = I + 0.01 N(0,1), zero pooling query.

    Zero query keeps the initial pooling uniform over the frames.
    """
    rng = substream(seed, "head-init")
    w1 = np.eye(dim) + 0.01 * rng.standard_normal((dim, dim))
    w2 = np.eye(dim) + 0.01 * rng.standard_normal((dim, dim))
    return SaliencyHead(w_pool=np.zeros(dim), W1=w1, W2=w2)


def _highlights(labels: NDArray[np.float64]) -> tuple[NDArray[np.float64], float]:
    """The labels as floats and their sum; a set without a highlight is a
    :class:`DataError`."""
    hm = np.asarray(labels, dtype=np.float64)
    n_high = hm.sum()
    if n_high < 1:
        raise DataError("empty highlight set")
    return hm, n_high


def attention_pool(
    xp: NDArray[np.float64], w_pool: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Pool the frames with a softmax over ``(X w_pool) / sqrt(D)``.

    Returns (pooled vector, weights); the weights sum to one.
    """
    xp = np.asarray(xp, dtype=np.float64)
    w_pool = np.asarray(w_pool, dtype=np.float64)
    logits = (xp @ w_pool) / np.sqrt(xp.shape[1])
    weights = softmax(logits, 1.0)
    pooled = weights @ xp
    return pooled, weights


def softmax(scores: NDArray[np.float64], tau: float) -> NDArray[np.float64]:
    """Temperature softmax over all frames, max-shifted for stability; a
    video without frames is a :class:`DataError`."""
    z = np.asarray(scores, dtype=np.float64) / tau
    if z.size == 0:
        raise DataError("no valid frames")
    expz = np.exp(z - np.max(z))
    return expz / expz.sum()


def saliency_forward(head: SaliencyHead, xp: NDArray[np.float64]) -> NDArray[np.float64]:
    """Score every frame."""
    return _forward(head, np.asarray(xp, dtype=np.float64))[0]


def _forward(
    head: SaliencyHead, xp: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    # The scores, the pooled context and the pooling weights of float64 rows xp.
    if xp.ndim != 2 or xp.shape[1] != head.dim:
        raise DataError(f"features must be valid_len x {head.dim}")
    pooled, weights = attention_pool(xp, head.w_pool)
    proj = xp @ head.W1.T
    ctx = pooled @ head.W2.T
    scores = (proj @ ctx) / np.sqrt(head.dim)
    return scores, pooled, weights


def saliency_loss(
    scores: NDArray[np.float64], labels: NDArray[np.float64], tau: float
) -> float:
    """Listwise softmax loss: mean negative log-probability of highlights."""
    return _listwise_loss(np.asarray(scores, dtype=np.float64) / tau, *_highlights(labels))


def _listwise_loss(z: NDArray[np.float64], hm: NDArray[np.float64], n_high: float) -> float:
    # The loss at tempered scores z, for highlights hm that sum to n_high.
    if hm.shape != z.shape:
        raise DataError(f"{hm.shape[0]} labels for {z.shape[0]} scores")
    zmax = np.max(z)
    log_z = zmax + np.log(np.sum(np.exp(z - zmax)))
    log_p = np.where(hm > 0, z - log_z, 0.0)
    return float(-(hm @ log_p) / n_high)


def saliency_grad(
    head: SaliencyHead,
    xp: NDArray[np.float64],
    labels: NDArray[np.float64],
    tau: float,
) -> tuple[float, dict[str, NDArray[np.float64]]]:
    """The saliency loss at temperature ``tau`` and its analytic gradients
    w.r.t. w_pool, W1 and W2, from one forward pass.

    Includes the pooling path: the pooled context depends on w_pool, and the
    scores depend on the pooled context through W2.
    """
    xp = np.asarray(xp, dtype=np.float64)
    scores, pooled, a = _forward(head, xp)
    hm, n_high = _highlights(labels)
    loss = _listwise_loss(scores / tau, hm, n_high)
    sqrt_d = np.sqrt(head.dim)

    p = softmax(scores, tau)
    g_scores = (p - hm / n_high) / tau

    ctx = pooled @ head.W2.T
    gx = g_scores @ xp  # sum_n g_n x_n
    d_w1 = np.outer(ctx, gx) / sqrt_d
    d_w2 = np.outer(head.W1 @ gx, pooled) / sqrt_d

    # Pooling path: scores depend on pooled through W2.
    d_pooled = (head.W2.T @ (head.W1 @ gx)) / sqrt_d
    d_weights = xp @ d_pooled
    d_logits = a * (d_weights - a @ d_weights)
    d_w_pool = (xp.T @ d_logits) / sqrt_d
    return loss, {"w_pool": d_w_pool, "W1": d_w1, "W2": d_w2}


def saliency_prior(scores: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sigmoid saliency prior ``p_s`` of every frame.

    :func:`~saliseg.transport.build_problem` normalizes it into the
    reference measure of the transport solver's KL term.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise DataError("non-finite saliency scores")
    e = np.exp(-np.abs(scores))
    return np.where(scores >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    """Adam state: the step count and per-parameter first/second moments."""

    step: int = 0
    m: dict[str, NDArray[np.float64]] = field(default_factory=dict)
    v: dict[str, NDArray[np.float64]] = field(default_factory=dict)


@dataclass(frozen=True)
class SaliencyExample:
    """One training item: refined features and labels of the valid frames."""

    video_id: str
    features: NDArray[np.float64]
    labels: NDArray[np.float64]


@dataclass
class TrainResult:
    head: SaliencyHead
    state: TrainState
    loss_curve: list[float]


def check_training(epochs: int, learning_rate: float) -> None:
    """Raise :class:`ConfigError` unless ``epochs >= 0`` and ``0 <
    learning_rate < inf``; both checks are written so that NaN fails them."""
    if not epochs >= 0:
        raise ConfigError("epochs must be >= 0")
    if not 0 < learning_rate < np.inf:
        raise ConfigError("learning_rate must be finite and > 0")


def train_saliency(
    examples: list[SaliencyExample],
    cfg: PipelineConfig,
    epochs: int = EPOCHS,
    learning_rate: float = LEARNING_RATE,
) -> TrainResult:
    """Adam over the per-video listwise losses at temperature ``cfg.tau``;
    deterministic given ``cfg.seed``. The loss curve holds each epoch's mean
    loss, unweighted.

    Videos without any highlight frame are skipped with a warning.
    Training diverges when the loss turns non-finite or an update leaves a
    parameter outside the float32 range of the checkpoint format; it then
    stops and returns the last head whose loss was finite. Bad ``epochs``
    or ``learning_rate`` values fail :func:`check_training`.
    """
    check_training(epochs, learning_rate)
    usable = []
    for ex in examples:
        try:
            _highlights(ex.labels)
            usable.append(ex)
        except DataError:
            logger.warning("%s: no highlight frames, skipped for training", ex.video_id)
    if not usable:
        raise DataError("no trainable videos")
    head = init_head(usable[0].features.shape[1], cfg.seed)
    params = {"w_pool": head.w_pool, "W1": head.W1, "W2": head.W2}  # updated in place
    state = TrainState(
        m={name: np.zeros_like(p) for name, p in params.items()},
        v={name: np.zeros_like(p) for name, p in params.items()},
    )
    rng = substream(cfg.seed, "train-saliency")
    loss_curve: list[float] = []
    last_good = head.copy()

    for _epoch in range(epochs):
        order = rng.permutation(len(usable))
        epoch_loss = 0.0
        for idx in order:
            ex = usable[idx]
            loss, grads = saliency_grad(head, ex.features, ex.labels, cfg.tau)
            if not np.isfinite(loss):
                return _diverged(last_good, state, loss_curve)
            last_good = head.copy()
            state.step += 1
            t = state.step
            for name, g in grads.items():
                state.m[name] = _BETA1 * state.m[name] + (1 - _BETA1) * g
                state.v[name] = _BETA2 * state.v[name] + (1 - _BETA2) * g * g
                m_hat = state.m[name] / (1 - _BETA1**t)
                v_hat = state.v[name] / (1 - _BETA2**t)
                params[name] -= learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)
            if not all(np.all(np.abs(p) <= _F32_MAX) for p in params.values()):  # NaN too
                return _diverged(last_good, state, loss_curve)
            epoch_loss += loss
        loss_curve.append(epoch_loss / len(usable))
    return TrainResult(head=head, state=state, loss_curve=loss_curve)


def _diverged(last_good: SaliencyHead, state: TrainState, loss_curve: list[float]) -> TrainResult:
    logger.error("training diverged at step %d, restoring last checkpoint", state.step)
    return TrainResult(head=last_good, state=state, loss_curve=loss_curve)


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------

def save_head(head: SaliencyHead, path: str | Path) -> None:
    header = (json.dumps({"D": head.dim}) + "\n").encode("utf-8")
    weights = (np.ascontiguousarray(w, dtype="<f4") for w in (head.w_pool, head.W1, head.W2))
    write_file(path, b"".join([header, *weights]))


def load_head(path: str | Path) -> SaliencyHead:
    raw = read_file(path)
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: missing checkpoint header")
    try:
        dim = config_int("D", json.loads(raw[:nl].decode("utf-8"))["D"], DataError)
    except (KeyError, TypeError, ValueError, DataError) as exc:  # bad JSON, UTF-8 or D
        raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
    if dim < 1:
        raise DataError(f"{path}: checkpoint dimension D={dim} must be >= 1")
    body = raw[nl + 1 :]
    expected = (dim + 2 * dim * dim) * 4
    if len(body) != expected:
        raise DataError(f"{path}: truncated checkpoint body")
    flat = np.frombuffer(body, dtype="<f4")
    if not np.all(np.isfinite(flat)):  # before the cast, which warns on a signalling NaN
        raise DataError(f"{path}: non-finite head parameters")
    flat = flat.astype(np.float64)
    w_pool = flat[:dim]
    w1 = flat[dim : dim + dim * dim].reshape(dim, dim)
    w2 = flat[dim + dim * dim :].reshape(dim, dim)
    return SaliencyHead(w_pool=w_pool, W1=w1, W2=w2)
