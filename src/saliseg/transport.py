"""Saliency-aware fused unbalanced Gromov-Wasserstein transport solver.

The problem couples ``F_v`` valid frames with ``K`` anchors through a plan
``T >= 0``. Three costs enter the objective:

* a Kantorovich cost: cosine distance between frame and anchor, discounted
  per frame by ``mu`` times the sigmoid saliency prior;
* a quadratic structure term comparing normalized frame-index distances
  ``C_v[n, m] = |n - m| / (F_v - 1)`` against the 0/1 anchor-disagreement
  matrix ``C_a = 1 - I`` with the squared loss, which rewards temporally
  contiguous anchor assignments;
* a KL penalty ``gamma * KL(T 1_K || p_hat)`` that pulls the frame marginal
  toward the normalized saliency prior, while the anchor marginal is pinned
  exactly to uniform ``1/K``.

The structure costs are implied by ``F_v`` and ``K``, so no problem stores
them: the structure operator applies them in closed form, from prefix sums
along the frame axis, in O(F_v K) time and memory.
:func:`build_structure_costs` keeps the dense definition as a reference.

The solver alternates two steps until the plan stabilizes: (1) linearize the
quadratic term at the current plan, giving a local linear cost, and solve the
resulting KL-relaxed entropic problem with one loop of scaling iterations on
the log scalings (row exponent ``gamma / (gamma + epsilon)``, exact column
scaling), each iterate two mat-vecs with the kernel ``exp(-cost / epsilon)``
until the first one that would leave floating-point range, and logsumexp
over the log kernel from there on; (2) take the best point on the segment
from the current plan to that solution under the exact fused objective,
which along the segment is a quadratic in the step plus the KL term. Step
(2) makes the recorded objective trace non-increasing by construction, and
keeps column sums exact because both segment endpoints satisfy them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, NumericalError, SalisegError
from .rng import substream

logger = logging.getLogger(__name__)

# Fixed solver protocol: scaling iterations per outer step, the L1 plan
# movement and potential change that count as converged, and the points of
# the line-search grid on [0, 1].
_MAX_INNER = 100
_PLAN_TOL = 1e-7
_POTENTIAL_TOL = 1e-11
_LINE_SEARCH_POINTS = 33

# Kernel-domain scaling runs while every exponent it takes, of the kernel and
# of both scalings, lies within +-_KERNEL_RANGE: a product of two such factors
# is then a normal float, and so is a sum of up to e^100 of them, so the
# mat-vecs neither overflow nor underflow and keep full relative precision.
_KERNEL_RANGE = 300.0


def check_solver_weights(
    epsilon: float, alpha: float, gamma: float, error: type[SalisegError]
) -> None:
    """Raise ``error`` unless ``0 < epsilon < inf``, ``0 <= alpha <= 1`` and
    ``0 <= gamma < inf``; every check is written so that NaN fails it."""
    if not 0 < epsilon < np.inf:
        raise error("epsilon must be finite and > 0")
    if not 0.0 <= alpha <= 1.0:
        raise error("alpha must lie in [0, 1]")
    if not 0 <= gamma < np.inf:
        raise error("gamma must be finite and >= 0")


@dataclass(frozen=True)
class OtProblem:
    """All inputs of one solve, built on valid frames only.

    ``C_k`` is ``F_v x K``; the anchor marginal is uniform ``1/K``.
    """

    C_k: NDArray[np.float64]
    p_hat: NDArray[np.float64]
    alpha: float
    gamma: float
    epsilon: float

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it.
        if self.C_k.ndim != 2 or self.C_k.shape[1] < 1:
            raise DataError("C_k must be an F_v x K matrix with at least one anchor column")
        if self.p_hat.shape != (self.C_k.shape[0],):
            raise DataError("p_hat length must equal the number of cost rows")
        check_solver_weights(self.epsilon, self.alpha, self.gamma, DataError)
        if not (abs(float(self.p_hat.sum()) - 1.0) <= 1e-9 and np.all(self.p_hat > 0)):
            raise DataError("p_hat must be strictly positive and sum to 1")


@dataclass
class TransportPlan:
    """Solver output: the plan, the objective trace, and convergence info."""

    T: NDArray[np.float64]
    objective_trace: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        """Outer steps taken: the trace holds one value more."""
        return len(self.objective_trace) - 1


def build_kot_cost(
    xs: NDArray[np.float64],
    anchors: NDArray[np.float64],
    p_s: NDArray[np.float64],
    mu: float,
) -> NDArray[np.float64]:
    """Cosine frame-anchor cost with a saliency discount.

    ``anchors`` is a ``K x D`` matrix of finite, nonzero rows, one prototype
    per anchor. ``C[n, j] = (1 - cos(x_n, a_j)) - mu * p_s[n]``; entries lie
    in ``[-mu, 2]``. Uses the raw sigmoid prior, not its normalized variant.
    """
    xs = np.asarray(xs, dtype=np.float64)
    p_s = np.asarray(p_s, dtype=np.float64)
    x_norm = np.linalg.norm(xs, axis=1)
    if np.any(x_norm == 0):
        raise DataError("zero-norm feature row")
    a = np.asarray(anchors, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] != xs.shape[1]:
        raise DataError(f"anchors must be a K x {xs.shape[1]} matrix with K >= 1")
    if not np.all(np.isfinite(a)):
        raise DataError("non-finite anchors")
    a_norm = np.linalg.norm(a, axis=1)
    if np.any(a_norm == 0):
        raise DataError("zero-norm anchor")
    cos = (xs @ a.T) / np.outer(x_norm, a_norm)
    return (1.0 - cos) - mu * p_s[:, None]


def build_structure_costs(
    n_frames: int, n_anchors: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Dense normalized index-distance frame cost and 0/1 anchor-disagreement cost.

    The reference definition; the solver applies these costs in closed form.
    """
    if n_frames < 1 or n_anchors < 1:
        raise DataError("need at least one frame and one anchor")
    idx = np.arange(n_frames, dtype=np.float64)
    c_v = np.abs(idx[:, None] - idx[None, :]) / max(n_frames - 1, 1)
    c_a = 1.0 - np.eye(n_anchors)
    return c_v, c_a


def _gw_operator(t: NDArray[np.float64]) -> NDArray[np.float64]:
    # (L x T)[n,j] = sum_{m,k} (C_v[n,m] - C_a[j,k])^2 T[m,k]
    #             = ((C_v∘C_v) rows)[n] + ((C_a∘C_a) cols)[j] - 2 (C_v T C_aᵀ)[n,j],
    # with T's own (possibly relaxed) marginals. Frame n sits at u[n], so
    # C_v[n,m] = |u[n] - u[m]|: C_v T = u (2P - P_F) + Q_F - 2Q from the prefix
    # sums P of T and Q of u T, and (C_v∘C_v) rows = u² Σrows - 2u (u·rows)
    # + u²·rows. C_a = 1 - I gives (C_a∘C_a) cols = Σcols - cols and
    # C_v T C_aᵀ = rowsum(C_v T) 1ᵀ - C_v T.
    u = np.arange(t.shape[0], dtype=np.float64) / max(t.shape[0] - 1, 1)
    p = np.cumsum(t, axis=0)
    q = np.cumsum(u[:, None] * t, axis=0)
    cols, u_cols = p[-1], q[-1]  # P_F and Q_F: plain and u-weighted column sums
    cv_t = u[:, None] * (2.0 * p - cols) + (u_cols - 2.0 * q)
    mass = cols.sum()
    u2 = u * u
    term_v = u2 * mass - 2.0 * u * u_cols.sum() + u2 @ t.sum(axis=1)
    return (term_v + mass - 2.0 * cv_t.sum(axis=1))[:, None] - cols + 2.0 * cv_t


def gw_value(t: NDArray[np.float64]) -> float:
    """Quadratic structure objective of an ``F_v x K`` plan, in O(F_v K)."""
    return float(np.sum(_gw_operator(t) * t))


def gw_gradient(t: NDArray[np.float64]) -> NDArray[np.float64]:
    """Gradient of :func:`gw_value`; twice the operator by symmetry of C_v, C_a."""
    return 2.0 * _gw_operator(t)


def kl_divergence(
    m: NDArray[np.float64], ref: NDArray[np.float64]
) -> float | NDArray[np.float64]:
    """Generalized KL for nonnegative vectors, with 0 log 0 = 0, reduced over
    the last axis: a float for one vector ``m``, one value per row for an
    ``S x F`` stack. Mass where ``ref`` is 0 gives inf."""
    m = np.asarray(m, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    with np.errstate(divide="ignore"):
        ratio = np.divide(m, ref, out=np.ones_like(m), where=m > 0)
    return (m * np.log(ratio)).sum(axis=-1) - m.sum(axis=-1) + ref.sum(axis=-1)


def fused_objective(prob: OtProblem, t: NDArray[np.float64]) -> float:
    """alpha * GW + (1 - alpha) * <C_k, T> + gamma * KL(T 1 || p_hat)."""
    return float(
        (1.0 - prob.alpha) * float(np.sum(prob.C_k * t))
        + prob.alpha * gw_value(t)
        + prob.gamma * kl_divergence(t.sum(axis=1), prob.p_hat)
    )


def _logsumexp(x: NDArray[np.float64], axis: int) -> NDArray[np.float64]:
    # ndarray methods: the same ufuncs as np.max/np.sum, without their dispatch.
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis=axis)


def _scaling_iterations(
    cost: NDArray[np.float64],
    log_p: NDArray[np.float64],
    log_q: NDArray[np.float64],
    gamma: float,
    epsilon: float,
    f: NDArray[np.float64],
    g: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], bool]:
    """Scaling for one linearized problem, warm-started from the potentials ``f, g``.

    One loop of at most ``_MAX_INNER`` iterates on the log scalings
    ``log_a = f / epsilon`` and ``log_b = g / epsilon``: each sets
    ``a = (p / K b)^(gamma / (gamma + epsilon))``, then ``b = q / Kᵀa``, with
    ``K = exp(-cost / epsilon)``, and the plan is ``a[:, None] * K * b``. The
    row exponent is zero when gamma is 0, which leaves rows unconstrained; the
    column update is exact, so the anchor marginal of the plan matches
    ``exp(log_q)`` to machine precision. Convergence is tested on the
    potentials ``epsilon log a`` and ``epsilon log b``, which are returned.

    An iterate is two mat-vecs with ``K``, built once, while every exponent
    lies within ``_KERNEL_RANGE``. The first iterate that would leave it drops
    ``K`` and is redone with logsumexp over ``log K``, as is the rest of the call.
    """
    fi = gamma / (gamma + epsilon)
    log_k = cost / -epsilon
    log_a = f / epsilon
    log_b = g / epsilon
    # Every range test is written so that NaN fails it.
    in_range = all(np.abs(x).max() <= _KERNEL_RANGE for x in (log_k, log_a, log_b))
    kernel = np.exp(log_k) if in_range else None
    for _ in range(_MAX_INNER):
        if kernel is not None:
            next_a = fi * (log_p - np.log(kernel.dot(np.exp(log_b))))
            in_range = np.abs(next_a).max() <= _KERNEL_RANGE
            if in_range:
                next_b = log_q - np.log(np.exp(next_a).dot(kernel))
                in_range = np.abs(next_b).max() <= _KERNEL_RANGE
            if not in_range:
                kernel = None
        if kernel is None:
            next_a = fi * (log_p - _logsumexp(log_k + log_b, axis=1))
            next_b = log_q - _logsumexp(log_k + next_a[:, None], axis=0)
        # log_a and log_b are finite, so each change is finite iff its update is.
        change_a = np.abs(next_a - log_a).max()
        change_b = np.abs(next_b - log_b).max()
        if not (change_a < np.inf and change_b < np.inf):
            raise NumericalError("non-finite scaling potentials")
        delta = epsilon * max(change_a, change_b)
        log_a, log_b = next_a, next_b
        inner_ok = delta < _POTENTIAL_TOL
        if inner_ok:
            break
    if kernel is not None:
        t = np.exp(log_a)[:, None] * kernel * np.exp(log_b)
    else:
        t = np.exp(log_a[:, None] + log_k + log_b)
    if np.any(~np.isfinite(t)):
        raise NumericalError("non-finite transport plan after scaling")
    return t, epsilon * log_a, epsilon * log_b, inner_ok


def solve_fugw(prob: OtProblem, max_outer: int = 200) -> TransportPlan:
    """Minimize the fused objective; see the module docstring for the scheme.

    The returned trace holds :func:`fused_objective` at the initial plan,
    then after every outer step the line search's exact value at the chosen
    step (the same objective, evaluated along the segment); it is
    non-increasing. ``converged`` is set once the plan moves less than
    ``_PLAN_TOL`` in L1 between outer steps and the inner scaling loop itself
    reported convergence.
    """
    f_v, k = prob.C_k.shape
    p_hat = prob.p_hat
    q = np.full(k, 1.0 / k)
    t = np.outer(p_hat, q)  # feasible start: exact marginals, zero KL
    log_p = np.log(p_hat)
    log_q = np.log(q)
    f = np.zeros(f_v)
    g = np.zeros(k)
    trace = [fused_objective(prob, t)]
    converged = False

    for _outer in range(max_outer):
        grad = gw_gradient(t)
        local_cost = (1.0 - prob.alpha) * prob.C_k + prob.alpha * grad
        cand, f, g, inner_ok = _scaling_iterations(
            local_cost, log_p, log_q, prob.gamma, prob.epsilon, f, g
        )
        value, t_next = _segment_search(prob, t, 0.5 * grad, cand)
        trace.append(value)
        moved = float(np.abs(t_next - t).sum())
        t = t_next
        if moved < _PLAN_TOL and inner_ok:
            converged = True
            break

    if not converged:
        logger.warning("transport solver hit max_outer=%d without converging", max_outer)
    return TransportPlan(T=t, objective_trace=trace, converged=converged)


def _segment_search(
    prob: OtProblem,
    t: NDArray[np.float64],
    op_t: NDArray[np.float64],
    cand: NDArray[np.float64],
) -> tuple[float, NDArray[np.float64]]:
    """Exact fused objective minimized over the segment t -> cand.

    ``op_t`` is the structure operator at ``t`` (half the gradient the outer
    step already computed). The linear and quadratic terms restricted to the
    segment are polynomials in the step size; the KL term is evaluated at
    every grid point at once, from the row sums along the segment. Step 0 is
    always a candidate, which makes the outer objective monotone. Returns
    the objective at the chosen step and the plan there.
    """
    delta = cand - t
    steps = np.linspace(0.0, 1.0, _LINE_SEARCH_POINTS)
    kot_t = float(np.sum(prob.C_k * t))
    kot_d = float(np.sum(prob.C_k * delta))
    a0 = float(np.sum(op_t * t))
    a1 = 2.0 * float(np.sum(op_t * delta))
    a2 = float(np.sum(_gw_operator(delta) * delta))
    rows = t.sum(axis=1) + steps[:, None] * delta.sum(axis=1)
    values = (
        (1.0 - prob.alpha) * (kot_t + steps * kot_d)
        + prob.alpha * (a0 + a1 * steps + a2 * steps**2)
        + prob.gamma * kl_divergence(rows, prob.p_hat)
    )
    best = int(len(values) - 1 - np.argmin(values[::-1]))  # prefer larger step on ties
    return float(values[best]), t + float(steps[best]) * delta


def init_anchors(
    xs: NDArray[np.float64], n_anchors: int, seed: int, video_id: str = ""
) -> NDArray[np.float64]:
    """The ``n_anchors x D`` rows of ``xs`` that :func:`farthest_points`
    picks, compared after L2 normalization to match the cosine cost."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[0] == 0:
        raise DataError("no feature rows to draw anchors from")
    norms = np.linalg.norm(xs, axis=1)
    if np.any(norms == 0):
        raise DataError("zero-norm feature row")
    chosen = farthest_points(xs / norms[:, None], n_anchors, substream(seed, "anchors", video_id))
    return xs[chosen]


def farthest_points(rows: NDArray[np.float64], k: int, rng: np.random.Generator) -> NDArray[np.int64]:
    """Indices of k rows picked by farthest-point traversal.

    The first pick is drawn from ``rng``; each following one is the row
    farthest (Euclidean) from the picks so far, ties to the lowest index.
    Once every row is picked, further picks are drawn from ``rng``, so rows
    repeat only when ``k`` exceeds the row count.
    """
    n = rows.shape[0]
    first = int(rng.integers(n))
    chosen = [first]
    min_d = np.linalg.norm(rows - rows[first], axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_d)) if n > len(chosen) else int(rng.integers(n))
        chosen.append(nxt)
        min_d = np.minimum(min_d, np.linalg.norm(rows - rows[nxt], axis=1))
    return np.array(chosen, dtype=np.int64)


def build_problem(
    xs_valid: NDArray[np.float64],
    anchors: NDArray[np.float64],
    p_s_valid: NDArray[np.float64],
    alpha: float,
    gamma: float,
    epsilon: float,
    mu: float,
) -> OtProblem:
    """Assemble an :class:`OtProblem` from valid-frame features and the prior."""
    c_k = build_kot_cost(xs_valid, anchors, p_s_valid, mu)
    total = float(np.sum(p_s_valid))
    if total <= 0:
        raise DataError("saliency prior has no mass on valid frames")
    p_hat = np.asarray(p_s_valid, dtype=np.float64) / total
    return OtProblem(C_k=c_k, p_hat=p_hat, alpha=alpha, gamma=gamma, epsilon=epsilon)
