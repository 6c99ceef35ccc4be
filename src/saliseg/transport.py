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

The solver alternates two steps until the plan stabilizes: (1) linearize the
quadratic term at the current plan, giving a local linear cost, and solve the
resulting KL-relaxed entropic problem with one loop of scaling iterations on
the log scalings (row exponent ``gamma / (gamma + epsilon)``), each iterate
two mat-vecs with the kernel ``exp(-cost / epsilon)`` until the first one
that would leave floating-point range, and logsumexp over the log kernel
from there on; (2) take the best point on the segment from the current plan
to that solution under the exact fused objective, which along the segment is
a quadratic in the step plus the KL term. Step (2) makes the recorded
objective trace non-increasing by construction, and keeps column sums exact
because both segment endpoints satisfy them.

The scaling iterates are over-relaxed: each moves the log scalings
``_OMEGA`` times the plain Sinkhorn step (Thibault, Chizat, Dossal and
Papadakis, "Overrelaxed Sinkhorn-Knopp algorithm for regularized optimal
transport", Algorithms 2021), for about half the iterates of plain steps.
Once an iterate moves the potentials more than the one before it, the rest
of that loop takes plain steps (the safeguard of Lehmann, von Renesse,
Sambale and Uschmajew, "A note on overrelaxation in the Sinkhorn algorithm",
Optim. Lett. 2022), and one exact column update closes the loop, so the
candidate's column sums are exact. The structure operator is linear in the
plan, so step (2) also returns the gradient at the plan it picks, from the
operators its line search already holds, and the next step (1) uses it.

:func:`solve_fugw` solves a list of problems, typically every video of a
corpus, in one call. Problems of one shape ``(F_v, K)`` run together, so
nothing is padded, in batches whose largest stack, the ``B x 33 x F_v``
line-search grid, fits ``_BATCH_BYTES`` (at least one problem per batch).
Every step above runs on ``B x F_v x K`` stacks, and every per-problem
reduction is a per-item stacked matmul or a last-axis sum, so a problem's
result is bit-identical whichever problems share its batch, and alone. Each
problem keeps its own state: it leaves the scaling loop at its own inner
convergence and the batch at its own outer convergence, with its own
over-relaxation safeguard and its own hand-over to the log domain, and a
:class:`NumericalError` ends its solve alone, in its own result slot. The
solver holds a problem only until its batch is solved.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, NumericalError, SalisegError
from .rng import substream

# Fixed solver protocol: outer steps per solve, scaling iterations per outer
# step, the L1 plan movement and potential change that count as converged, and
# the points of the line-search grid on [0, 1].
_MAX_OUTER = 200
_MAX_INNER = 100
_PLAN_TOL = 1e-7
_POTENTIAL_TOL = 1e-11
_LINE_SEARCH_POINTS = 33

# Over-relaxation factor of the scaling iterates, chosen on a held-out corpus
# seed: about half the iterates of plain Sinkhorn (omega = 1) at the default
# configuration.
_OMEGA = 1.3

# Kernel-domain scaling runs while every exponent it takes, of the kernel and
# of both scalings, lies within +-_KERNEL_RANGE: a product of two such factors
# is then a normal float, and so is a sum of up to e^100 of them, so the
# mat-vecs neither overflow nor underflow and keep full relative precision.
_KERNEL_RANGE = 300.0

# Problems of one shape are solved together in batches whose largest stack,
# the B x _LINE_SEARCH_POINTS x F_v line-search grid, holds at most this many
# bytes (at least one problem): 19 problems at F_v = 100, 1 at F_v >= 994. A
# batch's other stacks are B x F_v x K; its working set is a few grids.
# Chosen from benchmark runs against 256 KiB (2-core VM; 10 rounds at
# F_v = 100, 5 at 1280 and 1600): at F_v = 100, 512 KiB ran 8% faster for
# 0.7 MB more peak RSS and 1 MiB 11% faster for 2.7 MB more; at 1280 and
# 1600, which 512 KiB still solves one problem at a time, 1 MiB ran 7%
# faster for 3.7 MB more.
_BATCH_BYTES = 2**19


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
    scaling_iterates: int = 0  # summed over outer steps

    @property
    def iterations(self) -> int:
        """Outer steps taken: the trace holds one value more."""
        return len(self.objective_trace) - 1


class SolveResults(list):
    """What one :func:`solve_fugw` call returns: one result per problem, in
    order, each its :class:`TransportPlan` or the :class:`NumericalError`
    that stopped its solve. ``iterations`` and ``converged`` read the plans
    of the call as a plan's own fields read one solve."""

    @property
    def iterations(self) -> int:
        """Outer steps taken, summed over the plans."""
        return sum(r.iterations for r in self if isinstance(r, TransportPlan))

    @property
    def converged(self) -> bool:
        """Whether every plan converged; a failed solve has no plan."""
        return all(r.converged for r in self if isinstance(r, TransportPlan))


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


def _gw_operator(t: NDArray[np.float64]) -> NDArray[np.float64]:
    # (L x T)[n,j] = sum_{m,k} (C_v[n,m] - C_a[j,k])^2 T[m,k]
    #             = ((C_v∘C_v) rows)[n] + ((C_a∘C_a) cols)[j] - 2 (C_v T C_aᵀ)[n,j],
    # with T's own (possibly relaxed) marginals. Frame n sits at u[n], so
    # C_v[n,m] = |u[n] - u[m]|: C_v T = u (2P - P_F) + Q_F - 2Q from the prefix
    # sums P of T and Q of u T, and (C_v∘C_v) rows = u² Σrows - 2u (u·rows)
    # + u²·rows. C_a = 1 - I gives (C_a∘C_a) cols = Σcols - cols and
    # C_v T C_aᵀ = rowsum(C_v T) 1ᵀ - C_v T.
    # ``t`` is one F_v x K plan or a stack of them; u²·rows is one dot
    # product per plan, so a plan's operator does not depend on its stack.
    f_v = t.shape[-2]
    u = np.arange(f_v, dtype=np.float64) / max(f_v - 1, 1)
    p = np.cumsum(t, axis=-2)
    q = np.cumsum(u[:, None] * t, axis=-2)
    cols, u_cols = p[..., -1:, :], q[..., -1:, :]  # P_F and Q_F: plain and u-weighted column sums
    cv_t = u[:, None] * (2.0 * p - cols) + (u_cols - 2.0 * q)
    mass = cols.sum(axis=-1)
    u2 = u * u
    u2_rows = np.matmul(t.sum(axis=-1)[..., None, :], u2[:, None])[..., 0]
    term_v = u2 * mass - 2.0 * u * u_cols.sum(axis=-1) + u2_rows
    return (term_v + mass - 2.0 * cv_t.sum(axis=-1))[..., None] - cols + 2.0 * cv_t


def gw_value(t: NDArray[np.float64]) -> float:
    """Quadratic structure objective of an ``F_v x K`` plan, in O(F_v K)."""
    return float(np.sum(_gw_operator(t) * t))


def gw_gradient(t: NDArray[np.float64]) -> NDArray[np.float64]:
    """Gradient of :func:`gw_value` at one plan, or at each of a stack of
    plans; twice the operator by symmetry of C_v, C_a."""
    return 2.0 * _gw_operator(t)


def kl_divergence(
    m: NDArray[np.float64], ref: NDArray[np.float64]
) -> float | NDArray[np.float64]:
    """Generalized KL for nonnegative vectors, with 0 log 0 = 0, reduced over
    the last axis: a float for one vector ``m``, one value per vector for a
    stack of them, against ``ref`` broadcast to ``m``'s shape. Mass where
    ``ref`` is 0 gives inf."""
    m = np.asarray(m, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    with np.errstate(divide="ignore"):
        # Only a zero in m needs the masked division, whose 1 logs to 0.
        terms = (m / ref if m.min(initial=np.inf) > 0
                 else np.divide(m, ref, out=np.ones_like(m), where=m > 0))
    # In place: a line search's stack of row sums is its largest array.
    terms = np.log(terms, out=terms)
    terms *= m
    return terms.sum(axis=-1) - m.sum(axis=-1) + ref.sum(axis=-1)


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


def _totals(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """The sum of each item of a stack, as one last-axis sum per item."""
    return x.reshape(len(x), -1).sum(axis=1)


def _within_range(x: NDArray[np.float64]) -> NDArray[np.bool_] | bool:
    """Whether every exponent of each problem of the stack ``x`` lies within
    the kernel range: True when those of all problems do, else one flag per
    problem. Written so that NaN fails it."""
    if np.abs(x).max() <= _KERNEL_RANGE:
        return True
    return np.abs(x).reshape(len(x), -1).max(axis=1) <= _KERNEL_RANGE


def _kernel_step(kernel, log_p, log_q, fi, log_a, log_b, omega_a, omega_b):
    """One iterate of each problem of a stack by two stacked mat-vecs with
    its kernel. Returns both updates, both relaxed scalings, and whether the
    new exponents stayed within the kernel range, as :func:`_within_range`
    gives it. A problem whose did not has meaningless results."""
    d_a = fi * (log_p - np.log(np.matmul(kernel, np.exp(log_b)[:, :, None])[:, :, 0])) - log_a
    next_a = log_a + omega_a * d_a
    in_range = _within_range(next_a)
    # A row scaling out of range is not exponentiated: its problem's column
    # update is discarded anyway.
    safe_a = next_a if in_range is True else np.where(in_range[:, None], next_a, 0.0)
    d_b = log_q - np.log(np.matmul(np.exp(safe_a)[:, None, :], kernel)[:, 0]) - log_b
    next_b = log_b + omega_b * d_b
    in_range_b = _within_range(next_b)
    if in_range_b is not True:
        in_range = in_range_b & in_range
    return d_a, next_a, d_b, next_b, in_range


def _log_step(log_k, log_p, log_q, fi, log_a, log_b, omega_a, omega_b):
    """One iterate of each problem of a stack by logsumexp over ``log_k``."""
    d_a = fi * (log_p - _logsumexp(log_k + log_b[:, None, :], axis=2)) - log_a
    next_a = log_a + omega_a * d_a
    d_b = log_q - _logsumexp(log_k + next_a[:, :, None], axis=1) - log_b
    next_b = log_b + omega_b * d_b
    return d_a, next_a, d_b, next_b


def _scaling_step(log_k, kernel, in_kernel, *args):
    """One over-relaxed iterate of each problem of a stack: with its kernel
    while it is in the kernel domain, by logsumexp otherwise.

    ``in_kernel`` flags the problems in the kernel domain, or is None while
    all of them are. A problem whose new row or column exponent leaves the
    kernel range is redone by logsumexp and leaves the kernel domain.
    ``args`` are ``log_p, log_q, fi, log_a, log_b, omega_a, omega_b``, each
    with one row per problem. Returns both updates, both relaxed scalings and
    the new ``in_kernel``.
    """
    if in_kernel is None:
        *out, in_range = _kernel_step(kernel, *args)
        if in_range is True:
            return *out, None
        in_kernel = in_range
    elif not in_kernel.any():
        return *_log_step(log_k, *args), in_kernel
    else:
        in_kernel = in_kernel.copy()
        out = [np.empty_like(x) for x in args[3:5] for _ in range(2)]
        r = np.flatnonzero(in_kernel)
        *part, in_kernel[r] = _kernel_step(kernel[r], *(x[r] for x in args))
        for whole, x in zip(out, part):
            whole[r] = x
    r = np.flatnonzero(~in_kernel)
    for whole, x in zip(out, _log_step(log_k[r], *(x[r] for x in args))):
        whole[r] = x
    return *out, in_kernel


def _scaling_iterations(
    cost: NDArray[np.float64],
    log_p: NDArray[np.float64],
    log_q: NDArray[np.float64],
    gamma: NDArray[np.float64],
    epsilon: NDArray[np.float64],
    f: NDArray[np.float64],
    g: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64],
           NDArray[np.bool_], NDArray[np.int64], dict[int, str]]:
    """Scaling for a stack of linearized problems, warm-started from the
    potentials ``f, g``.

    ``cost`` is ``B x F_v x K``; ``log_p`` and ``f`` are ``B x F_v``,
    ``log_q`` and ``g`` are ``B x K``, and ``gamma`` and ``epsilon`` hold one
    value per problem. For each problem, one loop of at most ``_MAX_INNER``
    over-relaxed iterates on the log scalings ``log_a = f / epsilon`` and
    ``log_b = g / epsilon``, with ``K = exp(-cost / epsilon)``. Each iterate
    takes the Sinkhorn update ``new_a = (gamma / (gamma + epsilon)) * (log p
    - log K b)`` and moves ``log_a`` to ``log_a + omega * (new_a - log_a)``,
    then does the same for ``log_b`` with ``new_b = log q - log Kᵀa``
    (Thibault, Chizat, Dossal and Papadakis, "Overrelaxed Sinkhorn-Knopp
    algorithm for regularized optimal transport", Algorithms 2021). The row
    exponent is zero when gamma is 0, which leaves rows unconstrained.
    ``omega`` starts at ``_OMEGA``; once an iterate moves the potentials more
    than the one before it, the rest of the call runs plain updates, ``omega
    = 1`` (the safeguard of Lehmann, von Renesse, Sambale and Uschmajew, "A
    note on overrelaxation in the Sinkhorn algorithm", Optim. Lett. 2022).
    Convergence is tested on the potentials ``epsilon log a`` and ``epsilon
    log b``, whose change in an iterate is ``epsilon * omega * max|new -
    old|``. A problem leaves the loop at its own convergence; the others go on.

    A relaxed column update leaves the column sums off their target, so after
    the loop one exact column update ``log_b = log q - log Kᵀa`` runs before
    the plan ``a[:, None] * K * b`` is formed: the anchor marginal matches
    ``exp(log_q)`` to machine precision.

    An iterate is two mat-vecs with ``K``, built once, while every exponent
    lies within ``_KERNEL_RANGE``. The first iterate, or the closing column
    update, that would leave it drops that problem's ``K`` and is redone with
    logsumexp over ``log K``, as is the rest of its call.

    Returns the plans, the potentials, per problem whether its loop converged
    and the number of iterates it ran, and the problems whose potentials or
    plan went non-finite, mapped to the message of their
    :class:`NumericalError`; their rows of the other results are meaningless.
    """
    n = len(cost)
    eps = epsilon[:, None]
    # Per row and per column, so that no iterate broadcasts a per-problem value.
    fi = np.repeat((gamma / (gamma + epsilon))[:, None], cost.shape[1], axis=1)
    log_k = cost / -epsilon[:, None, None]
    log_a = f / eps
    log_b = g / eps
    in_kernel = np.zeros(n, dtype=bool)
    in_kernel[:] = _within_range(log_k) & _within_range(log_a) & _within_range(log_b)
    kernel = (np.exp(log_k) if in_kernel.all()
              else np.exp(log_k, out=np.zeros_like(log_k), where=in_kernel[:, None, None]))
    inner_ok = np.zeros(n, dtype=bool)
    iterates = np.full(n, _MAX_INNER)
    errors: dict[int, str] = {}
    # The problems still iterating and their rows, compacted as they leave.
    live = np.arange(n)
    ink = None if in_kernel.all() else in_kernel
    omega_a = np.full(log_a.shape, _OMEGA)
    omega_b = np.full(log_b.shape, _OMEGA)
    eps_omega = epsilon * _OMEGA  # the potentials' change per unit of scaling update
    last = [np.inf] * n
    lk, ker, lp, lq, fi_l, eps_l, la, lb = log_k, kernel, log_p, log_q, fi, epsilon, log_a, log_b
    for step in range(1, _MAX_INNER + 1):
        d_a, next_a, d_b, next_b, ink = _scaling_step(lk, ker, ink, lp, lq, fi_l, la, lb,
                                                      omega_a, omega_b)
        change = np.maximum(np.abs(d_a).max(axis=1), np.abs(d_b).max(axis=1))
        delta = eps_omega * change
        la, lb, previous, last = next_a, next_b, last, delta.tolist()
        # Most iterates change no problem's state: tested on floats, which
        # costs less than reductions over a few values.
        if all(_POTENTIAL_TOL <= x <= y and x < np.inf for x, y in zip(last, previous)):
            continue
        grown = delta > np.array(previous)
        if grown.any():
            omega_a[grown], omega_b[grown] = 1.0, 1.0
            eps_omega = eps_l * omega_b[:, 0]
        # log_a and log_b are finite, so each change is finite iff its update is.
        finite = change < np.inf
        done = delta < _POTENTIAL_TOL
        if done.any() or not finite.all():
            errors.update((int(i), "non-finite scaling potentials") for i in live[~finite])
            rows = live[done]
            log_a[rows], log_b[rows], inner_ok[rows], iterates[rows] = la[done], lb[done], True, step
            in_kernel[rows] = True if ink is None else ink[done]
            keep = finite & ~done
            if not keep.any():
                break
            lk, ker, lp, lq, fi_l, eps_l, la, lb, omega_a, omega_b, eps_omega, live = (
                x[keep] for x in (lk, ker, lp, lq, fi_l, eps_l, la, lb, omega_a, omega_b,
                                  eps_omega, live))
            last = delta[keep].tolist()
            ink = None if ink is None or ink[keep].all() else ink[keep]
    else:
        log_a[live], log_b[live] = la, lb
        in_kernel[live] = True if ink is None else ink

    closing = np.ones(n, dtype=bool)
    closing[list(errors)] = False
    in_kernel &= closing
    if in_kernel.any():
        r = np.flatnonzero(in_kernel)
        log_b[r] = log_q[r] - np.log(np.matmul(np.exp(log_a[r])[:, None, :], kernel[r])[:, 0])
        in_kernel[r] = _within_range(log_b[r])
    if in_kernel.all():
        t = np.exp(log_a)[:, :, None] * kernel * np.exp(log_b)[:, None, :]
    else:
        t = np.zeros_like(cost)
        r = np.flatnonzero(in_kernel)
        t[r] = np.exp(log_a[r])[:, :, None] * kernel[r] * np.exp(log_b[r])[:, None, :]
        r = np.flatnonzero(closing & ~in_kernel)
        log_b[r] = log_q[r] - _logsumexp(log_k[r] + log_a[r][:, :, None], axis=1)
        t[r] = np.exp(log_a[r][:, :, None] + log_k[r] + log_b[r][:, None, :])
    if not t.max() < np.inf:  # t >= 0, so this fails on inf and on NaN
        bad = closing & ~np.isfinite(t).reshape(n, -1).all(axis=1)
        errors.update((int(i), "non-finite transport plan after scaling") for i in np.flatnonzero(bad))
    return t, eps * log_a, eps * log_b, inner_ok, iterates, errors


def solve_fugw(problems: Iterable[OtProblem]) -> SolveResults:
    """Minimize the fused objective of each problem; see the module
    docstring for the scheme and the batching.

    Returns one result per problem, in order, as :class:`SolveResults`:
    its plan, or the :class:`NumericalError` that stopped its solve, which
    stops no other.
    The solver holds a problem only until its batch is solved, so a problem
    that the caller does not keep (one from an iterator) is freed then.
    A plan's trace holds :func:`fused_objective` at the initial plan, then
    after every outer step the line search's exact value at the chosen step
    (the same objective, evaluated along the segment); it is non-increasing.
    ``converged`` is set once the plan moves less than ``_PLAN_TOL`` in L1
    between outer steps and the inner scaling loop itself reported
    convergence. :func:`gw_gradient` runs once per batch, at the start
    plans; each line search returns the gradients at the plans it picks.
    """
    problems = list(problems)
    results = SolveResults([None] * len(problems))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, shape in enumerate([prob.C_k.shape for prob in problems]):
        groups.setdefault(shape, []).append(i)
    for (f_v, _), members in groups.items():
        size = max(1, _BATCH_BYTES // (8 * _LINE_SEARCH_POINTS * f_v))
        count = -(-len(members) // size)  # batches of near-equal sizes, none above size
        bounds = [len(members) * j // count for j in range(count + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            batch = members[lo:hi]
            probs = [problems[i] for i in batch]
            for i in batch:
                problems[i] = None
            for i, result in zip(batch, _solve_batch(probs), strict=True):
                results[i] = result
    return results


def _solve_batch(probs: list[OtProblem]) -> list[TransportPlan | NumericalError]:
    """The outer loop of problems of one shape, run in lockstep; a problem
    leaves the batch when its outer loop converges or its scaling fails."""
    n = len(probs)
    c_k = np.stack([prob.C_k for prob in probs])
    p_hat = np.stack([prob.p_hat for prob in probs])
    alpha, gamma, epsilon = (np.array([getattr(prob, name) for prob in probs])
                             for name in ("alpha", "gamma", "epsilon"))
    k = c_k.shape[2]
    q = np.full(k, 1.0 / k)
    t = p_hat[:, :, None] * q  # feasible start: exact marginals, zero KL
    log_p = np.log(p_hat)
    log_q = np.tile(np.log(q), (n, 1))
    f = np.zeros(p_hat.shape)
    g = np.zeros((n, k))
    traces = [[fused_objective(prob, t[i])] for i, prob in enumerate(probs)]
    grad = gw_gradient(t)
    iterates = np.zeros(n, dtype=np.int64)
    results: list = [None] * n
    live = np.arange(n)  # the problem of each row; rows leave with their problem

    for _outer in range(_MAX_OUTER):
        a = alpha[:, None, None]
        cand, f, g, inner_ok, count, errors = _scaling_iterations(
            (1.0 - a) * c_k + a * grad, log_p, log_q, gamma, epsilon, f, g
        )
        iterates[live] += count
        if errors:
            for i, message in errors.items():
                results[live[i]] = NumericalError(message)
            ok = np.ones(len(live), dtype=bool)
            ok[list(errors)] = False
            live, c_k, p_hat, alpha, gamma, epsilon, log_p, log_q, t, grad, f, g, cand, inner_ok = (
                x[ok] for x in (live, c_k, p_hat, alpha, gamma, epsilon, log_p, log_q, t, grad,
                                f, g, cand, inner_ok))
            if not len(live):
                break
        value, t_next, grad = _segment_search(c_k, p_hat, alpha, gamma, t, grad, cand)
        for i, v in zip(live, value.tolist()):
            traces[i].append(v)
        done = (_totals(np.abs(t_next - t)) < _PLAN_TOL) & inner_ok
        t = t_next
        if done.any():
            for i, plan in zip(live[done], t[done]):
                results[i] = TransportPlan(T=plan, objective_trace=traces[i], converged=True,
                                           scaling_iterates=int(iterates[i]))
            live, c_k, p_hat, alpha, gamma, epsilon, log_p, log_q, t, grad, f, g = (
                x[~done] for x in (live, c_k, p_hat, alpha, gamma, epsilon, log_p, log_q, t, grad,
                                   f, g))
            if not len(live):
                break
    for i, plan in zip(live, t):
        results[i] = TransportPlan(T=plan, objective_trace=traces[i], converged=False,
                                   scaling_iterates=int(iterates[i]))
    return results


def _segment_search(
    c_k: NDArray[np.float64],
    p_hat: NDArray[np.float64],
    alpha: NDArray[np.float64],
    gamma: NDArray[np.float64],
    t: NDArray[np.float64],
    grad: NDArray[np.float64],
    cand: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Exact fused objective minimized over each segment t -> cand of a stack.

    ``grad`` is the structure gradient at ``t``, twice the operator ``op_t``.
    The linear and quadratic terms restricted to the segment are polynomials
    in the step size; the KL term is evaluated at every grid point at once,
    from the row sums along the segment. Step 0 is always a candidate, which
    makes the outer objective monotone. Returns per problem the objective at
    the chosen step ``s``, the plan there, and the gradient there,
    ``2 * (op_t + s * op(cand - t))``.
    """
    delta = cand - t
    op_t = 0.5 * grad
    op_d = _gw_operator(delta)
    steps = np.linspace(0.0, 1.0, _LINE_SEARCH_POINTS)
    kot_t, kot_d = _totals(c_k * t)[:, None], _totals(c_k * delta)[:, None]
    a0 = _totals(op_t * t)[:, None]
    a1 = 2.0 * _totals(op_t * delta)[:, None]
    a2 = _totals(op_d * delta)[:, None]
    rows = steps[:, None] * delta.sum(axis=2)[:, None, :]
    rows += t.sum(axis=2)[:, None, :]
    a, g = alpha[:, None], gamma[:, None]
    values = (
        (1.0 - a) * (kot_t + steps * kot_d)
        + a * (a0 + a1 * steps + a2 * steps**2)
        + g * kl_divergence(rows, p_hat[:, None, :])
    )
    best = _LINE_SEARCH_POINTS - 1 - np.argmin(values[:, ::-1], axis=1)  # prefer larger step on ties
    s = steps[best][:, None, None]
    value = values[np.arange(len(values)), best]
    return value, t + s * delta, 2.0 * (op_t + s * op_d)


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
