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
resulting KL-relaxed entropic problem by Newton's method on the ``K`` anchor
log-scalings, from which the frame ones follow in closed form (row exponent
``gamma / (gamma + epsilon)``), each step one weighted ``K x K`` product of
the kernel ``exp(-cost / epsilon)`` with itself and one ``K x K`` solve, or,
for a problem that would leave floating-point range, the same by logsumexp
over the log kernel; (2) take the best point on the segment from the
current plan to that solution under the exact fused objective, which along
the segment is a quadratic in the step plus the KL term. Step (2) makes the
recorded objective trace non-increasing by construction, and keeps column
sums exact because both segment endpoints satisfy them.

Step (1) is the Sinkhorn-Newton method (Brauer, Clason, Lorenz and Wirth, "A
Sinkhorn-Newton method for entropic optimal transport", 2017) on the anchor
side, with a step halved while it raises the residual; one exact column update
closes it, so the candidate's column sums are exact. A warm-started call
takes one to three steps where Sinkhorn iterates take about twenty. The
structure operator is linear in the plan, so step (2) also returns the
gradient at the plan it picks, from the operators its line search already
holds, and the next step (1) uses it.

:func:`solve_fugw` solves a list of problems, typically every video of a
corpus, in one call under one set of weights ``alpha``, ``gamma`` and
``epsilon``: a problem is one video's data, and a caller with several
weight sets makes one call per set. Problems of one shape ``(F_v, K)`` run
together, so nothing is padded, in batches whose largest stack, the
``B x 33 x F_v`` line-search grid, fits ``_BATCH_BYTES`` (at least one
problem per batch). Every step above runs on ``B x F_v x K`` stacks, and every per-problem
reduction is a per-item stacked matmul or solve or a last-axis sum, so a problem's
result is bit-identical whichever problems share its batch, and alone. Each
problem keeps its own state: it leaves the Newton loop at its own inner
convergence and the batch at its own outer convergence, with its own step
length and its own domain: a problem whose scaling call
would leave the kernel range reruns that call in the log domain, and a
:class:`NumericalError` ends its solve alone, in its own result slot. The
solver holds a problem only until its batch is solved.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, NumericalError, SalisegError
from .rng import substream

# Fixed solver protocol: outer steps per solve, Newton steps per outer step,
# the L1 plan movement and potential change that count as converged, and the
# points of the line-search grid on [0, 1].
_MAX_OUTER = 200
_MAX_INNER = 100
_PLAN_TOL = 1e-7
_POTENTIAL_TOL = 1e-11
_LINE_SEARCH_POINTS = 33

# Kernel-domain scaling runs while every exponent it takes, of the kernel and
# of both scalings, lies within +-_KERNEL_RANGE (a / Kb, which weights the
# Newton product, within twice that): a product of two such factors is then a
# normal float, and so is a sum of up to e^100 of them, so the products
# neither overflow nor underflow and keep full relative precision.
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
    ``0 <= gamma < inf``; every check is written so that NaN fails it, and an
    integer past the float range is not finite."""
    if not 0 < _as_float(epsilon) < np.inf:
        raise error("epsilon must be finite and > 0")
    if not 0.0 <= alpha <= 1.0:
        raise error("alpha must lie in [0, 1]")
    if not 0 <= _as_float(gamma) < np.inf:
        raise error("gamma must be finite and >= 0")


def _as_float(x: float) -> float:
    """``x`` as a float, an integer past the float range as an infinity."""
    try:
        return float(x)
    except OverflowError:
        return np.inf if x > 0 else -np.inf


@dataclass(frozen=True)
class OtProblem:
    """One video's data for a solve, built on valid frames only; the solver
    weights belong to the :func:`solve_fugw` call.

    ``C_k`` is ``F_v x K``; the anchor marginal is uniform ``1/K``.
    """

    C_k: NDArray[np.float64]
    p_hat: NDArray[np.float64]

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it.
        if self.C_k.ndim != 2 or self.C_k.shape[1] < 1:
            raise DataError("C_k must be an F_v x K matrix with at least one anchor column")
        if self.p_hat.shape != (self.C_k.shape[0],):
            raise DataError("p_hat length must equal the number of cost rows")
        if not (abs(float(self.p_hat.sum()) - 1.0) <= 1e-9 and np.all(self.p_hat > 0)):
            raise DataError("p_hat must be strictly positive and sum to 1")


@dataclass
class TransportPlan:
    """Solver output: the plan, the objective trace, and convergence info."""

    T: NDArray[np.float64]
    objective_trace: list[float]
    converged: bool
    scaling_iterates: int = 0  # Newton steps, summed over outer steps and over both runs of a rerun call

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


def fused_objective(
    prob: OtProblem, t: NDArray[np.float64], *, alpha: float, gamma: float
) -> float:
    """alpha * GW + (1 - alpha) * <C_k, T> + gamma * KL(T 1 || p_hat)."""
    return float(
        (1.0 - alpha) * float(np.sum(prob.C_k * t))
        + alpha * gw_value(t)
        + gamma * kl_divergence(t.sum(axis=1), prob.p_hat)
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


def _evaluate(in_kernel, ops, log_p, fi, log_b):
    """Each problem of a stack at its column log-scalings ``log_b``: the log
    row sums ``log K b``, the row log-scalings ``log_a = fi * (log p - log K
    b)``, the log column sums ``log Kᵀa``, and whether every exponent taken
    lies within the kernel range, as :func:`_within_range` gives it. ``ops``
    is the kernel ``exp(log K)`` if ``in_kernel``, two mat-vecs, else ``log
    K``, logsumexp, and every exponent is in range. A problem out of range
    has meaningless results."""
    if not in_kernel:
        log_rows = _logsumexp(ops + log_b[:, None, :], axis=2)
        log_a = fi * (log_p - log_rows)
        return log_rows, log_a, _logsumexp(ops + log_a[:, :, None], axis=1), True
    in_range = _within_range(log_b)
    if in_range is not True:  # an exponent out of range is not taken
        log_b = np.where(in_range[:, None], log_b, 0.0)
    log_rows = np.log(np.matmul(ops, np.exp(log_b)[:, :, None])[:, :, 0])
    log_a = fi * (log_p - log_rows)
    a_in_range = _within_range(log_a) & _within_range(0.5 * (log_a - log_rows))
    if a_in_range is not True:
        in_range = a_in_range & in_range
        log_a = np.where(a_in_range[:, None], log_a, 0.0)
    return log_rows, log_a, np.log(np.matmul(np.exp(log_a)[:, None, :], ops)[:, 0]), in_range


def _newton_steps(in_kernel, ops, log_b, log_rows, log_a, log_cols, residual, fi):
    """The Newton step on the column log-scalings of each problem of a stack,
    modulo the all-ones direction, at a point that :func:`_evaluate` gave:
    the solution ``d`` of ``(I - fi (M - 1/K)) d = mean(r) - r``. Here ``I -
    fi M`` is the Jacobian of the log column sums, ``M = Qᵀ P`` with the plan
    ``diag(a) K diag(b)`` divided by its column sums (``Q``) and by its row
    sums (``P``), so every entry of ``M`` lies in [0, 1]: one ``K x F_v`` by
    ``F_v x K`` product. A problem whose matrix is exactly singular takes the
    plain column update ``d = mean(r) - r``."""
    if in_kernel:
        # Kᵀ (K b a / Kb), whose entries are at most the column sums Kᵀa.
        weighted = ops * np.exp(log_b)[:, None, :]
        weighted *= np.exp(log_a - log_rows)[:, :, None]
        m = np.matmul(ops.transpose(0, 2, 1), weighted) / np.exp(log_cols)[:, :, None]
    else:
        by_cols = np.exp(ops + (log_a[:, :, None] - log_cols[:, None, :]))
        by_rows = np.exp(ops + (log_b[:, None, :] - log_rows[:, :, None]))
        m = np.matmul(by_cols.transpose(0, 2, 1), by_rows)
    k = residual.shape[1]
    jac = np.eye(k) - fi * (m - 1.0 / k)
    rhs = residual.mean(axis=1, keepdims=True) - residual
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = rhs.copy()
        for i in range(len(jac)):
            with contextlib.suppress(np.linalg.LinAlgError):
                steps[i] = np.linalg.solve(jac[i], rhs[i])
        return steps


def _newton_loop(in_kernel, log_k, log_p, log_b, log_q, fi, epsilon):
    """:func:`_scaling_iterations` for a stack of problems in one domain:
    with the kernels ``exp(log_k)`` if ``in_kernel``, by logsumexp over
    ``log_k`` if not; ``log_q``, ``fi`` and ``epsilon`` are scalars. Returns
    the plans, the column log-scalings, and per problem whether its loop
    converged, the Newton steps it took, and whether its warm start was
    non-finite or, in the kernel domain, a step left the kernel range. Such
    a problem stops there with meaningless results."""
    n = len(log_k)
    ops = np.exp(log_k) if in_kernel else log_k
    t = np.zeros(log_k.shape)
    out_b = np.zeros(log_b.shape)
    inner_ok = np.zeros(n, dtype=bool)
    iterates = np.full(n, _MAX_INNER)
    failed = np.zeros(n, dtype=bool)
    # The problems still iterating and their rows, compacted as they leave.
    # The state is the last accepted point: its column log-scalings, what
    # _evaluate gives there and its residual. Pass 0 accepts the warm start.
    # A problem keeps its Newton step until it accepts a trial, so a
    # rejected trial only halves the step's length.
    live = np.arange(n)
    op, lp, lb = ops, log_p, log_b
    change = np.full(n, np.inf)
    steps = np.zeros(log_b.shape)
    scale = np.ones(n)
    for count in range(_MAX_INNER + 1):
        trial = lb + scale[:, None] * steps
        *point, in_range = _evaluate(in_kernel, op, lp, fi, trial)
        residual = trial + point[2] - log_q
        # The change that the exact column update would make to the column
        # potentials, modulo a shift shared by all columns, which leaves the
        # plan unchanged.
        trial_change = epsilon * np.abs(
            residual - residual.mean(axis=1, keepdims=True)).max(axis=1)
        fell = trial_change <= change  # NaN fails it
        if fell.all() or not count:
            lb, state, change = trial, [*point, residual], trial_change
        elif fell.any():
            lb = np.where(fell[:, None], trial, lb)
            state = [np.where(fell[:, None], new, old) for old, new in zip(state, [*point, residual])]
            change = np.where(fell, trial_change, change)
        scale = np.where(fell, np.minimum(2.0 * scale, 1.0), 0.5 * scale)
        stop = ~np.broadcast_to(in_range, fell.shape)  # out of range
        if not count:
            stop = stop | ~fell  # or a non-finite start
        moved = fell | (count == 0)  # the problems that accepted a trial
        done = fell & (change < _POTENTIAL_TOL) & ~stop
        last = count == _MAX_INNER
        if done.any() or stop.any() or last:
            failed[live[stop]], iterates[live[stop]] = True, max(count - 1, 0)
            finish = done | (last & ~stop)
            rows = live[finish]
            _, log_a, log_cols, _ = (x[finish] for x in state)
            # The exact column update b = q / Kᵀa gives the plan a K b, whose
            # entries a K are at most their column sums Kᵀa.
            out_b[rows] = log_b = log_q - log_cols
            t[rows] = (np.exp(log_a)[:, :, None] * op[finish] * np.exp(log_b)[:, None, :]
                       if in_kernel else np.exp(op[finish] + log_a[:, :, None] + log_b[:, None, :]))
            inner_ok[rows[done[finish]]] = True
            iterates[live[done]] = count
            keep = ~(finish | stop)
            if not keep.any():
                break
            op, lp, lb, change, scale, live, steps, moved = (
                x[keep] for x in (op, lp, lb, change, scale, live, steps, moved))
            state = [x[keep] for x in state]
        if moved.all():
            steps = _newton_steps(in_kernel, op, lb, *state, fi)
        elif moved.any():
            steps[moved] = _newton_steps(
                in_kernel, op[moved], lb[moved], *(x[moved] for x in state), fi)
    return t, out_b, inner_ok, iterates, failed


def _scaling_iterations(
    cost: NDArray[np.float64],
    log_p: NDArray[np.float64],
    log_q: float,
    gamma: float,
    epsilon: float,
    g: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64],
           NDArray[np.bool_], NDArray[np.int64], dict[int, str]]:
    """Scaling for a stack of linearized problems, warm-started from the
    column potentials ``g``.

    ``cost`` is ``B x F_v x K``; ``log_p`` is ``B x F_v`` and ``g`` is ``B x
    K``. The log anchor marginal ``log_q``, uniform, and the weights
    ``gamma`` and ``epsilon`` are scalars, the same for every problem of the
    stack. With ``K = exp(-cost / epsilon)`` and ``fi = gamma / (gamma +
    epsilon)``, the column log-scalings ``y = log b`` fix the row ones in
    closed form, ``log a = fi (log p - log K e^y)`` (zero when gamma is 0,
    which leaves rows unconstrained), so each problem is K equations in K
    unknowns: the column sums ``c(y) = b * Kᵀa`` equal ``q``. For each
    problem, one loop of at most ``_MAX_INNER`` Newton steps on ``y`` from
    ``y = g / epsilon`` (the Sinkhorn-Newton method of Brauer, Clason, Lorenz
    and Wirth, "A Sinkhorn-Newton method for entropic optimal transport",
    2017): the Jacobian of ``log c`` is ``I - fi M``, with ``M`` the plan
    divided by its column sums, transposed, times the plan divided by its
    row sums, which costs one ``K x F_v`` by ``F_v x K`` product and one
    ``K x K`` solve. A shift of ``y`` shared by all columns moves ``log c``
    by ``(1 - fi)`` times the shift and leaves the plan that the exact column
    update below forms unchanged, so the steps solve the Newton equation
    modulo that direction, along which the Jacobian is singular at ``fi =
    1``. A step that raises the residual (the log column sums off ``log q``,
    modulo that direction) is halved and tried again; the next step starts
    at twice the length of the last one taken, at most a full step. A
    problem has converged once the exact column update would move its
    potentials ``epsilon y`` by less than ``_POTENTIAL_TOL`` modulo that
    direction; it leaves the loop then, and the others go on. Every trial
    counts as a step.

    After the loop one exact column update ``log_b = log q - log Kᵀa`` forms
    the plan ``a[:, None] * K * b``: the anchor marginal matches
    ``exp(log_q)`` to machine precision.

    Each problem runs the call in one domain. It takes the kernel domain,
    products with ``K``, if every exponent of ``K`` and of its warm start lies
    within ``_KERNEL_RANGE``, and the log domain, logsumexp over ``log K``, if
    not. A problem whose kernel-domain step would take an exponent out of
    that range reruns the whole call in the log domain from its warm start,
    and counts the kernel steps it completed before that one with its
    log-domain ones.

    Returns the plans, the column potentials, per problem whether its loop
    converged and the number of Newton steps it took, and the problems whose
    potentials or plan went non-finite, mapped to the message of their
    :class:`NumericalError`; their rows of the other results are meaningless.
    """
    n = len(cost)
    log_k = cost / -epsilon
    log_b = g / epsilon
    args = (log_k, log_p, log_b)
    shared = (log_q, gamma / (gamma + epsilon), epsilon)
    kernel = np.zeros(n, dtype=bool)
    kernel[:] = _within_range(log_k) & _within_range(log_b)
    out = [np.zeros_like(cost), np.zeros_like(g), np.zeros(n, dtype=bool),
           np.zeros(n, dtype=np.int64)]
    rerun = ~kernel
    if kernel.any():
        r = slice(None) if kernel.all() else np.flatnonzero(kernel)  # views, not copies
        *part, rerun[r] = _newton_loop(True, *(x[r] for x in args), *shared)
        for whole, x in zip(out, part):
            whole[r] = x
    t, log_b, inner_ok, iterates = out
    errors: dict[int, str] = {}
    if rerun.any():
        r = np.flatnonzero(rerun)
        t[r], log_b[r], inner_ok[r], count, failed = _newton_loop(
            False, *(x[r] for x in args), *shared)
        iterates[r] += count
        errors = {int(i): "non-finite scaling potentials" for i in r[failed]}
    if not t.max() < np.inf:  # t >= 0, so this fails on inf and on NaN
        bad = ~np.isfinite(t).reshape(n, -1).all(axis=1)
        bad[list(errors)] = False
        errors.update((int(i), "non-finite transport plan after scaling")
                      for i in np.flatnonzero(bad))
    return t, epsilon * log_b, inner_ok, iterates, errors


def solve_fugw(
    problems: Iterable[OtProblem], *, alpha: float, gamma: float, epsilon: float
) -> SolveResults:
    """Minimize the fused objective of each problem under the one set of
    weights of the call; see the module docstring for the scheme and the
    batching. A bad weight is a :class:`DataError`, raised before any
    problem is read.

    Returns one result per problem, in order, as :class:`SolveResults`:
    its plan, or the :class:`NumericalError` that stopped its solve, which
    stops no other.
    The solver holds a problem only until its batch is solved, so a problem
    that the caller does not keep (one from an iterator) is freed then.
    A plan's trace holds :func:`fused_objective` at the initial plan, then
    after every outer step the line search's exact value at the chosen step
    (the same objective, evaluated along the segment); it is non-increasing.
    ``converged`` is set once the plan moves less than ``_PLAN_TOL`` in L1
    between outer steps and the inner Newton loop itself reported
    convergence. :func:`gw_gradient` runs once per batch, at the start
    plans; each line search returns the gradients at the plans it picks.
    """
    check_solver_weights(epsilon, alpha, gamma, DataError)
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
            for i, result in zip(batch, _solve_batch(probs, alpha, gamma, epsilon), strict=True):
                results[i] = result
    return results


def _solve_batch(
    probs: list[OtProblem], alpha: float, gamma: float, epsilon: float
) -> list[TransportPlan | NumericalError]:
    """The outer loop of problems of one shape, run in lockstep; a problem
    leaves the batch when its outer loop converges or its scaling fails."""
    n = len(probs)
    c_k = np.stack([prob.C_k for prob in probs])
    p_hat = np.stack([prob.p_hat for prob in probs])
    k = c_k.shape[2]
    q = np.full(k, 1.0 / k)
    t = p_hat[:, :, None] * q  # feasible start: exact marginals, zero KL
    log_p = np.log(p_hat)
    log_q = float(np.log(1.0 / k))
    g = np.zeros((n, k))
    traces = [[fused_objective(prob, t[i], alpha=alpha, gamma=gamma)]
              for i, prob in enumerate(probs)]
    grad = gw_gradient(t)
    iterates = np.zeros(n, dtype=np.int64)
    results: list = [None] * n
    live = np.arange(n)  # the problem of each row; rows leave with their problem

    for _outer in range(_MAX_OUTER):
        cand, g, inner_ok, count, errors = _scaling_iterations(
            (1.0 - alpha) * c_k + alpha * grad, log_p, log_q, gamma, epsilon, g
        )
        iterates[live] += count
        if errors:
            for i, message in errors.items():
                results[live[i]] = NumericalError(message)
            ok = np.ones(len(live), dtype=bool)
            ok[list(errors)] = False
            live, c_k, p_hat, log_p, t, grad, g, cand, inner_ok = (
                x[ok] for x in (live, c_k, p_hat, log_p, t, grad, g, cand, inner_ok))
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
            live, c_k, p_hat, log_p, t, grad, g = (
                x[~done] for x in (live, c_k, p_hat, log_p, t, grad, g))
            if not len(live):
                break
    for i, plan in zip(live, t):
        results[i] = TransportPlan(T=plan, objective_trace=traces[i], converged=False,
                                   scaling_iterates=int(iterates[i]))
    return results


def _segment_search(
    c_k: NDArray[np.float64],
    p_hat: NDArray[np.float64],
    alpha: float,
    gamma: float,
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
    values = (
        (1.0 - alpha) * (kot_t + steps * kot_d)
        + alpha * (a0 + a1 * steps + a2 * steps**2)
        + gamma * kl_divergence(rows, p_hat[:, None, :])
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
    mu: float,
) -> OtProblem:
    """Assemble an :class:`OtProblem` from valid-frame features and the prior."""
    c_k = build_kot_cost(xs_valid, anchors, p_s_valid, mu)
    total = float(np.sum(p_s_valid))
    if total <= 0:
        raise DataError("saliency prior has no mass on valid frames")
    p_hat = np.asarray(p_s_valid, dtype=np.float64) / total
    return OtProblem(C_k=c_k, p_hat=p_hat)
