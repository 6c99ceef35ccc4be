"""Transport solver: costs, quadratic structure term, scaling iterations."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from saliseg import transport
from saliseg.data import PipelineConfig
from saliseg.errors import DataError, NumericalError
from saliseg.transport import (
    OtProblem,
    build_kot_cost,
    build_problem,
    fused_objective,
    gw_gradient,
    gw_value,
    init_anchors,
    kl_divergence,
    solve_fugw,
)
from structure_costs import build_structure_costs


def brute_gw_value(t, c_v, c_a):
    total = 0.0
    f, k = t.shape
    for n in range(f):
        for m in range(f):
            for j in range(k):
                for l in range(k):
                    total += (c_v[n, m] - c_a[j, l]) ** 2 * t[n, j] * t[m, l]
    return total


def brute_gw_gradient(t, c_v, c_a):
    f, k = t.shape
    g = np.zeros_like(t)
    for a in range(f):
        for b in range(k):
            acc = 0.0
            for m in range(f):
                for l in range(k):
                    acc += (c_v[a, m] - c_a[b, l]) ** 2 * t[m, l]
            g[a, b] = 2.0 * acc
    return g


def dense_gw_operator(t, c_v, c_a):
    """The square-loss expansion of the structure operator with dense costs."""
    rows = t.sum(axis=1)
    cols = t.sum(axis=0)
    return ((c_v**2) @ rows)[:, None] + ((c_a**2) @ cols)[None, :] - 2.0 * (c_v @ t @ c_a.T)


# Shapes (F_v, K) at and near the degenerate ends, crossed with the ends and
# the middle of alpha and with gamma 0 (no pull towards the prior) and 0.3.
CORNER_GRID = [
    (f_v, k, alpha, gamma)
    for f_v, k in ((1, 1), (1, 4), (3, 8), (2, 2), (12, 3), (40, 8))
    for alpha in (0.0, 0.5, 1.0)
    for gamma in (0.0, 0.3)
]


def random_epsilon_cases(rng, n):
    """``n`` cases (F_v, K, alpha, gamma, epsilon) with epsilon log-uniform in
    [1e-3, 1]: the small ones put cost/epsilon beyond the kernel range."""
    return [
        (int(rng.integers(1, 41)), int(rng.integers(1, 9)), float(rng.uniform()),
         float(rng.choice([0.0, 0.3, 3.0])), float(np.exp(rng.uniform(np.log(1e-3), 0.0))))
        for _ in range(n)
    ]


def count_logsumexp(monkeypatch):
    """A list that grows by one on every log-domain ``_logsumexp`` call."""
    calls = []
    logsumexp = transport._logsumexp
    monkeypatch.setattr(transport, "_logsumexp", lambda x, axis: calls.append(axis) or logsumexp(x, axis))
    return calls


# The solver weights of the default configuration, and of a balanced
# problem: rows all but pinned to the prior, no structure term.
DEFAULT_WEIGHTS = {name: getattr(PipelineConfig(), name) for name in ("alpha", "gamma", "epsilon")}
BALANCED = {"alpha": 0.0, "gamma": 1e6, "epsilon": 1e-3}


def solve(prob, **weights):
    """One problem through the corpus solver; its NumericalError is raised."""
    (plan,) = solve_fugw([prob], **weights)
    if isinstance(plan, NumericalError):
        raise plan
    return plan


def in_log_domain(monkeypatch, solve, *args, **kwargs):
    """``solve(*args, **kwargs)`` with no exponent inside the kernel range,
    so every scaling iterate runs in the log domain."""
    with monkeypatch.context() as m:
        m.setattr(transport, "_KERNEL_RANGE", -1.0)
        return solve(*args, **kwargs)


def balanced_problem(cost):
    f_v = cost.shape[0]
    return OtProblem(C_k=cost, p_hat=np.full(f_v, 1.0 / f_v))


def default_problem(seed, f_v=100):
    """A seeded problem with ``f_v`` frames at the default configuration
    (K = 8 anchors)."""
    rng = np.random.default_rng(seed)
    cfg = PipelineConfig()
    xs = rng.normal(size=(f_v, 16))
    anchors = init_anchors(xs, cfg.K, seed=cfg.seed, video_id="t")
    return build_problem(xs, anchors, rng.random(f_v), cfg.mu)


def first_scaling_args(prob, alpha, gamma, epsilon):
    """The arguments of a solve's first scaling call under these weights,
    from the product plan, as a stack of one problem."""
    f_v, k = prob.C_k.shape
    t = np.outer(prob.p_hat, np.full(k, 1.0 / k))
    return ((1 - alpha) * prob.C_k[None] + alpha * gw_gradient(t)[None],
            np.log(prob.p_hat)[None], -np.log(k), gamma, epsilon, np.zeros((1, k)))


def scale_one(*args):
    """A scaling call on a stack of one problem: its plan, column
    potentials, convergence flag and Newton step count."""
    t, g, inner_ok, iterates, errors = transport._scaling_iterations(*args)
    assert not errors, errors
    return t[0], g[0], bool(inner_ok[0]), int(iterates[0])


def sinkhorn_fixed_point(cost, log_p, log_q, gamma, epsilon):
    """The plan of plain log-domain Sinkhorn iterates on one stacked
    problem, run until the column scalings stop moving, then closed by the
    exact column update."""
    log_k = cost[0] / -epsilon
    fi = gamma / (gamma + epsilon)
    log_b = np.zeros(log_k.shape[1])
    for _ in range(100_000):
        log_a = fi * (log_p[0] - transport._logsumexp(log_k + log_b, axis=1))
        new_b = log_q - transport._logsumexp(log_k + log_a[:, None], axis=0)
        moved, log_b = np.abs(new_b - log_b).max(), new_b
        if moved < 1e-15:
            break
    return np.exp(log_a[:, None] + log_k + log_b)


def leaving_problem():
    """A 7 x 3 problem solved at alpha = 0, gamma = 3 and epsilon = 0.1, and
    those weights. The column costs sit near 19, -9 and 12, so the kernel
    exponents span about -220 to +90. Column 1's log-scaling settles just
    past -300: the first scaling call's fourth Newton step takes it out of
    the kernel range while every row exponent stays below 225."""
    rng = np.random.default_rng(0)
    cost = np.array([19.1, -9.0, 11.9]) + 3.0 * rng.uniform(0, 1, (7, 3))
    p = rng.random(7) + 0.1
    weights = {"alpha": 0.0, "gamma": 3.0, "epsilon": 0.1}
    return OtProblem(C_k=cost, p_hat=p / p.sum()), weights


def row_leaving_problem():
    """A 7 x 3 problem at the weights of :func:`leaving_problem`. The column
    costs sit near 28, 26 and 14, so every row sum ``K b`` starts near
    exp(-140) and the row log-scalings near +135. The first scaling call's
    third Newton step keeps every column and row log-scaling inside the
    kernel range but takes some ``log(a / K b)`` past twice the range."""
    rng = np.random.default_rng(1)
    cost = np.array([27.0, 25.0, 13.0]) + 3.0 * rng.uniform(0, 1, (7, 3))
    p = rng.random(7) + 0.1
    return OtProblem(C_k=cost, p_hat=p / p.sum())


def faint_frame_problem():
    """A 7 x 3 problem at the weights of :func:`leaving_problem` with costs
    in [0, 1] and one frame of prior mass about exp(-1.5 * range): at every
    warm start that frame's row log-scaling lies near -436, out of the
    kernel range, while the column log-scalings lie inside it."""
    rng = np.random.default_rng(2)
    p = rng.random(7) + 0.1
    p[0] = np.exp(-1.5 * transport._KERNEL_RANGE)
    return OtProblem(C_k=rng.uniform(0, 1, (7, 3)), p_hat=p / p.sum())


def kernel_evaluations(monkeypatch):
    """A list that grows on every kernel-domain evaluation of a Newton
    loop by its log-scalings and whether every exponent stayed in range."""
    seen = []
    evaluate = transport._evaluate

    def spied(in_kernel, ops, log_p, fi, log_b):
        out = evaluate(in_kernel, ops, log_p, fi, log_b)
        if in_kernel:
            seen.append((log_b.copy(), bool(np.all(out[-1]))))
        return out

    monkeypatch.setattr(transport, "_evaluate", spied)
    return seen


class TestKotCost:
    def test_matching_anchor_zero_prior(self):
        x = np.array([[1.0, 2.0, 0.0]])
        anchors = x.copy()
        cost = build_kot_cost(x, anchors, np.array([0.0]), mu=0.1)
        np.testing.assert_allclose(cost[0, 0], 0.0, atol=1e-15)

    def test_matching_anchor_full_prior(self):
        x = np.array([[0.0, 3.0]])
        anchors = x.copy()
        cost = build_kot_cost(x, anchors, np.array([1.0]), mu=0.1)
        np.testing.assert_allclose(cost[0, 0], -0.1, atol=1e-15)

    def test_orthogonal_half_prior(self):
        x = np.array([[1.0, 0.0]])
        anchors = np.array([[0.0, 2.0]])
        cost = build_kot_cost(x, anchors, np.array([0.5]), mu=0.2)
        np.testing.assert_allclose(cost[0, 0], 0.9, atol=1e-15)

    def test_entries_within_bounds(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 5))
        anchors = rng.normal(size=(4, 5))
        p_s = rng.random(20)
        mu = 0.3
        cost = build_kot_cost(x, anchors, p_s, mu)
        assert np.all(cost >= -mu - 1e-12) and np.all(cost <= 2.0 + 1e-12)

    def test_mu_discount_is_exactly_linear(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 4))
        anchors = rng.normal(size=(3, 4))
        p_s = rng.random(6)
        base = build_kot_cost(x, anchors, p_s, mu=0.0)
        more = build_kot_cost(x, anchors, p_s, mu=0.4)
        np.testing.assert_allclose(
            base - more, np.tile(0.4 * p_s[:, None], (1, 3)), atol=1e-12
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError, match="zero-norm"):
            build_kot_cost(
                np.zeros((1, 2)), np.ones((1, 2)), np.zeros(1), 0.1
            )
        with pytest.raises(DataError, match="zero-norm"):
            build_kot_cost(np.ones((1, 2)), np.zeros((1, 2)), np.zeros(1), 0.1)

    @pytest.mark.parametrize(
        "anchors, match",
        [
            (np.ones((2, 5)), "K x 4 matrix"),
            (np.ones(4), "K x 4 matrix"),
            (np.ones((0, 4)), "K x 4 matrix"),
            (np.array([[1.0, np.nan, 0, 0]]), "non-finite anchors"),
        ],
        ids=["width", "one_dim", "no_rows", "nan"],
    )
    def test_bad_anchors_rejected(self, anchors, match):
        with pytest.raises(DataError, match=match):
            build_kot_cost(np.ones((3, 4)), anchors, np.ones(3), 0.1)


class TestStructureCosts:
    def test_three_frames(self):
        c_v, _ = build_structure_costs(3, 2)
        np.testing.assert_allclose(c_v, [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])

    def test_two_anchors(self):
        _, c_a = build_structure_costs(3, 2)
        np.testing.assert_allclose(c_a, [[0, 1], [1, 0]])

    def test_single_frame(self):
        c_v, _ = build_structure_costs(1, 1)
        np.testing.assert_allclose(c_v, [[0.0]])


class TestGwMachinery:
    def test_zero_plan_zero_gradient(self):
        np.testing.assert_array_equal(gw_gradient(np.zeros((4, 2))), 0.0)

    def test_uniform_2x2_matches_brute_force(self):
        c_v, c_a = build_structure_costs(2, 2)
        t = np.full((2, 2), 0.25)
        np.testing.assert_allclose(gw_gradient(t), brute_gw_gradient(t, c_v, c_a), atol=1e-10)

    @pytest.mark.parametrize("shape", [(3, 2), (5, 3), (4, 4)])
    def test_random_plans_match_brute_force(self, shape):
        rng = np.random.default_rng(sum(shape))
        c_v, c_a = build_structure_costs(*shape)
        for _ in range(5):
            t = rng.random(shape)
            t /= t.sum()
            np.testing.assert_allclose(gw_value(t), brute_gw_value(t, c_v, c_a), atol=1e-10)
            np.testing.assert_allclose(
                gw_gradient(t), brute_gw_gradient(t, c_v, c_a), atol=1e-10
            )

    @pytest.mark.parametrize("k", [1, 8, 32])
    @pytest.mark.parametrize("f", [1, 2, 3, 100, 1600])
    def test_closed_form_matches_dense_costs(self, f, k):
        rng = np.random.default_rng(f * 100 + k)
        c_v, c_a = build_structure_costs(f, k)
        t = rng.random((f, k))
        t /= t.sum()
        # A line-search direction: mixed signs, rows and columns not normalized.
        delta = rng.random((f, k)) / t.size - t
        for plan in (t, delta):
            op = dense_gw_operator(plan, c_v, c_a)
            np.testing.assert_allclose(gw_value(plan), float(np.sum(op * plan)), rtol=0, atol=1e-12)
            np.testing.assert_allclose(gw_gradient(plan), 2.0 * op, rtol=0, atol=1e-12)


class TestKlDivergence:
    def test_equal_measures_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_zero_mass_on_zero_reference_is_fine(self):
        assert kl_divergence(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_positive_mass_on_zero_reference_infinite(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == np.inf

    def test_generalized_form_for_unequal_mass(self):
        m = np.array([0.3, 0.3])
        ref = np.array([0.5, 0.5])
        expected = float(np.sum(m * np.log(m / ref)) - m.sum() + ref.sum())
        np.testing.assert_allclose(kl_divergence(m, ref), expected, atol=1e-15)

    def test_stack_matches_per_row_calls_bit_for_bit(self):
        """An S x F stack reduces each row exactly as a call on that row
        would, the zero cases included, and raises no RuntimeWarning."""
        rng = np.random.default_rng(8)
        f = 300  # long enough for pairwise summation to split the rows
        ref = rng.random(f)
        ref[:5] = 0.0
        stack = rng.random((6, f))
        stack[:, :5] = 0.0
        stack[1, 10:40] = 0.0  # zeros where ref > 0: 0 log 0 = 0
        stack[2, 2] = 0.25  # mass where ref is 0
        stack[3] = 0.0
        got = kl_divergence(stack, ref)
        want = np.array([kl_divergence(row, ref) for row in stack])
        assert got.shape == (6,)
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got[2]) and np.all(np.isfinite(np.delete(got, 2)))
        assert got[3] == ref.sum()
        pos = stack[1] > 0
        m, r = stack[1][pos], ref[pos]
        np.testing.assert_allclose(
            got[1], np.sum(m * np.log(m / r)) - m.sum() + ref.sum(), rtol=1e-14
        )


class TestSolveFugw:
    def test_zero_cost_uniform_marginals_gives_uniform_plan(self):
        plan = solve(balanced_problem(np.zeros((4, 2))), **BALANCED)
        np.testing.assert_allclose(plan.T, 1.0 / 8, atol=1e-9)

    def test_balanced_enumeration_oracle(self, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_OUTER", 20)
        rng = np.random.default_rng(42)
        for _ in range(10):
            cost = rng.uniform(0, 1, (6, 2))
            plan = solve(balanced_problem(cost), **BALANCED)
            got = float(np.sum(cost * plan.T))
            best = min(
                sum(cost[i, 0] for i in chosen) / 6
                + sum(cost[i, 1] for i in range(6) if i not in chosen) / 6
                for chosen in itertools.combinations(range(6), 3)
            )
            assert got <= best * 1.02 + 1e-12
            # Quasi-hard rows may undercut the exactly balanced optimum by a
            # sliver proportional to the marginal violation.
            assert got >= best - 1e-4

    def test_gamma_zero_leaves_rows_unconstrained(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(0, 1, (8, 2))
        cost[0, 0] = -0.5  # one very cheap cell attracts the whole column
        prob = balanced_problem(cost)
        plan = solve(prob, alpha=0.0, gamma=0.0, epsilon=0.01)
        col_err = np.max(np.abs(plan.T.sum(axis=0) - 0.5))
        assert col_err < 1e-6
        rows = plan.T.sum(axis=1)
        assert np.max(np.abs(rows - prob.p_hat)) > 0.1

    # The random-epsilon cases come after the fixed ones, so those keep their
    # draws. Near epsilon = 1e-3 the solve may need more than _MAX_OUTER steps,
    # so only the fixed cases assert convergence; the marginal and the trace
    # hold after every step. Both tests see kernel-domain and log-domain solves.

    def test_anchor_marginal_always_exact(self, monkeypatch):
        rng = np.random.default_rng(2)
        cases = [(10, 3, 0.0, 0.3), (10, 3, 0.5, 0.3), (10, 3, 0.8, 3.0)] + CORNER_GRID
        n_fixed = len(cases)
        cases = [case + (0.05,) for case in cases] + random_epsilon_cases(rng, 10)
        calls = count_logsumexp(monkeypatch)
        log_domain = []
        for i, (f_v, k, alpha, gamma, epsilon) in enumerate(cases):
            cost = rng.uniform(0, 1, (f_v, k))
            p = rng.random(f_v) + 0.1
            prob = OtProblem(C_k=cost, p_hat=p / p.sum())
            calls.clear()
            plan = solve(prob, alpha=alpha, gamma=gamma, epsilon=epsilon)
            log_domain.append(bool(calls))
            case = (f_v, k, alpha, gamma, epsilon)
            assert plan.converged or i >= n_fixed, case
            assert np.all(np.isfinite(plan.T)) and np.all(plan.T >= 0), case
            np.testing.assert_allclose(plan.T.sum(axis=0), 1 / k, atol=1e-6, err_msg=str(case))
            np.testing.assert_allclose(plan.T.sum(), 1.0, atol=1e-9, err_msg=str(case))
        assert any(log_domain) and not all(log_domain)

    def test_objective_trace_non_increasing(self, monkeypatch):
        rng = np.random.default_rng(3)
        cases = [case + (0.1,) for case in [(12, 4, 0.5, 0.3)] + CORNER_GRID]
        n_fixed = len(cases)
        cases += random_epsilon_cases(rng, 10)
        calls = count_logsumexp(monkeypatch)
        log_domain = []
        for i, (f_v, k, alpha, gamma, epsilon) in enumerate(cases):
            cost = rng.uniform(0, 1, (f_v, k))
            p = rng.random(f_v) + 0.05
            prob = OtProblem(C_k=cost, p_hat=p / p.sum())
            calls.clear()
            plan = solve(prob, alpha=alpha, gamma=gamma, epsilon=epsilon)
            log_domain.append(bool(calls))
            case = (f_v, k, alpha, gamma, epsilon)
            assert plan.converged or i >= n_fixed, case
            trace = np.array(plan.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9), case
            np.testing.assert_allclose(
                trace[-1], fused_objective(prob, plan.T, alpha=alpha, gamma=gamma), atol=1e-12,
                err_msg=str(case)
            )
        assert any(log_domain) and not all(log_domain)

    def test_trace_start_and_operator_calls_per_step(self, monkeypatch):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(50, 6))
        anchors = init_anchors(xs, 4, seed=0, video_id="t")
        prob = build_problem(xs, anchors, rng.random(50), mu=0.1)
        calls = []
        operator = transport._gw_operator
        monkeypatch.setattr(transport, "_gw_operator", lambda t: calls.append(1) or operator(t))
        plan = solve(prob, alpha=0.5, gamma=0.3, epsilon=0.1)
        # One call for trace[0], one for the start plan's gradient, then the
        # line-search direction per step: later gradients are carried.
        assert len(calls) == 2 + plan.iterations
        start = np.outer(prob.p_hat, np.full(4, 0.25))
        assert plan.objective_trace[0] == fused_objective(prob, start, alpha=0.5, gamma=0.3)

    def test_carried_gradient_matches_recomputed(self, monkeypatch):
        """Each outer step after the first takes its structure gradient from
        the previous line search; it equals the gradient recomputed at that
        plan."""
        prob = default_problem(17)
        steps = []
        search = transport._segment_search

        def checked_search(c_k, p_hat, alpha, gamma, t, grad, cand):
            steps.append(1)
            np.testing.assert_allclose(grad, gw_gradient(t), rtol=1e-12, atol=0)
            return search(c_k, p_hat, alpha, gamma, t, grad, cand)

        monkeypatch.setattr(transport, "_segment_search", checked_search)
        plan = solve(prob, **DEFAULT_WEIGHTS)
        assert plan.converged and len(steps) == plan.iterations > 1

    def test_newton_plan_is_the_sinkhorn_fixed_point(self):
        """The first scaling call of seeded problems, at the default weights
        and with gamma at 0 and at 3, gives the plan of plain Sinkhorn
        iterates run to their fixed point, then the same exact column
        update, within 1e-12."""
        for seed, weights in itertools.product(
                (20, 21, 22), (DEFAULT_WEIGHTS, {**DEFAULT_WEIGHTS, "gamma": 0.0},
                               {**DEFAULT_WEIGHTS, "gamma": 3.0})):
            args = first_scaling_args(default_problem(seed), **weights)
            t, _, inner_ok, _ = scale_one(*args)
            assert inner_ok
            np.testing.assert_allclose(t, sinkhorn_fixed_point(*args[:5]), rtol=0, atol=1e-12,
                                       err_msg=str((seed, weights)))

    def test_newton_steps_per_call_stay_bounded(self, monkeypatch):
        """From the product plan a call takes at most 5 Newton steps, and a
        call warm-started from the previous outer step at most 4 (3 and 3 with
        numpy 2.4 and OpenBLAS), where Sinkhorn iterates take about 20."""
        steps = []
        scaling = transport._scaling_iterations

        def counted(*args):
            out = scaling(*args)
            steps.append(int(out[3][0]))
            return out

        monkeypatch.setattr(transport, "_scaling_iterations", counted)
        for f_v, seed in itertools.product((40, 100, 400), (20, 21, 22)):
            steps.clear()
            plan = solve(default_problem(seed, f_v), **DEFAULT_WEIGHTS)
            assert plan.converged and len(steps) == plan.iterations > 1
            assert steps[0] <= 5 and max(steps[1:]) <= 4, steps
            assert plan.scaling_iterates == sum(steps)

    @pytest.mark.parametrize("gamma", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("epsilon", [1e-3, 10.0])
    def test_converges_across_weights(self, gamma, alpha, epsilon):
        """Where a row exponent near 1 makes the Jacobian all but singular
        along the all-ones direction (gamma much larger than epsilon), the
        solve still converges, without a warning, to exact anchor marginals."""
        for seed in (60, 61):
            prob = default_problem(seed, f_v=40)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = solve(prob, alpha=alpha, gamma=gamma, epsilon=epsilon)
            assert plan.converged, (seed, plan.iterations)
            np.testing.assert_allclose(plan.T.sum(axis=0), 1 / 8, rtol=1e-12, atol=0)

    def test_exactly_singular_jacobian_takes_plain_updates(self, monkeypatch):
        """At gamma / (gamma + epsilon) == 1.0 the rows are pinned to the
        prior, and two anchors whose kernels share no frame (exp(-1000) is
        0) make the Newton matrix exactly singular. Those steps fall back to
        the plain column update, which crosses the flat residual until the
        couplings carry mass, as Sinkhorn iterates do: the solve converges,
        without a warning, to the plan that moves the prior's excess on the
        second frame to the first anchor."""
        singular = []
        solve_linear = np.linalg.solve

        def spied(a, b):
            try:
                return solve_linear(a, b)
            except np.linalg.LinAlgError:
                singular.append(1)
                raise

        monkeypatch.setattr(np.linalg, "solve", spied)
        prob = OtProblem(C_k=np.array([[0.0, 1e3], [1e3, 0.0]]), p_hat=np.array([0.3, 0.7]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = solve(prob, alpha=0.0, gamma=1e17, epsilon=1.0)
        assert singular and plan.converged
        np.testing.assert_allclose(plan.T, [[0.3, 0.0], [0.2, 0.5]], rtol=0, atol=1e-12)

    def test_exhausted_scaling_reports_not_converged_with_exact_columns(self, monkeypatch):
        """Cut at two iterates, the scaling call reports no convergence; its
        closing column update still pins the anchor marginal, and so does
        every outer step of a solve made of such calls."""
        prob = default_problem(23)
        monkeypatch.setattr(transport, "_MAX_INNER", 2)
        t, _, inner_ok, iterates = scale_one(*first_scaling_args(prob, **DEFAULT_WEIGHTS))
        assert (inner_ok, iterates) == (False, 2)
        np.testing.assert_allclose(t.sum(axis=0), 1 / 8, rtol=1e-13, atol=0)
        monkeypatch.setattr(transport, "_MAX_OUTER", 5)
        plan = solve(prob, **DEFAULT_WEIGHTS)
        assert not plan.converged
        assert (plan.iterations, plan.scaling_iterates) == (5, 10)
        np.testing.assert_allclose(plan.T.sum(axis=0), 1 / 8, rtol=1e-13, atol=0)

    def test_prior_length_must_match_cost_rows(self):
        with pytest.raises(DataError, match="p_hat length"):
            OtProblem(C_k=np.zeros((5, 2)), p_hat=np.full(4, 0.25))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("p_hat", np.array([0.5, np.nan]), "p_hat"),
            ("p_hat", np.array([np.nan, np.nan]), "p_hat"),
            ("C_k", np.zeros((2, 0)), "at least one anchor column"),
        ],
    )
    def test_nan_inputs_rejected(self, field, value, match):
        args = {"C_k": np.zeros((2, 2)), "p_hat": np.full(2, 0.5), field: value}
        with pytest.raises(DataError, match=match):
            OtProblem(**args)

    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("epsilon", np.nan, "epsilon"),
            ("epsilon", np.inf, "epsilon must be finite"),
            ("epsilon", -np.inf, "epsilon must be finite and > 0"),
            ("epsilon", 0.0, "epsilon must be finite and > 0"),
            ("gamma", np.nan, "gamma"),
            ("gamma", np.inf, "gamma must be finite"),
            ("gamma", -np.inf, "gamma must be finite and >= 0"),
            ("gamma", -0.1, "gamma must be finite and >= 0"),
            ("epsilon", 10**400, "epsilon must be finite and > 0"),
            ("gamma", 10**400, "gamma must be finite and >= 0"),
            ("alpha", np.nan, "alpha"),
            ("alpha", np.inf, "alpha must lie in"),
            ("alpha", -np.inf, "alpha must lie in"),
            ("alpha", -0.1, "alpha must lie in"),
            ("alpha", 1.1, "alpha must lie in"),
        ],
    )
    def test_bad_weights_rejected_before_any_problem_is_read(self, name, value, match):
        def unread():
            raise AssertionError("a problem was read")
            yield

        weights = {**DEFAULT_WEIGHTS, name: value}
        for problems in ([], unread()):
            with pytest.raises(DataError, match=match):
                solve_fugw(problems, **weights)

    def test_weights_are_keyword_only(self):
        prob = balanced_problem(np.zeros((4, 2)))
        t = np.full((4, 2), 1 / 8)
        with pytest.raises(TypeError):
            solve_fugw([prob], 0.5, 0.3, 0.1)
        with pytest.raises(TypeError):
            solve_fugw([prob])
        with pytest.raises(TypeError):
            fused_objective(prob, t, 0.5, 0.3)

    def test_non_finite_potentials_raise_without_warning(self):
        cost = np.random.default_rng(12).uniform(0, 1, (6, 3))
        cost[2, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite scaling potentials"):
                solve(balanced_problem(cost), **DEFAULT_WEIGHTS)

    def test_kernel_and_log_domain_paths_agree(self, monkeypatch):
        """Every solve here stays in the kernel domain (no logsumexp call);
        forced into the log domain it takes the same outer steps to the
        same convergence flag and a plan within 1e-12. The first scaling
        call of each takes the same Newton steps to the same convergence
        flag in both domains, and its plan and column potentials agree to
        1e-13.

        One corner is exempt from the step count and the plan: at F_v = K = 2
        with alpha = 1 and gamma = 0 the linearized cost is constant along
        the whole solve and the objective is 0.5 on every plan it visits, so
        the line search picks its step from rounding noise. There both paths
        must converge at that value.
        """
        rng = np.random.default_rng(14)
        cases = []  # (problem, weights)
        for f_v, k, alpha, gamma in CORNER_GRID:
            p = rng.random(f_v) + 0.05
            cases.append((OtProblem(C_k=rng.uniform(0, 1, (f_v, k)), p_hat=p / p.sum()),
                          {"alpha": alpha, "gamma": gamma, "epsilon": 0.1}))
        cfg = PipelineConfig()
        for f_v in (1, 100, 1600):
            xs = rng.normal(size=(f_v, 16))
            anchors = init_anchors(xs, cfg.K, seed=cfg.seed, video_id="t")
            cases.append((build_problem(xs, anchors, rng.random(f_v), cfg.mu), DEFAULT_WEIGHTS))
        calls = count_logsumexp(monkeypatch)
        for prob, weights in cases:
            case = (prob.C_k.shape, weights["alpha"], weights["gamma"])
            first = first_scaling_args(prob, **weights)
            kernel_first = scale_one(*first)
            kernel = solve(prob, **weights)
            assert not calls, case
            log_first = in_log_domain(monkeypatch, scale_one, *first)
            assert kernel_first[2:] == log_first[2:], case
            for got, want in zip(kernel_first[:2], log_first[:2]):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=str(case))
            logd = in_log_domain(monkeypatch, solve, prob, **weights)
            assert calls, case
            calls.clear()
            if case == ((2, 2), 1.0, 0.0):
                assert kernel.converged and logd.converged
                trace = kernel.objective_trace + logd.objective_trace
                np.testing.assert_allclose(trace, 0.5, rtol=0, atol=1e-12)
                continue
            assert (kernel.converged, kernel.iterations) == (logd.converged, logd.iterations), case
            np.testing.assert_allclose(kernel.T, logd.T, rtol=0, atol=1e-12, err_msg=str(case))

    def test_small_epsilon_takes_log_domain_without_warning(self, monkeypatch):
        """At epsilon = 1e-3, cost/epsilon leaves the kernel range, so the
        solve is the log-domain one bit for bit."""
        monkeypatch.setattr(transport, "_MAX_OUTER", 20)
        rng = np.random.default_rng(42)
        calls = count_logsumexp(monkeypatch)
        for _ in range(3):
            prob = balanced_problem(rng.uniform(0, 1, (6, 2)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = solve(prob, **BALANCED)
            n_calls = len(calls)
            calls.clear()
            logd = in_log_domain(monkeypatch, solve, prob, **BALANCED)
            assert n_calls == len(calls) > 0
            calls.clear()
            assert plan.T.tobytes() == logd.T.tobytes()
            assert plan.objective_trace == logd.objective_trace

    def test_potentials_leaving_range_fall_back_mid_solve(self, monkeypatch):
        """The first scaling call of the solve of :func:`leaving_problem`
        takes three Newton steps in the kernel domain before its fourth
        takes a column exponent out of range; that of
        :func:`row_leaving_problem` takes two before its third takes a row
        exponent out; that of :func:`faint_frame_problem` has a row exponent
        out of range at its warm start. Each such call reruns in the log
        domain from its warm start. Every call that takes logsumexp returns
        what the same call returns in the log domain, bit for bit, and counts
        the kernel steps it completed before the leave beside its log-domain
        ones. Each solve agrees with the log-domain solve to 1e-12."""
        _, weights = leaving_problem()
        calls = count_logsumexp(monkeypatch)
        seen = kernel_evaluations(monkeypatch)
        scaling = transport._scaling_iterations
        records = []

        def recorded_scaling(*args):
            del calls[:], seen[:]
            out = scaling(*args)
            records.append((args, out, bool(calls), [ok for _, ok in seen]))
            return out

        cases = [(leaving_problem()[0], 4), (row_leaving_problem(), 3), (faint_frame_problem(), 0)]
        for prob, first_in_range in cases:
            records.clear()
            monkeypatch.setattr(transport, "_scaling_iterations", recorded_scaling)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = solve(prob, **weights)
            monkeypatch.setattr(transport, "_scaling_iterations", scaling)
            # Pass 0 evaluates the warm start; each later evaluation is a step.
            assert records[0][2] and records[0][3] == [True] * first_in_range + [False]
            for args, (t, g, inner_ok, iterates, _), rerun, in_range in records:
                if not rerun:
                    assert int(iterates[0]) == len(in_range) - 1 and all(in_range)
                    continue
                completed = max(in_range.index(False) - 1, 0)
                logd = in_log_domain(monkeypatch, scaling, *args)
                for got, want in zip((t, g, inner_ok), logd[:3]):
                    assert got.tobytes() == want.tobytes()
                assert int(iterates[0]) == completed + int(logd[3][0])
            assert plan.scaling_iterates == sum(int(out[3][0]) for _, out, _, _ in records)
            logd = in_log_domain(monkeypatch, solve, prob, **weights)
            assert plan.converged and logd.converged and plan.iterations == logd.iterations
            np.testing.assert_allclose(plan.T, logd.T, rtol=0, atol=1e-12)

    def test_column_scaling_leaving_range_falls_back_mid_call(self, monkeypatch):
        """In the first scaling call of :func:`leaving_problem`, column 1's
        log-scaling settles towards about -300.5: the first three Newton
        steps keep it inside the kernel range, and the fourth takes it, and
        only it, past -300, while every row exponent stays below 225. The
        whole call then reruns in the log domain from its warm start: it
        returns the log-domain call's plan, potentials and convergence flag
        bit for bit, and counts the three kernel steps it completed."""
        prob, weights = leaving_problem()
        args = first_scaling_args(prob, **weights)
        calls = count_logsumexp(monkeypatch)
        with monkeypatch.context() as m:
            seen = kernel_evaluations(m)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mixed = scale_one(*args)
        n_mixed = len(calls)
        calls.clear()
        logd = in_log_domain(monkeypatch, scale_one, *args)
        # The warm start, three kernel steps, the step that leaves, then the
        # whole call again by logsumexp.
        assert [ok for _, ok in seen] == [True] * 4 + [False]
        assert n_mixed == len(calls) > 0
        log_b = seen[-1][0]
        out_of_range = np.abs(log_b[0]) > transport._KERNEL_RANGE
        assert out_of_range.tolist() == [False, True, False]
        log_k = args[0] / -weights["epsilon"]
        fi = weights["gamma"] / (weights["gamma"] + weights["epsilon"])
        log_a = fi * (args[1] - transport._logsumexp(log_k + log_b[:, None, :], axis=2))
        assert np.abs(log_a).max() < 225
        assert mixed[2] == logd[2] and mixed[3] == 3 + logd[3]
        for got, want in zip(mixed[:2], logd[:2]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fixture, in_range", [
        (row_leaving_problem, 3), (faint_frame_problem, 0)], ids=["a_over_kb", "row_scaling"])
    def test_row_scaling_leaving_range_reruns_the_call(self, monkeypatch, fixture, in_range):
        """In the first scaling call of :func:`row_leaving_problem`, the
        first two Newton steps stay inside the kernel range and the third
        takes some ``log(a / K b)``, and no column or row log-scaling, out
        of it; in that of :func:`faint_frame_problem` the warm start has one
        row log-scaling, and no column one, out of range. The whole call
        then reruns in the log domain from its warm start: it returns the
        log-domain call's plan, potentials and convergence flag bit for bit,
        and counts the kernel steps it completed."""
        prob = fixture()
        _, weights = leaving_problem()
        args = first_scaling_args(prob, **weights)
        with monkeypatch.context() as m:
            seen = kernel_evaluations(m)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mixed = scale_one(*args)
        logd = in_log_domain(monkeypatch, scale_one, *args)
        # The warm start and the steps inside the range, then the leave.
        assert [ok for _, ok in seen] == [True] * in_range + [False]
        completed = max(in_range - 1, 0)
        log_b = seen[-1][0]
        assert np.abs(log_b).max() <= transport._KERNEL_RANGE
        log_k = args[0] / -weights["epsilon"]
        fi = weights["gamma"] / (weights["gamma"] + weights["epsilon"])
        log_rows = transport._logsumexp(log_k + log_b[:, None, :], axis=2)
        log_a = fi * (args[1] - log_rows)
        rows_in_range = np.abs(log_a).max() <= transport._KERNEL_RANGE
        over_kb = np.abs(0.5 * (log_a - log_rows)).max() > transport._KERNEL_RANGE
        assert (rows_in_range, over_kb) == ((True, True) if in_range else (False, False))
        assert mixed[2] == logd[2] and mixed[3] == completed + logd[3]
        for got, want in zip(mixed[:2], logd[:2]):
            assert got.tobytes() == want.tobytes()

    def test_logsumexp_matches_function_form_bit_for_bit(self):
        x = np.random.default_rng(13).normal(scale=50.0, size=(40, 8))
        x[3, :4] = -np.inf
        for axis in (0, 1):
            m = np.max(x, axis=axis, keepdims=True)
            want = np.squeeze(m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)), axis=axis)
            assert transport._logsumexp(x, axis).tobytes() == want.tobytes()

    def test_problem_holds_no_frame_by_frame_matrix(self):
        rng = np.random.default_rng(11)
        f_v, k = 1600, 8
        xs = rng.normal(size=(f_v, 4))
        anchors = init_anchors(xs, k, seed=0, video_id="t")
        prob = build_problem(xs, anchors, rng.random(f_v), mu=0.1)
        sizes = {
            f.name: np.asarray(getattr(prob, f.name)).size for f in dataclasses.fields(prob)
        }
        assert max(sizes.values()) <= f_v * k, sizes

    def test_kl_pull_monotone_in_gamma(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(30, 8))
        anchors = init_anchors(xs, 4, seed=0, video_id="t")
        prob = build_problem(xs, anchors, rng.random(30), mu=0.1)
        kls = []
        for gamma in (0.0, 0.3, 3.0, 30.0):
            plan = solve(prob, alpha=0.5, gamma=gamma, epsilon=0.1)
            kls.append(kl_divergence(plan.T.sum(axis=1), prob.p_hat))
        assert all(b <= a + 1e-9 for a, b in zip(kls, kls[1:]))

    def test_deterministic_given_problem(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(0, 1, (7, 3))
        prob = balanced_problem(cost)
        a = solve(prob, **DEFAULT_WEIGHTS)
        b = solve(prob, **DEFAULT_WEIGHTS)
        assert a.T.tobytes() == b.T.tobytes()
        assert a.objective_trace == b.objective_trace

    def test_converges_on_default_regime(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(40, 6))
        anchors = init_anchors(xs, 5, seed=1, video_id="t")
        p_s = rng.random(40)
        prob = build_problem(xs, anchors, p_s, mu=0.1)
        plan = solve(prob, alpha=0.5, gamma=0.3, epsilon=0.1)
        assert plan.converged
        assert plan.iterations <= 200


def result_bits(result):
    """Everything a solve returns, bit for bit: the plan, the trace, the
    convergence flag and both counts, or the error's message."""
    if isinstance(result, NumericalError):
        return "error", str(result)
    return (result.T.tobytes(), [v.hex() for v in result.objective_trace], result.converged,
            result.iterations, result.scaling_iterates)


def mixed_batches():
    """One ``(weights, problems)`` pair per solve call, each with at least
    two problems that share a batch: gamma = 0 (row exponent 0), alpha = 0
    and alpha = 1, each at 40 frames; the weights of :func:`leaving_problem`
    with that 7 x 3 problem and :func:`row_leaving_problem`, whose column
    and row exponents leave the kernel range partway through their first
    scaling call, and :func:`faint_frame_problem`, whose row exponents start
    out of it, so that those calls rerun in the log domain, while their
    7 x 3 batch-mate stays in the kernel domain; and the default weights
    across two lengths and two anchor counts, with a 6 x 3 problem whose NaN
    cost ends its solve in a NumericalError beside a 6 x 3 mate that
    solves."""
    rng = np.random.default_rng(16)
    handover, handover_weights = leaving_problem()
    q = rng.random(7) + 0.1
    mate = OtProblem(C_k=rng.uniform(0, 1, (7, 3)), p_hat=q / q.sum())
    nan_cost = rng.uniform(0, 1, (6, 3))
    nan_cost[2, 1] = np.nan
    failing = balanced_problem(nan_cost)
    solvable = balanced_problem(rng.uniform(0, 1, (6, 3)))
    def at_40(*seeds):
        return [default_problem(seed, f_v=40) for seed in seeds]

    return [
        ({**DEFAULT_WEIGHTS, "gamma": 0.0}, at_40(21, 25)),
        ({**DEFAULT_WEIGHTS, "alpha": 0.0}, at_40(23, 26)),
        ({**DEFAULT_WEIGHTS, "alpha": 1.0}, at_40(24, 27)),
        (handover_weights, [handover, row_leaving_problem(), faint_frame_problem(), mate]),
        (DEFAULT_WEIGHTS, [default_problem(20), failing, default_problem(22), solvable]),
    ]


class TestCorpusSolve:
    @pytest.mark.parametrize("cut", [False, True], ids=["full", "cut_at_10_steps"])
    def test_batch_results_match_solving_alone(self, monkeypatch, cut):
        """Under each set of weights, each result is bit-identical solved
        alone or in a batch, in any order. Cut at 10 outer steps, some
        solves end unconverged while their batch-mates converge."""
        if cut:
            monkeypatch.setattr(transport, "_MAX_OUTER", 10)
        calls = count_logsumexp(monkeypatch)
        everyone, log_domain, all_converged = [], [], []
        for weights, probs in mixed_batches():
            alone = []
            for prob in probs:
                calls.clear()
                alone.append(result_bits(solve_fugw([prob], **weights)[0]))
                log_domain.append(bool(calls))
            results = solve_fugw(probs, **weights)
            assert [result_bits(r) for r in results] == alone, weights
            assert [result_bits(r) for r in solve_fugw(probs[::-1], **weights)] == alone[::-1]
            # The call's totals read its plans alone; the failed solve has none.
            assert results.iterations == sum(bits[3] for bits in alone if bits[0] != "error")
            all_converged.append(results.converged)
            everyone += alone
        assert all(all_converged) is not cut
        # The hand-over, the row leaves and the NaN cost take the log domain;
        # their mates do not.
        assert log_domain == [False] * 6 + [True] * 3 + [False] + [False, True, False, False]
        assert everyone[11] == ("error", "non-finite scaling potentials")
        converged = [bits[2] for bits in everyone if bits[0] != "error"]
        assert any(converged) and all(converged) != cut

    def test_batches_split_under_the_byte_budget(self, monkeypatch):
        """With the budget cut to one, two or three problems of 100 frames,
        the batches split, no line-search grid exceeds the budget, and every
        result is unchanged."""
        probs = [default_problem(seed) for seed in range(30, 35)]
        probs += [default_problem(seed, f_v=40) for seed in range(35, 40)]
        want = [result_bits(r) for r in solve_fugw(probs, **DEFAULT_WEIGHTS)]
        grids = []
        kl = transport.kl_divergence

        def recorded(m, ref):
            if np.ndim(m) == 3:  # a line search's stack of grids
                grids.append(m.shape)
            return kl(m, ref)

        monkeypatch.setattr(transport, "kl_divergence", recorded)
        for per_batch in (1, 2, 3):
            budget = per_batch * 8 * transport._LINE_SEARCH_POINTS * 100
            monkeypatch.setattr(transport, "_BATCH_BYTES", budget)
            grids.clear()
            assert [result_bits(r) for r in solve_fugw(probs, **DEFAULT_WEIGHTS)] == want
            assert max(8 * int(np.prod(shape)) for shape in grids) <= budget
            assert max(shape[0] for shape in grids if shape[2] == 100) == per_batch
        assert 8 * transport._LINE_SEARCH_POINTS * 100 * len(probs) > 3 * budget

    def test_one_problem_over_budget_is_solved_alone(self, monkeypatch):
        monkeypatch.setattr(transport, "_BATCH_BYTES", 1)
        probs = [default_problem(41), default_problem(42)]
        want = [result_bits(solve_fugw([prob], **DEFAULT_WEIGHTS)[0]) for prob in probs]
        assert [result_bits(r) for r in solve_fugw(probs, **DEFAULT_WEIGHTS)] == want

    def test_no_problems_no_results(self):
        assert solve_fugw([], **DEFAULT_WEIGHTS) == []


class TestInitAnchors:
    def test_count_and_nonzero(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(25, 4))
        anchors = init_anchors(xs, 6, seed=0, video_id="v")
        assert anchors.shape[0] == 6
        assert np.all(np.linalg.norm(anchors, axis=1) > 0)

    def test_deterministic_per_video(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(25, 4))
        a = init_anchors(xs, 6, seed=3, video_id="v")
        b = init_anchors(xs, 6, seed=3, video_id="v")
        c = init_anchors(xs, 6, seed=3, video_id="w")
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_covers_separated_clusters(self):
        rng = np.random.default_rng(9)
        centers = np.eye(4) * 5
        xs = np.concatenate([centers[i] + 0.05 * rng.normal(size=(10, 4)) for i in range(4)])
        anchors = init_anchors(xs, 4, seed=0, video_id="v")
        # One anchor per cluster: every center has an anchor within 1.0.
        d = np.linalg.norm(anchors[:, None, :] - centers[None, :, :], axis=2)
        assert np.all(d.min(axis=0) < 1.0)

    def test_no_rows_rejected(self):
        with pytest.raises(DataError, match="no feature rows"):
            init_anchors(np.zeros((0, 4)), 3, seed=0, video_id="v")
