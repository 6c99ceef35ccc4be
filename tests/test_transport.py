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
            np.log(prob.p_hat)[None], -np.log(k), gamma, epsilon, np.zeros((1, f_v)),
            np.zeros((1, k)))


def scale_one(*args):
    """A scaling call on a stack of one problem: its plan, potentials,
    convergence flag and iterate count."""
    t, f, g, inner_ok, iterates, errors = transport._scaling_iterations(*args)
    assert not errors, errors
    return t[0], f[0], g[0], bool(inner_ok[0]), int(iterates[0])


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

    def test_relaxation_saves_iterates_for_the_same_plan(self, monkeypatch):
        for seed in (20, 21, 22):
            prob = default_problem(seed)
            relaxed = solve(prob, **DEFAULT_WEIGHTS)
            with monkeypatch.context() as m:
                m.setattr(transport, "_OMEGA", 1.0)
                plain = solve(prob, **DEFAULT_WEIGHTS)
            assert relaxed.converged and plain.converged
            assert relaxed.iterations == plain.iterations
            assert 0 < relaxed.scaling_iterates < plain.scaling_iterates
            np.testing.assert_allclose(relaxed.T, plain.T, rtol=0, atol=1e-9)

    def test_safeguard_falls_back_to_plain_updates(self, monkeypatch):
        """Relaxed scaling converges for omega in (0, 2). At omega = 2.5 the
        first call's potential change grows from one iterate to the next;
        the safeguard then runs plain updates, and the solve reaches the
        omega = 1 plan."""
        prob = default_problem(20)
        with monkeypatch.context() as m:
            m.setattr(transport, "_OMEGA", 1.0)
            plain = solve(prob, **DEFAULT_WEIGHTS)
        monkeypatch.setattr(transport, "_OMEGA", 2.5)
        first = first_scaling_args(prob, **DEFAULT_WEIGHTS)
        rows = [first[5][0]]  # the row potentials after 0, 1, 2, ... iterates
        for n in range(1, 6):
            with monkeypatch.context() as m:
                m.setattr(transport, "_MAX_INNER", n)
                rows.append(scale_one(*first)[1])
        changes = np.abs(np.diff(rows, axis=0)).max(axis=1)
        assert np.any(changes[1:] > changes[:-1])
        plan = solve(prob, **DEFAULT_WEIGHTS)
        assert plan.converged and plan.iterations == plain.iterations
        np.testing.assert_allclose(plan.T, plain.T, rtol=0, atol=1e-9)

    def test_exhausted_scaling_reports_not_converged_with_exact_columns(self, monkeypatch):
        """Cut at two iterates, the scaling call reports no convergence; its
        closing column update still pins the anchor marginal, and so does
        every outer step of a solve made of such calls."""
        prob = default_problem(23)
        monkeypatch.setattr(transport, "_MAX_INNER", 2)
        t, _, _, inner_ok, iterates = scale_one(*first_scaling_args(prob, **DEFAULT_WEIGHTS))
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
        solve of each stops at the same iterate in both domains: its
        potentials agree to 1e-13, where one more or one fewer iterate at
        the 1e-11 potential test moves them by about 1e-11.

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
            assert kernel_first[3] == log_first[3], case
            for got, want in zip(kernel_first[:3], log_first[:3]):
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
        """Every cost sits near 20, so the first step's kernel exponents lie
        near -105 and its column scalings climb from 0 towards +100. One
        frame's prior mass is about exp(-1.1 * range): its row scaling starts
        inside the kernel range (the first relaxed iterate puts it near -287)
        and follows the columns out of it partway through the first outer
        step. That scaling call reruns in the log domain from its warm start:
        every call that takes logsumexp returns what the same call returns in
        the log domain, bit for bit, and counts the kernel iterates it
        completed before the leave beside its log-domain ones. The solve
        agrees with the log-domain solve to 1e-12."""
        rng = np.random.default_rng(16)
        p = np.ones(7)
        p[0] = np.exp(-1.1 * transport._KERNEL_RANGE)
        prob = OtProblem(C_k=20.0 + rng.uniform(0, 1, (7, 3)), p_hat=p / p.sum())
        weights = {"alpha": 0.5, "gamma": 3.0, "epsilon": 0.1}
        calls = count_logsumexp(monkeypatch)
        in_range = []  # per kernel iterate of the current call: whether it stayed in range
        kernel_step = transport._kernel_step

        def spied_step(*args):
            out = kernel_step(*args)
            in_range.append(bool(np.all(out[-1])))
            return out

        scaling = transport._scaling_iterations
        records = []

        def recorded_scaling(*args):
            del calls[:], in_range[:]
            out = scaling(*args)
            records.append((args, out, bool(calls), in_range[:]))
            return out

        monkeypatch.setattr(transport, "_kernel_step", spied_step)
        monkeypatch.setattr(transport, "_scaling_iterations", recorded_scaling)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = solve(prob, **weights)
        monkeypatch.setattr(transport, "_scaling_iterations", scaling)
        # The first call leaves the kernel range after some kernel iterates.
        assert records[0][2] and 0 < records[0][3].index(False)
        for args, (t, f, g, inner_ok, iterates, _), rerun, steps in records:
            completed = steps.index(False) if False in steps else len(steps)
            if not rerun:
                assert int(iterates[0]) == completed
                continue
            logd = in_log_domain(monkeypatch, scaling, *args)
            for got, want in zip((t, f, g, inner_ok), logd[:4]):
                assert got.tobytes() == want.tobytes()
            assert int(iterates[0]) == completed + int(logd[4][0])
        assert plan.scaling_iterates == sum(int(out[4][0]) for _, out, _, _ in records)
        logd = in_log_domain(monkeypatch, solve, prob, **weights)
        assert plan.converged and logd.converged and plan.iterations == logd.iterations
        np.testing.assert_allclose(plan.T, logd.T, rtol=0, atol=1e-12)

    def test_column_scaling_leaving_range_falls_back_mid_call(self, monkeypatch):
        """Column 0 costs about 20.45, so its kernel exponents sit near -204.5,
        inside the range. The rows are all but balanced (gamma = 1e6): as the
        row scalings settle, column 0's exponent climbs from about 206 past
        the range on the fourth iterate while every row exponent stays below
        110. That iterate passes the row test and fails the column one, and
        the whole call reruns in the log domain from its warm start: it
        returns the log-domain call's plan, potentials and convergence flag
        bit for bit, and counts the three kernel iterates it completed."""
        rng = np.random.default_rng(13)
        f_v, epsilon = 7, 0.1
        cost = np.stack([20.45 + 0.01 * rng.uniform(0, 1, f_v), -rng.uniform(0, 1, f_v)], axis=1)
        p = rng.random(f_v) + 0.1
        args = (cost[None], np.log(p / p.sum())[None], -np.log(2), 1e6, epsilon,
                np.zeros((1, f_v)), np.zeros((1, 2)))
        calls = count_logsumexp(monkeypatch)
        kernel_steps = []
        kernel_step = transport._kernel_step
        with monkeypatch.context() as m:
            m.setattr(transport, "_kernel_step",
                      lambda *a: kernel_steps.append(1) or kernel_step(*a))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mixed = scale_one(*args)
        n_mixed = len(calls)
        calls.clear()
        logd = in_log_domain(monkeypatch, scale_one, *args)
        # The kernel iterates completed before the leave, then the whole call
        # again by logsumexp.
        n_kernel = len(kernel_steps) - 1
        assert n_kernel == 3 and n_mixed == len(calls) > 0
        # After the kernel iterates both exponents are in range; the next
        # iterate takes the column exponent, and only it, out of range.
        out_of_range = []
        for n in (n_kernel, n_kernel + 1):
            with monkeypatch.context() as m:
                m.setattr(transport, "_MAX_INNER", n)
                _, f, g, _, _ = in_log_domain(monkeypatch, scale_one, *args)
            out_of_range.append(
                tuple(bool(np.abs(x / epsilon).max() > transport._KERNEL_RANGE) for x in (f, g))
            )
        assert out_of_range == [(False, False), (False, True)]
        assert mixed[3] == logd[3] and mixed[4] == n_kernel + logd[4]
        for got, want in zip(mixed[:3], logd[:3]):
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
    and alpha = 1, each at 40 frames; gamma = 3 with a 7 x 3 problem whose
    potentials leave the kernel range partway through its first scaling
    call, which then reruns in the log domain, while its 7 x 3 batch-mate
    stays in the kernel domain; and the default weights across two lengths
    and two anchor counts, with a 6 x 3 problem whose NaN cost ends its
    solve in a NumericalError beside a 6 x 3 mate that solves."""
    rng = np.random.default_rng(16)
    p = np.ones(7)
    p[0] = np.exp(-1.1 * transport._KERNEL_RANGE)
    handover = OtProblem(C_k=20.0 + rng.uniform(0, 1, (7, 3)), p_hat=p / p.sum())
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
        ({**DEFAULT_WEIGHTS, "gamma": 3.0}, [handover, mate]),
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
        # The hand-over and the NaN cost take the log domain; their mates do not.
        assert log_domain == [False] * 6 + [True, False] + [False, True, False, False]
        assert everyone[9] == ("error", "non-finite scaling potentials")
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
