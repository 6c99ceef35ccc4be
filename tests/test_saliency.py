"""Saliency head: pooling, scoring, loss, analytic gradients, training."""

import numpy as np
import pytest

from saliseg.data import PipelineConfig
from saliseg.errors import DataError
from saliseg.saliency import (
    SaliencyExample,
    SaliencyHead,
    attention_pool,
    init_head,
    load_head,
    masked_softmax,
    saliency_forward,
    saliency_grad,
    saliency_loss,
    saliency_prior,
    save_head,
    train_saliency,
)


def random_head(dim, tau=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return SaliencyHead(
        w_pool=rng.normal(size=dim),
        W1=rng.normal(size=(dim, dim)),
        W2=rng.normal(size=(dim, dim)),
        tau=tau,
    )


def composed_loss(head, xp, mask, labels):
    out = saliency_forward(head, xp, mask)
    return saliency_loss(out.scores, labels, mask, head.tau)


def fd_gradients(head, xp, mask, labels, h=1e-4):
    """Central finite differences through the full composed loss."""
    grads = {}
    for name in ("w_pool", "W1", "W2"):
        base = getattr(head, name)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = head.copy()
            getattr(plus, name)[idx] += h
            minus = head.copy()
            getattr(minus, name)[idx] -= h
            g[idx] = (
                composed_loss(plus, xp, mask, labels)
                - composed_loss(minus, xp, mask, labels)
            ) / (2 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestAttentionPool:
    def test_identical_rows_pool_to_row(self):
        v = np.array([0.5, -1.0, 2.0])
        xp = np.tile(v, (4, 1))
        mask = np.ones(4)
        pooled, weights = attention_pool(xp, mask, np.array([3.0, 1.0, -2.0]))
        np.testing.assert_allclose(pooled, v, atol=1e-12)
        np.testing.assert_allclose(weights, 0.25, atol=1e-12)

    def test_zero_query_gives_masked_mean(self):
        rng = np.random.default_rng(0)
        xp = rng.normal(size=(5, 3))
        mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        pooled, weights = attention_pool(xp, mask, np.zeros(3))
        np.testing.assert_allclose(pooled, xp[:3].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(weights[:3], 1 / 3, atol=1e-12)
        np.testing.assert_array_equal(weights[3:], 0.0)

    def test_strong_query_concentrates(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        xp = np.stack([e1, e2, e1])
        pooled, weights = attention_pool(xp, np.ones(3), e1 * 10)
        assert weights[0] + weights[2] > 0.99
        np.testing.assert_allclose(pooled, e1, atol=0.01)

    def test_all_masked_errors(self):
        with pytest.raises(DataError, match="all frames masked"):
            attention_pool(np.ones((2, 2)), np.zeros(2), np.zeros(2))


class TestSaliencyForward:
    def test_identity_head_unit_rows(self):
        d = 4
        head = SaliencyHead(np.zeros(d), np.eye(d), np.eye(d), tau=0.5)
        xp = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (3, 1))
        out = saliency_forward(head, xp, np.ones(3))
        np.testing.assert_allclose(out.scores, 0.5, atol=1e-12)

    def test_zero_w1_zeroes_scores(self):
        d = 3
        head = SaliencyHead(np.ones(d), np.zeros((d, d)), np.eye(d), tau=1.0)
        xp = np.random.default_rng(1).normal(size=(4, d))
        out = saliency_forward(head, xp, np.ones(4))
        np.testing.assert_array_equal(out.scores, 0.0)

    def test_matches_independent_dot_product_reference(self):
        rng = np.random.default_rng(2)
        d, n = 3, 5
        head = random_head(d, seed=2)
        xp = rng.normal(size=(n, d))
        mask = np.ones(n)
        out = saliency_forward(head, xp, mask)
        # Second implementation: scalar loops, no matrix algebra.
        logits = np.array([float(np.dot(row, head.w_pool)) / np.sqrt(d) for row in xp])
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        pooled = sum(w[i] * xp[i] for i in range(n))
        expected = np.array(
            [
                float(np.dot(head.W1 @ xp[i], head.W2 @ pooled)) / np.sqrt(d)
                for i in range(n)
            ]
        )
        np.testing.assert_allclose(out.scores, expected, atol=1e-12)


class TestSaliencyLoss:
    def test_symmetric_two_frames(self):
        loss = saliency_loss(np.array([3.3, 3.3]), np.array([1.0, 0.0]), np.ones(2), 0.7)
        np.testing.assert_allclose(loss, np.log(2), atol=1e-12)

    def test_uniform_three_frames(self):
        loss = saliency_loss(np.zeros(3), np.array([1, 1, 0.0]), np.ones(3), 1.0)
        np.testing.assert_allclose(loss, np.log(3), atol=1e-12)

    def test_masked_third_frame_closed_form(self):
        scores = np.array([10.0, 0.0, 0.0])
        labels = np.array([1.0, 0.0, 0.0])
        mask = np.array([1.0, 1.0, 0.0])
        loss = saliency_loss(scores, labels, mask, 0.5)
        # The log-sum-exp path loses relative precision near 2e-9; absolute
        # agreement at 1e-14 pins the closed form tightly enough.
        np.testing.assert_allclose(loss, np.log1p(np.exp(-20.0)), rtol=1e-6, atol=1e-14)

    def test_empty_highlight_set_errors(self):
        with pytest.raises(DataError, match="empty highlight set"):
            saliency_loss(np.zeros(3), np.zeros(3), np.ones(3), 1.0)

    def test_loss_nonnegative_and_vanishes_for_dominant_highlight(self):
        scores = np.array([60.0, 0.0, 0.0])
        loss = saliency_loss(scores, np.array([1.0, 0, 0]), np.ones(3), 1.0)
        assert 0 <= loss < 1e-12

    def test_masked_scores_do_not_affect_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            scores = rng.normal(size=n)
            mask = (rng.random(n) < 0.7).astype(float)
            mask[0] = 1.0
            labels = (rng.random(n) < 0.5).astype(float) * mask
            labels[0] = 1.0
            tau = float(rng.uniform(0.2, 2.0))
            base = saliency_loss(scores, labels, mask, tau)
            bumped = scores.copy()
            bumped[mask == 0] += rng.normal(size=int((mask == 0).sum())) * 100
            np.testing.assert_allclose(
                saliency_loss(bumped, labels, mask, tau), base, rtol=1e-12
            )

    def test_listwise_competition(self):
        scores = np.array([1.0, 0.0, -1.0])
        labels = np.array([1.0, 0.0, 0.0])
        mask = np.ones(3)
        base = saliency_loss(scores, labels, mask, 0.5)
        bumped = scores.copy()
        bumped[1] += 0.5
        assert saliency_loss(bumped, labels, mask, 0.5) > base

    def test_temperature_scale_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=6)
        mask = np.array([1, 1, 1, 1, 0, 0.0])
        for c in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(
                masked_softmax(c * scores, mask, c * 0.5),
                masked_softmax(scores, mask, 0.5),
                atol=1e-12,
            )


class TestSaliencyGrad:
    def test_symmetric_input_gives_zero_pool_gradient(self):
        d = 3
        head = random_head(d, seed=5)
        xp = np.tile(np.array([1.0, 2.0, -1.0]), (4, 1))
        grads = saliency_grad(head, xp, np.ones(4), np.ones(4))
        np.testing.assert_allclose(grads["w_pool"], 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        head = random_head(8, tau=0.5, seed=6)
        xp = rng.normal(size=(12, 8))
        mask = np.ones(12)
        mask[10:] = 0.0
        labels = np.zeros(12)
        labels[[1, 4, 7]] = 1.0
        analytic = saliency_grad(head, xp, mask, labels)
        numeric = fd_gradients(head, xp, mask, labels)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_tau_scaling_consistent_with_finite_differences(self):
        # With W1 = 0 all scores vanish; the W1 gradient then scales as 1/tau.
        rng = np.random.default_rng(7)
        d = 4
        xp = rng.normal(size=(6, d))
        mask = np.ones(6)
        labels = np.array([1.0, 0, 1, 0, 0, 0])
        w_pool = rng.normal(size=d)
        grads = {}
        for tau in (0.5, 1.0):
            head = SaliencyHead(w_pool.copy(), np.zeros((d, d)), np.eye(d), tau=tau)
            analytic = saliency_grad(head, xp, mask, labels)
            numeric = fd_gradients(head, xp, mask, labels)
            assert max_rel_error(analytic, numeric) < 1e-4
            grads[tau] = analytic["W1"]
        np.testing.assert_allclose(grads[0.5], 2.0 * grads[1.0], rtol=1e-9)

    def test_masked_frame_perturbation_leaves_gradients(self):
        rng = np.random.default_rng(8)
        head = random_head(5, seed=8)
        xp = rng.normal(size=(7, 5))
        mask = np.array([1, 1, 1, 1, 1, 0, 0.0])
        labels = np.array([1, 0, 1, 0, 0, 0, 0.0])
        base = saliency_grad(head, xp, mask, labels)
        xp2 = xp.copy()
        xp2[5:] += 100.0
        bumped = saliency_grad(head, xp2, mask, labels)
        for name in base:
            np.testing.assert_allclose(base[name], bumped[name], atol=1e-10)


class TestSaliencyPrior:
    def test_zero_scores(self):
        p_s, p_hat = saliency_prior(np.zeros(4), np.ones(4))
        np.testing.assert_allclose(p_s, 0.5, atol=0)
        np.testing.assert_allclose(p_hat, 0.25, atol=1e-15)

    def test_large_negative_score_vanishes(self):
        p_s, _ = saliency_prior(np.array([-50.0, 0.0]), np.ones(2))
        assert p_s[0] < 1e-20

    def test_normalized_variant_sums_to_one(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=8) * 3
        mask = np.array([1, 1, 1, 1, 1, 1, 0, 0.0])
        _, p_hat = saliency_prior(scores, mask)
        np.testing.assert_allclose(p_hat.sum(), 1.0, atol=1e-12)
        np.testing.assert_array_equal(p_hat[6:], 0.0)

    def test_all_masked_errors(self):
        with pytest.raises(DataError):
            saliency_prior(np.zeros(3), np.zeros(3))


def toy_corpus(n_videos=12, n_frames=20, dim=6, seed=0):
    """Linearly separable: event frames near e1, background near e2."""
    rng = np.random.default_rng(seed)
    examples = []
    for v in range(n_videos):
        labels = np.zeros(n_frames)
        start = int(rng.integers(0, n_frames - 8))
        labels[start : start + 8] = 1.0
        xp = np.where(
            labels[:, None] > 0,
            np.eye(dim)[0] * 2.0,
            np.eye(dim)[1] * 2.0,
        ) + 0.1 * rng.normal(size=(n_frames, dim))
        examples.append(
            SaliencyExample(f"t{v}", xp, np.ones(n_frames), labels)
        )
    return examples


class TestTraining:
    def test_zero_epochs_returns_initial_head(self):
        cfg = PipelineConfig()
        examples = toy_corpus()
        initial = init_head(6, cfg.tau, seed=cfg.seed)
        result = train_saliency(examples, cfg, epochs=0)
        np.testing.assert_array_equal(result.head.W1, initial.W1)
        np.testing.assert_array_equal(result.head.w_pool, initial.w_pool)

    def test_same_seed_bit_identical(self):
        cfg = PipelineConfig()
        examples = toy_corpus()
        a = train_saliency(examples, cfg, epochs=3, seed=5)
        b = train_saliency(examples, cfg, epochs=3, seed=5)
        assert a.head.W1.tobytes() == b.head.W1.tobytes()
        assert a.head.W2.tobytes() == b.head.W2.tobytes()
        assert a.head.w_pool.tobytes() == b.head.w_pool.tobytes()

    def test_separable_corpus_separates_scores(self):
        cfg = PipelineConfig()
        examples = toy_corpus(n_videos=16)
        train, held = examples[:12], examples[12:]
        result = train_saliency(train, cfg, epochs=15, seed=1)
        inside, outside = [], []
        for ex in held:
            scores = saliency_forward(result.head, ex.features, ex.mask).scores
            inside.extend(scores[ex.labels > 0])
            outside.extend(scores[ex.labels == 0])
        assert np.mean(inside) > np.mean(outside)

    def test_videos_without_highlights_skipped(self, caplog):
        cfg = PipelineConfig()
        examples = toy_corpus(n_videos=4)
        examples.append(
            SaliencyExample("empty", np.ones((5, 6)), np.ones(5), np.zeros(5))
        )
        with caplog.at_level("WARNING"):
            train_saliency(examples, cfg, epochs=1, seed=0)
        assert any("skipped" in r.message for r in caplog.records)

    def test_loss_curve_decreases(self):
        cfg = PipelineConfig()
        result = train_saliency(toy_corpus(), cfg, epochs=10, seed=2)
        assert result.loss_curve[-1] < result.loss_curve[0]


class TestCheckpointIO:
    def test_round_trip_exact_at_f32(self, tmp_path):
        head = init_head(5, tau=0.5, seed=3)
        path = tmp_path / "head.shd"
        save_head(head, path)
        loaded = load_head(path)
        np.testing.assert_array_equal(
            loaded.W1, head.W1.astype(np.float32).astype(np.float64)
        )
        assert loaded.tau == head.tau and loaded.dim == 5

    def test_truncated_checkpoint_errors(self, tmp_path):
        head = init_head(4, tau=0.5, seed=4)
        path = tmp_path / "head.shd"
        save_head(head, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_head(path)
