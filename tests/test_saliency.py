"""Saliency head: pooling, scoring, loss, analytic gradients, training."""

import struct
from dataclasses import replace

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
    saliency_forward,
    saliency_grad,
    saliency_loss,
    saliency_prior,
    save_head,
    softmax,
    train_saliency,
)
from saliseg.transport import build_problem, init_anchors


def random_head(dim, seed=0):
    rng = np.random.default_rng(seed)
    return SaliencyHead(
        w_pool=rng.normal(size=dim),
        W1=rng.normal(size=(dim, dim)),
        W2=rng.normal(size=(dim, dim)),
    )


def composed_loss(head, xp, labels, tau):
    out = saliency_forward(head, xp)
    return saliency_loss(out.scores, labels, tau)


def fd_gradients(head, xp, labels, tau, h=1e-4):
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
                composed_loss(plus, xp, labels, tau)
                - composed_loss(minus, xp, labels, tau)
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
        pooled, weights = attention_pool(xp, np.array([3.0, 1.0, -2.0]))
        np.testing.assert_allclose(pooled, v, atol=1e-12)
        np.testing.assert_allclose(weights, 0.25, atol=1e-12)

    def test_zero_query_gives_mean(self):
        rng = np.random.default_rng(0)
        xp = rng.normal(size=(5, 3))[:3]
        pooled, weights = attention_pool(xp, np.zeros(3))
        np.testing.assert_allclose(pooled, xp.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(weights, 1 / 3, atol=1e-12)

    def test_strong_query_concentrates(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        xp = np.stack([e1, e2, e1])
        pooled, weights = attention_pool(xp, e1 * 10)
        assert weights[0] + weights[2] > 0.99
        np.testing.assert_allclose(pooled, e1, atol=0.01)

    def test_no_frames_errors(self):
        with pytest.raises(DataError, match="no valid frames"):
            attention_pool(np.ones((0, 2)), np.zeros(2))
        with pytest.raises(DataError, match="no valid frames"):
            saliency_forward(init_head(2, seed=0), np.ones((0, 2)))


class TestSaliencyForward:
    def test_identity_head_unit_rows(self):
        d = 4
        head = SaliencyHead(np.zeros(d), np.eye(d), np.eye(d))
        xp = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (3, 1))
        out = saliency_forward(head, xp)
        np.testing.assert_allclose(out.scores, 0.5, atol=1e-12)

    def test_zero_w1_zeroes_scores(self):
        d = 3
        head = SaliencyHead(np.ones(d), np.zeros((d, d)), np.eye(d))
        xp = np.random.default_rng(1).normal(size=(4, d))
        out = saliency_forward(head, xp)
        np.testing.assert_array_equal(out.scores, 0.0)

    def test_matches_independent_dot_product_reference(self):
        rng = np.random.default_rng(2)
        d, n = 3, 5
        head = random_head(d, seed=2)
        xp = rng.normal(size=(n, d))
        out = saliency_forward(head, xp)
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
        loss = saliency_loss(np.array([3.3, 3.3]), np.array([1.0, 0.0]), 0.7)
        np.testing.assert_allclose(loss, np.log(2), atol=1e-12)

    def test_uniform_three_frames(self):
        loss = saliency_loss(np.zeros(3), np.array([1, 1, 0.0]), 1.0)
        np.testing.assert_allclose(loss, np.log(3), atol=1e-12)

    def test_two_frame_closed_form(self):
        scores = np.array([10.0, 0.0])
        labels = np.array([1.0, 0.0])
        loss = saliency_loss(scores, labels, 0.5)
        # The log-sum-exp path loses relative precision near 2e-9; absolute
        # agreement at 1e-14 pins the closed form tightly enough.
        np.testing.assert_allclose(loss, np.log1p(np.exp(-20.0)), rtol=1e-6, atol=1e-14)

    def test_empty_highlight_set_errors(self):
        with pytest.raises(DataError, match="empty highlight set"):
            saliency_loss(np.zeros(3), np.zeros(3), 1.0)
        with pytest.raises(DataError, match="empty highlight set"):
            saliency_grad(init_head(2, seed=0), np.ones((2, 2)), np.array([0.0, 0]), 1.0)

    def test_loss_nonnegative_and_vanishes_for_dominant_highlight(self):
        scores = np.array([60.0, 0.0, 0.0])
        loss = saliency_loss(scores, np.array([1.0, 0, 0]), 1.0)
        assert 0 <= loss < 1e-12

    def test_labels_must_match_scores(self):
        with pytest.raises(DataError, match="3 labels for 2 scores"):
            saliency_loss(np.zeros(2), np.array([1.0, 0, 0]), 1.0)

    def test_listwise_competition(self):
        scores = np.array([1.0, 0.0, -1.0])
        labels = np.array([1.0, 0.0, 0.0])
        base = saliency_loss(scores, labels, 0.5)
        bumped = scores.copy()
        bumped[1] += 0.5
        assert saliency_loss(bumped, labels, 0.5) > base

    def test_temperature_scale_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=6)[:4]
        for c in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(
                softmax(c * scores, c * 0.5),
                softmax(scores, 0.5),
                atol=1e-12,
            )


class TestSaliencyGrad:
    def test_symmetric_input_gives_zero_pool_gradient(self):
        d = 3
        head = random_head(d, seed=5)
        xp = np.tile(np.array([1.0, 2.0, -1.0]), (4, 1))
        _, grads = saliency_grad(head, xp, np.ones(4), 0.5)
        np.testing.assert_allclose(grads["w_pool"], 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        head = random_head(8, seed=6)
        xp = rng.normal(size=(12, 8))
        labels = np.zeros(12)
        labels[[1, 4, 7]] = 1.0
        _, analytic = saliency_grad(head, xp[:10], labels[:10], 0.5)
        numeric = fd_gradients(head, xp[:10], labels[:10], 0.5)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_tau_scaling_consistent_with_finite_differences(self):
        # With W1 = 0 all scores vanish; the W1 gradient then scales as 1/tau.
        rng = np.random.default_rng(7)
        d = 4
        xp = rng.normal(size=(6, d))
        labels = np.array([1.0, 0, 1, 0, 0, 0])
        w_pool = rng.normal(size=d)
        grads = {}
        for tau in (0.5, 1.0):
            head = SaliencyHead(w_pool.copy(), np.zeros((d, d)), np.eye(d))
            _, analytic = saliency_grad(head, xp, labels, tau)
            numeric = fd_gradients(head, xp, labels, tau)
            assert max_rel_error(analytic, numeric) < 1e-4
            grads[tau] = analytic["W1"]
        np.testing.assert_allclose(grads[0.5], 2.0 * grads[1.0], rtol=1e-9)

    def test_loss_is_the_loss_of_the_same_forward_pass(self):
        rng = np.random.default_rng(9)
        head = random_head(5, seed=9)
        xp = rng.normal(size=(7, 5))
        labels = np.array([1, 0, 1, 0, 0, 0, 1.0])
        loss, _ = saliency_grad(head, xp[:6], labels[:6], 0.5)
        assert loss == composed_loss(head, xp[:6], labels[:6], 0.5)


class TestSaliencyPrior:
    def test_zero_scores(self):
        p_s = saliency_prior(np.zeros(4))
        np.testing.assert_allclose(p_s, 0.5, atol=0)

    def test_large_negative_score_vanishes(self):
        p_s = saliency_prior(np.array([-50.0, 0.0]))
        assert p_s[0] < 1e-20

    def test_normalized_variant_sums_to_one(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=8) * 3
        p_s = saliency_prior(scores[:6])
        # The transport problem is the one place that normalizes the prior.
        xs = rng.normal(size=(6, 3))
        prob = build_problem(xs, init_anchors(xs, 2, 0, "v"), p_s, 0.5, 0.3, 0.1, 0.1)
        np.testing.assert_allclose(prob.p_hat.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(prob.p_hat, p_s / p_s.sum(), rtol=1e-15)

    def test_non_finite_scores_error(self):
        with pytest.raises(DataError, match="non-finite saliency scores"):
            saliency_prior(np.array([0.0, np.nan]))


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
            SaliencyExample(f"t{v}", xp, labels)
        )
    return examples


class TestTraining:
    def test_zero_epochs_returns_initial_head(self):
        cfg = PipelineConfig()
        examples = toy_corpus()
        initial = init_head(6, seed=cfg.seed)
        result = train_saliency(examples, cfg, epochs=0)
        np.testing.assert_array_equal(result.head.W1, initial.W1)
        np.testing.assert_array_equal(result.head.w_pool, initial.w_pool)

    def test_same_seed_bit_identical(self):
        cfg = PipelineConfig()
        examples = toy_corpus()
        a = train_saliency(examples, replace(cfg, seed=5), epochs=3)
        b = train_saliency(examples, replace(cfg, seed=5), epochs=3)
        assert a.head.W1.tobytes() == b.head.W1.tobytes()
        assert a.head.W2.tobytes() == b.head.W2.tobytes()
        assert a.head.w_pool.tobytes() == b.head.w_pool.tobytes()

    def test_separable_corpus_separates_scores(self):
        cfg = PipelineConfig()
        examples = toy_corpus(n_videos=16)
        train, held = examples[:12], examples[12:]
        result = train_saliency(train, replace(cfg, seed=1), epochs=15)
        inside, outside = [], []
        for ex in held:
            scores = saliency_forward(result.head, ex.features).scores
            inside.extend(scores[ex.labels > 0])
            outside.extend(scores[ex.labels == 0])
        assert np.mean(inside) > np.mean(outside)

    def test_videos_without_highlights_skipped(self, caplog):
        cfg = PipelineConfig()
        examples = toy_corpus(n_videos=4)
        examples.append(
            SaliencyExample("empty", np.ones((5, 6)), np.zeros(5))
        )
        with caplog.at_level("WARNING"):
            train_saliency(examples, replace(cfg, seed=0), epochs=1)
        assert any("skipped" in r.message for r in caplog.records)

    @pytest.mark.parametrize("valid_len", [0, 2], ids=["valid_len_0", "no_valid_highlight"])
    def test_no_valid_highlight_skipped(self, caplog, valid_len):
        examples = toy_corpus(n_videos=4)
        skipped = SaliencyExample("empty", np.ones((valid_len, 6)), np.zeros(valid_len))
        with caplog.at_level("WARNING"):
            result = train_saliency(examples + [skipped], PipelineConfig(), epochs=2)
        assert "empty: no highlight frames, skipped for training" in caplog.text
        assert result.state.step == 2 * len(examples)

    def test_one_forward_pass_per_step(self, monkeypatch):
        import saliseg.saliency

        calls = []
        forward = saliseg.saliency.saliency_forward
        monkeypatch.setattr(
            saliseg.saliency, "saliency_forward", lambda *a: calls.append(1) or forward(*a)
        )
        examples = toy_corpus(n_videos=5)
        examples.append(SaliencyExample("empty", np.ones((5, 6)), np.zeros(5)))
        result = train_saliency(examples, PipelineConfig(), epochs=3)
        assert len(calls) == result.state.step == 3 * 5

    def test_non_finite_loss_returns_last_finite_head(self, caplog):
        # A NaN feature makes the first loss NaN, quietly: no RuntimeWarning
        # (an error under this suite's warning filter) and no step taken.
        x = np.random.default_rng(3).normal(size=(6, 4))
        x[2, 1] = np.nan
        example = SaliencyExample("nan", x, np.array([1.0, 0, 0, 1, 0, 0]))
        cfg = PipelineConfig()
        with caplog.at_level("ERROR"):
            result = train_saliency([example], cfg, epochs=2)
        assert "diverged" in caplog.text
        assert result.state.step == 0 and result.loss_curve == []
        np.testing.assert_array_equal(result.head.W1, init_head(4, seed=cfg.seed).W1)

    def test_loss_curve_decreases(self):
        cfg = PipelineConfig()
        result = train_saliency(toy_corpus(), replace(cfg, seed=2), epochs=10)
        assert result.loss_curve[-1] < result.loss_curve[0]

    def test_divergence_returns_last_finite_head_and_it_saves(self, tmp_path, caplog):
        # The first update moves every weight by about the learning rate, far
        # beyond the float32 range of the checkpoint: training must hand back
        # the head before that update, and its checkpoint must load.
        cfg = PipelineConfig()
        with caplog.at_level("ERROR"):
            result = train_saliency(toy_corpus(n_videos=4), cfg, epochs=3, learning_rate=1e300)
        assert any("diverged" in r.message for r in caplog.records)
        initial = init_head(6, seed=cfg.seed)
        np.testing.assert_array_equal(result.head.W1, initial.W1)
        np.testing.assert_array_equal(result.head.W2, initial.W2)
        path = tmp_path / "head.shd"
        save_head(result.head, path)
        loaded = load_head(path)
        np.testing.assert_array_equal(loaded.W1, initial.W1.astype(np.float32))


class TestCheckpointIO:
    def test_round_trip_exact_at_f32(self, tmp_path):
        head = init_head(5, seed=3)
        path = tmp_path / "head.shd"
        save_head(head, path)
        loaded = load_head(path)
        np.testing.assert_array_equal(
            loaded.W1, head.W1.astype(np.float32).astype(np.float64)
        )
        assert loaded.dim == 5
        assert path.read_bytes().startswith(b'{"D": 5}\n')

    # signalling NaN, quiet NaN, +inf as the last float32 weight
    @pytest.mark.parametrize("bits", [0x7F800001, 0x7FC00000, 0x7F800000])
    def test_non_finite_weight_is_data_error(self, tmp_path, bits):
        path = tmp_path / "head.shd"
        save_head(init_head(3, seed=0), path)
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", bits))
        with pytest.raises(DataError, match="non-finite"):
            load_head(path)

    def test_older_checkpoint_with_tau_scores_identically(self, tmp_path):
        # Older checkpoints stored the loss temperature in the header; it is
        # ignored on load, whatever its value.
        head = init_head(6, seed=7)
        path = tmp_path / "head.shd"
        save_head(head, path)
        raw = path.read_bytes()
        body = raw[raw.index(b"\n") :]
        xp = np.random.default_rng(7).normal(size=(9, 6))[:8]
        expected = saliency_forward(load_head(path), xp).scores
        for header in (b'{"D": 6, "tau": 0.5}', b'{"D": 6, "tau": NaN}', b'{"D": 6, "tau": "x"}'):
            path.write_bytes(header + body)
            loaded = load_head(path)
            np.testing.assert_array_equal(saliency_forward(loaded, xp).scores, expected)

    def test_truncated_checkpoint_errors(self, tmp_path):
        head = init_head(4, seed=4)
        path = tmp_path / "head.shd"
        save_head(head, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_head(path)
