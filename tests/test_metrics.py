"""Localization metrics against exhaustive references."""

import itertools

import numpy as np
import pytest

from saliseg.errors import DataError
from saliseg.metrics import (
    evaluate_corpus,
    iou,
    localization_prf,
    segment_quality,
)

THRESHOLDS = (0.3, 0.5, 0.7, 0.9)


def brute_prf(pred, gt, thresholds=THRESHOLDS):
    """Exhaustive double-loop reference for precision/recall at thresholds."""
    out = {}
    for t in thresholds:
        tp_pred = 0
        for p in pred:
            best = 0.0
            for g in gt:
                best = max(best, iou(p, g))
            if best >= t:
                tp_pred += 1
        tp_gt = 0
        for g in gt:
            best = 0.0
            for p in pred:
                best = max(best, iou(p, g))
            if best >= t:
                tp_gt += 1
        out[t] = (
            tp_pred / len(pred) if pred else 0.0,
            tp_gt / len(gt) if gt else 0.0,
        )
    return out


def brute_optimal_matching(pred, gt):
    """Largest one-to-one matching with IoU >= 0.5, by exhaustive search."""
    edges = [
        (i, j) for i in range(len(pred)) for j in range(len(gt)) if iou(pred[i], gt[j]) >= 0.5
    ]
    best = 0
    for r in range(min(len(pred), len(gt)), 0, -1):
        for combo in itertools.combinations(edges, r):
            ps = [e[0] for e in combo]
            gs = [e[1] for e in combo]
            if len(set(ps)) == r and len(set(gs)) == r:
                return r
    return best


def random_intervals(rng, n, horizon=40):
    out = []
    for _ in range(n):
        s = int(rng.integers(0, horizon - 1))
        e = int(rng.integers(s + 1, min(s + 12, horizon) + 1))
        out.append((s, e))
    return out


class TestIou:
    def test_hand_case(self):
        np.testing.assert_allclose(iou((0, 10), (5, 15)), 1 / 3, atol=1e-12)

    def test_identical(self):
        assert iou((3, 9), (3, 9)) == 1.0

    def test_half_open_adjacency_disjoint(self):
        assert iou((0, 2), (2, 4)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = random_intervals(rng, 2)
            assert iou(a, b) == iou(b, a)

    def test_empty_interval_rejected(self):
        with pytest.raises(DataError, match="empty interval"):
            iou((3, 3), (0, 1))

    def test_growth_toward_target_monotone(self):
        target = (10, 20)
        prev = 0.0
        for e in range(11, 21):
            val = iou((10, e), target)
            assert val >= prev
            prev = val


class TestLocalizationPrf:
    def test_perfect_match(self):
        gt = [(0, 5), (8, 12)]
        rep = localization_prf(gt, gt)
        assert rep.precision == rep.recall == rep.f1 == 1.0
        for t in THRESHOLDS:
            assert rep.per_threshold[t]["f1"] == 1.0

    def test_single_pair_one_third_iou(self):
        rep = localization_prf([(0, 10)], [(5, 15)])
        np.testing.assert_allclose(rep.precision, 0.25, atol=1e-12)
        np.testing.assert_allclose(rep.recall, 0.25, atol=1e-12)
        np.testing.assert_allclose(rep.f1, 0.25, atol=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pred = random_intervals(rng, int(rng.integers(1, 6)))
            gt = random_intervals(rng, int(rng.integers(1, 5)))
            rep = localization_prf(pred, gt)
            ref = brute_prf(pred, gt)
            for t in THRESHOLDS:
                assert rep.per_threshold[t]["precision"] == ref[t][0]
                assert rep.per_threshold[t]["recall"] == ref[t][1]
            np.testing.assert_allclose(
                rep.precision, np.mean([ref[t][0] for t in THRESHOLDS]), atol=1e-12
            )

    def test_empty_predictions_flagged_zero_precision(self):
        rep = localization_prf([], [(0, 4)])
        assert rep.precision == 0.0
        assert "empty_pred" in rep.flags

    def test_empty_gt_flagged(self):
        rep = localization_prf([(0, 4)], [])
        assert "empty_gt" in rep.flags
        assert rep.recall == 0.0


class TestSegmentQuality:
    def test_perfect(self):
        gt = [(0, 5), (8, 12), (20, 30)]
        r05, miou, matched = segment_quality(gt, gt)
        assert (r05, miou, matched) == (1.0, 1.0, 3)

    def test_covers_first_of_two(self):
        r05, miou, matched = segment_quality([(0, 4)], [(0, 4), (10, 14)])
        assert (r05, miou, matched) == (0.5, 0.5, 1)

    def test_greedy_differs_from_per_gt_max(self):
        # Pairs above 0.5 sorted: (0.8 p0-g0), (0.8 p0-g1), (0.75 p1-g0).
        # Greedy takes p0-g0 and then both sides are blocked; the optimal
        # pairing p0-g1 + p1-g0 would match 2. Recall@0.5 still sees both
        # events covered (per-gt max), so the three statistics disagree here.
        pred = [(0, 10), (0, 6)]
        gt = [(0, 8), (2, 10)]
        assert iou(pred[0], gt[0]) == 0.8 and iou(pred[0], gt[1]) == 0.8
        assert iou(pred[1], gt[0]) == 0.75 and iou(pred[1], gt[1]) == 0.4
        r05, _, matched = segment_quality(pred, gt)
        assert matched == 1
        assert brute_optimal_matching(pred, gt) == 2
        assert r05 == 1.0

    def test_matched_vs_optimal_oracle(self):
        rng = np.random.default_rng(2)
        diffs = 0
        for _ in range(60):
            pred = random_intervals(rng, int(rng.integers(1, 5)), horizon=24)
            gt = random_intervals(rng, int(rng.integers(1, 5)), horizon=24)
            _, _, matched = segment_quality(pred, gt)
            optimal = brute_optimal_matching(pred, gt)
            assert matched <= optimal
            if matched != optimal:
                diffs += 1
        # Greedy is optimal on almost all random instances.
        assert diffs <= 5

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pred = random_intervals(rng, int(rng.integers(1, 5)))
            gt = random_intervals(rng, int(rng.integers(1, 5)))
            r05, miou, matched = segment_quality(pred, gt)
            assert 0.0 <= r05 <= 1.0
            assert 0.0 <= miou <= 1.0
            assert matched <= min(len(pred), len(gt))


class TestCorpusAggregation:
    def test_uniform_video_weighting(self):
        per_video = {
            "a": ([(0, 4)], [(0, 4)]),
            "b": ([(0, 4)], [(10, 14)]),
        }
        corpus, reports = evaluate_corpus(per_video)
        np.testing.assert_allclose(corpus.precision, 0.5, atol=1e-12)
        np.testing.assert_allclose(corpus.mean_iou, 0.5, atol=1e-12)
        assert reports["a"].f1 == 1.0 and reports["b"].f1 == 0.0

    def test_every_corpus_f1_is_the_harmonic_mean_of_its_row(self):
        # Per video the F1s are 2/3 and 2/3 at every threshold, while the
        # corpus precision and recall are 0.75 each.
        per_video = {
            "a": ([(0, 4)], [(0, 4), (10, 14)]),
            "b": ([(0, 4), (20, 24)], [(0, 4)]),
        }
        corpus, reports = evaluate_corpus(per_video)
        assert corpus.f1 == 0.75
        for t in THRESHOLDS:
            assert corpus.per_threshold[t] == {"precision": 0.75, "recall": 0.75, "f1": 0.75}
            assert reports["a"].per_threshold[t]["f1"] == pytest.approx(2 / 3)

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        items = {
            f"v{i}": (random_intervals(rng, 3), random_intervals(rng, 3))
            for i in range(6)
        }
        shuffled = dict(reversed(list(items.items())))
        a, _ = evaluate_corpus(items)
        b, _ = evaluate_corpus(shuffled)
        assert a == b

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            evaluate_corpus({})
