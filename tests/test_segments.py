"""Segment decoding, scoring, selection, pooling, baselines."""

import itertools

import numpy as np
import pytest

from saliseg.data import save_records
from saliseg.errors import DataError
from saliseg.segments import (
    Segment,
    SegmentSet,
    baseline_kmeans,
    baseline_uniform,
    decode_segments,
    load_segments,
    pool_segment_features,
    score_segments,
    segments_to_doc,
    select_topk,
)


def plan_from_assignments(assign, k):
    t = np.zeros((len(assign), k))
    t[np.arange(len(assign)), assign] = 1.0
    t /= t.sum()
    return t


def spans(segs):
    return [(s.anchor_id, s.start, s.end) for s in segs.segments]


class TestDecode:
    def test_run_length_encoding(self):
        segs = decode_segments(plan_from_assignments([0, 0, 1, 1, 1, 2], 3))
        assert spans(segs) == [(0, 0, 2), (1, 2, 5), (2, 5, 6)]

    def test_constant_assignment_single_segment(self):
        segs = decode_segments(plan_from_assignments([0] * 7, 2))
        assert spans(segs) == [(0, 0, 7)]

    def test_alternation_gives_singletons(self):
        segs = decode_segments(plan_from_assignments([0, 1, 0, 1], 2))
        assert spans(segs) == [(0, 0, 1), (1, 1, 2), (0, 2, 3), (1, 3, 4)]

    def test_argmax_ties_break_low(self):
        t = np.full((3, 2), 0.25)
        segs = decode_segments(t)
        assert spans(segs) == [(0, 0, 3)]

    def test_matches_reference_run_length(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            assign = rng.integers(0, 3, size=int(rng.integers(1, 25)))
            expected, start = [], 0
            for label, run in itertools.groupby(assign.tolist()):
                n = len(list(run))
                expected.append((label, start, start + n))
                start += n
            assert spans(decode_segments(plan_from_assignments(assign, 3))) == expected

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f, k = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            t = rng.random((f, k))
            segs = decode_segments(t)
            assert segs.segments[0].start == 0
            assert segs.segments[-1].end == f
            for a, b in zip(segs.segments, segs.segments[1:]):
                assert a.end == b.start


class TestScoring:
    def test_uniform_plan_arithmetic(self):
        # S_OT = (3 * 1/6) / 3 = 1/6 and S_len = log(1 + 3) = log 4.
        t = np.full((6, 1), 1 / 6)
        segs = SegmentSet(segments=(Segment(0, 0, 3), Segment(0, 3, 6)))
        scored = score_segments(segs, t)
        np.testing.assert_allclose(scored.segments[0].score, np.log(4) / 6, atol=1e-15)
        np.testing.assert_allclose(scored.segments[1].score, np.log(4) / 6, atol=1e-15)

    def test_singleton_length_score(self):
        # A one-frame segment carrying all the mass scores 1 * log 2.
        t = np.array([[1.0]])
        scored = score_segments(SegmentSet(segments=(Segment(0, 0, 1),)), t)
        np.testing.assert_allclose(scored.segments[0].score, np.log(2), atol=1e-15)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(1)
        t = rng.random((8, 3))
        segs = decode_segments(t)
        scored = score_segments(segs, t)
        for seg in scored.segments:
            mass = 0.0
            for i in range(seg.start, seg.end):
                mass += float(t[i, seg.anchor_id])
            s_ot = mass / (seg.end - seg.start)
            s_len = float(np.log(1 + (seg.end - seg.start)))
            np.testing.assert_allclose(seg.score, s_ot * s_len, atol=1e-12)

    def test_monotone_in_own_mass(self):
        t = np.random.default_rng(2).random((6, 2))
        segs = score_segments(decode_segments(t), t)
        seg = segs.segments[0]
        t2 = t.copy()
        t2[seg.start : seg.end, seg.anchor_id] += 0.5
        rescored = score_segments(segs, t2)
        assert rescored.segments[0].score > seg.score


class TestSelection:
    def make(self, scores):
        segments = []
        start = 0
        for i, s in enumerate(scores):
            seg = Segment(anchor_id=i, start=start, end=start + 2, score=s)
            segments.append(seg)
            start += 2
        return SegmentSet(segments=tuple(segments))

    def test_top2_reported_in_temporal_order(self):
        segs = select_topk(self.make([0.3, 0.9, 0.1]), 2)
        assert segs.selected == (0, 1)

    def test_tie_breaks_to_earlier(self):
        segs = select_topk(self.make([0.5, 0.5, 0.5]), 1)
        assert segs.selected == (0,)

    def test_k_exceeding_count_selects_all(self):
        segs = select_topk(self.make([0.1] * 5), 8)
        assert segs.selected == (0, 1, 2, 3, 4)


class TestPooling:
    def test_uniform_weights_mean(self):
        xs = np.arange(12.0).reshape(4, 3)
        seg = Segment(0, 1, 4)
        got = pool_segment_features(seg, xs, np.ones(4))
        np.testing.assert_allclose(got, xs[1:4].mean(axis=0), atol=1e-12)

    def test_one_hot_weights_pick_frame(self):
        xs = np.arange(12.0).reshape(4, 3)
        p = np.array([0.0, 0.0, 1.0, 0.0])
        got = pool_segment_features(Segment(0, 1, 4), xs, p)
        np.testing.assert_allclose(got, xs[2], atol=1e-12)

    def test_zero_mass_falls_back_to_mean(self, caplog):
        xs = np.arange(6.0).reshape(2, 3)
        with caplog.at_level("WARNING"):
            got = pool_segment_features(Segment(0, 0, 2), xs, np.zeros(2))
        np.testing.assert_allclose(got, xs.mean(axis=0), atol=1e-12)
        assert any("uniform pooling" in r.message for r in caplog.records)

    def test_result_in_convex_hull(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 2))
        p = rng.random(5)
        got = pool_segment_features(Segment(0, 0, 5), xs, p)
        assert xs.min(axis=0)[0] - 1e-12 <= got[0] <= xs.max(axis=0)[0] + 1e-12
        assert xs.min(axis=0)[1] - 1e-12 <= got[1] <= xs.max(axis=0)[1] + 1e-12


class TestBaselineUniform:
    def test_exact_division(self):
        segs = baseline_uniform(10, 5)
        assert [s.length for s in segs.segments] == [2, 2, 2, 2, 2]

    def test_remainder_to_earliest(self):
        segs = baseline_uniform(7, 3)
        assert [s.length for s in segs.segments] == [3, 2, 2]

    def test_all_singletons(self):
        segs = baseline_uniform(3, 3)
        assert [s.length for s in segs.segments] == [1, 1, 1]
        assert segs.selected == (0, 1, 2)

    def test_k_larger_than_frames_rejected(self):
        with pytest.raises(DataError):
            baseline_uniform(2, 3)


class TestBaselineKmeans:
    def test_recovers_well_separated_blocks(self):
        rng = np.random.default_rng(4)
        a = np.array([5.0, 0.0])
        b = np.array([0.0, 5.0])
        xs = np.concatenate(
            [a + 0.05 * rng.normal(size=(6, 2)), b + 0.05 * rng.normal(size=(6, 2))]
        )
        segs = baseline_kmeans(xs, 2, seed=0)
        assert [(s.start, s.end) for s in segs.segments] == [(0, 6), (6, 12)]

    def test_identical_features_documented_reseed(self):
        # All rows identical: the empty second cluster captures one frame by
        # the documented re-seed rule, leaving a singleton plus the rest.
        xs = np.ones((8, 3))
        segs = baseline_kmeans(xs, 2, seed=0)
        assert len(segs.segments) == 2
        assert sorted(s.length for s in segs.segments) == [1, 7]
        again = baseline_kmeans(xs, 2, seed=0)
        assert spans_equal(segs, again)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(20, 4))
        a = baseline_kmeans(xs, 3, seed=7, video_id="v")
        b = baseline_kmeans(xs, 3, seed=7, video_id="v")
        assert spans_equal(a, b)

    def test_interleaved_labels_fragment(self):
        # Feature order a, b, a gives three run-length segments.
        a = np.array([5.0, 0.0])
        b = np.array([0.0, 5.0])
        xs = np.stack([a, a, b, b, a, a])
        segs = baseline_kmeans(xs, 2, seed=0)
        assert len(segs.segments) == 3


def spans_equal(a, b):
    return [(s.anchor_id, s.start, s.end) for s in a.segments] == [
        (s.anchor_id, s.start, s.end) for s in b.segments
    ]


class TestSegmentsIO:
    def test_round_trip(self, tmp_path):
        t = np.random.default_rng(6).random((9, 3))
        segs = select_topk(score_segments(decode_segments(t), t), 2)
        path = tmp_path / "segments.jsonl"
        save_records([segments_to_doc("v1", segs)], path)
        loaded = load_segments(path)
        assert set(loaded) == {"v1"}
        assert loaded["v1"].selected == segs.selected
        assert [(s.start, s.end) for s in loaded["v1"].segments] == [
            (s.start, s.end) for s in segs.segments
        ]

    @pytest.mark.parametrize("baseline", ["plan", "uniform", "kmeans"])
    def test_load_equals_saved_set(self, tmp_path, baseline):
        # Every field of every segment survives the file, scores included.
        rng = np.random.default_rng(7)
        if baseline == "plan":
            t = rng.random((12, 3))
            segs = select_topk(score_segments(decode_segments(t), t), 2)
        elif baseline == "uniform":
            segs = baseline_uniform(11, 3)
        else:
            segs = select_topk(baseline_kmeans(rng.normal(size=(12, 4)), 3, seed=1), 2)
        path = tmp_path / "segments.jsonl"
        save_records([segments_to_doc("v1", segs)], path)
        assert load_segments(path) == {"v1": segs}

    @pytest.mark.parametrize(
        "field, value",
        [("anchor", 1.0), ("start", 2.5), ("end", 6.0), ("end", True), ("selected", 1.0)],
    )
    def test_non_integer_bound_is_data_error(self, tmp_path, field, value):
        doc = segments_to_doc("v1", baseline_uniform(9, 3))
        if field == "selected":
            doc["selected"] = [0, value]
        else:
            doc["segments"][1][field] = value
        path = tmp_path / "segments.jsonl"
        save_records([doc], path)
        with pytest.raises(DataError, match=f"v1: bad segments record: {field} must be an integer"):
            load_segments(path)

    @pytest.mark.parametrize("selected", [[0, 99], [-1], [1, 0], [2, 2]])
    def test_bad_selection_is_data_error(self, tmp_path, selected):
        doc = segments_to_doc("v1", baseline_uniform(9, 3))
        doc["selected"] = selected
        path = tmp_path / "segments.jsonl"
        save_records([doc], path)
        with pytest.raises(DataError, match="strictly increasing indices into 3 segments"):
            load_segments(path)
