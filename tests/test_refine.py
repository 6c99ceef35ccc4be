"""Sliding-window self-attention refinement."""

import tracemalloc

import numpy as np
import pytest

from saliseg import refine
from saliseg.data import FrameFeatures, PipelineConfig, save_features
from saliseg.errors import ConfigError, DataError
from saliseg.pipeline import stage_refine
from saliseg.refine import ROWS, check_windows, refine_features, window_attention
from saliseg.synth import SynthSpec, generate_corpus


def brute_force_window_sums(x, w):
    """Independent reference: every length-w window's attention output, summed per frame."""
    n, d = x.shape
    acc = np.zeros_like(x)
    for i in range(n - w + 1):
        seg = x[i : i + w]
        logits = seg @ seg.T / np.sqrt(d)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        acc[i : i + w] += weights @ seg
    return acc


def brute_force_refine(x, windows, ln_eps=1e-5):
    """Independent reference: enumerate every window, average, normalize, add."""
    n = len(x)
    acc = np.zeros_like(x)
    count = np.zeros(n)
    for w in windows:
        if w > n:
            continue
        acc += brute_force_window_sums(x, w)
        for i in range(n - w + 1):
            count[i : i + w] += 1
    out = x.copy()
    covered = count > 0
    avg = acc[covered] / count[covered, None]
    mean = avg.mean(axis=1, keepdims=True)
    var = avg.var(axis=1, keepdims=True)
    out[covered] = x[covered] + (avg - mean) / np.sqrt(var + ln_eps)
    return out


class TestWindowAttention:
    def test_identical_rows_map_to_themselves(self):
        v = np.array([1.5, -2.0, 0.25])
        x = np.tile(v, (4, 1))
        np.testing.assert_allclose(window_attention(x, (len(x),)), x, atol=1e-12)

    def test_singleton_window(self):
        v = np.array([[3.0, -1.0]])
        np.testing.assert_allclose(window_attention(v, (1,)), v, atol=0)

    def test_sharpens_to_self_for_scaled_basis_rows(self):
        c = 8.0
        x = np.array([[c, 0.0], [0.0, c]])
        # Direct 2x2 evaluation: diagonal logit c^2/sqrt(2), off-diagonal 0.
        z = c * c / np.sqrt(2)
        w_off = np.exp(-z) / (1.0 + np.exp(-z))
        w_self = 1.0 / (1.0 + np.exp(-z))
        expected = np.array([[w_self * c, w_off * c], [w_off * c, w_self * c]])
        np.testing.assert_allclose(window_attention(x, (2,)), expected, rtol=1e-12)
        np.testing.assert_allclose(window_attention(x, (2,)), x, atol=1e-6)

    @pytest.mark.parametrize("w", [0, 6])
    def test_window_outside_the_rows_rejected(self, w):
        with pytest.raises(ConfigError, match=f"window size {w} must be between 1 and the row count 5"):
            window_attention(np.ones((5, 3)), (w,))

    @pytest.mark.parametrize("scale", [1000.0, 2000.0])
    def test_underflowing_window_falls_back_to_direct_rows(self, monkeypatch, scale):
        # Row `row` is e1 and row `row` + w - 1 is scale * e1: its band
        # maximum is its logit against that far row, so its windows that miss
        # it have normalizers below 2**-900 (exactly 0 at scale 2000). The
        # row sits in a video shorter than one block, then in a block whose
        # windows all lie inside the video.
        w = 4
        direct, original = [], refine._direct_row

        def spy(rows, size, i):
            direct.append(i)
            return original(rows, size, i)

        monkeypatch.setattr(refine, "_direct_row", spy)
        for n, row in ((12, 3), (3 * ROWS, ROWS + 10)):
            x = np.zeros((n, 2))
            x[:, 1] = np.random.default_rng(6).normal(size=n)
            x[row] = [1.0, 0.0]
            x[row + w - 1] = [scale, 0.0]
            direct.clear()
            np.testing.assert_allclose(window_attention(x, (w,)), brute_force_window_sums(x, w), rtol=0, atol=1e-12)
            assert direct == [row]
            np.testing.assert_allclose(
                refine_features(x, (w,)), brute_force_refine(x, (w,)), rtol=0, atol=1e-12
            )

    def test_widest_band_maximum_sends_a_small_window_to_direct_rows(self, monkeypatch):
        # Row `row` is e1, and the rows d before and after it are 1000 * e1.
        # Its widest band holds them, so their logit is its maximum; no
        # window of size 2 <= d holds them, so those normalizers underflow,
        # while every window of size 5 >= 2 * d holds one. Alone, size 2
        # never falls back. The row sits in a short video, then in a block
        # whose windows all lie inside the video.
        small, wide, d = 2, 5, 2
        direct, original = [], refine._direct_row

        def spy(rows, size, i):
            direct.append((size, i))
            return original(rows, size, i)

        monkeypatch.setattr(refine, "_direct_row", spy)
        for n, row in ((12, 4), (3 * ROWS, ROWS + 10)):
            x = np.zeros((n, 2))
            x[:, 1] = np.random.default_rng(8).normal(size=n)
            x[row] = [1.0, 0.0]
            x[[row - d, row + d]] = [1000.0, 0.0]
            direct.clear()
            window_attention(x, (small,))
            assert direct == []
            np.testing.assert_allclose(
                refine_features(x, (small, wide)), brute_force_refine(x, (small, wide)), rtol=0, atol=1e-12
            )
            assert direct == [(small, row)]

    def test_sizes_sum_in_one_pass(self):
        x = np.random.default_rng(9).normal(size=(40, 5))
        want = sum(brute_force_window_sums(x, w) for w in (1, 3, 8, 40))
        np.testing.assert_allclose(window_attention(x, (1, 3, 8, 40)), want, rtol=0, atol=1e-12)
        with pytest.raises(ConfigError, match="at least one window size"):
            window_attention(x, ())

    @pytest.mark.parametrize("n", [1600, 6400])
    def test_temporaries_bounded_independent_of_length(self, n):
        x = np.random.default_rng(7).normal(size=(n, 32))
        tracemalloc.start()
        try:
            out = window_attention(x, (8, 32, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 2**20


class TestRefineFeatures:
    def test_constant_features_pass_through_exactly(self):
        x = np.full((12, 3), 2.5)
        np.testing.assert_array_equal(refine_features(x, (2, 4)), x)

    def test_single_frame_video_unchanged(self):
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(refine_features(x, (2, 3)), x)

    def test_matches_brute_force_overlap_enumeration(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        got = refine_features(x, (2,))
        want = brute_force_refine(x, (2,))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_brute_force_multiscale(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(17, 5))
        np.testing.assert_allclose(
            refine_features(x, (2, 5, 9)), brute_force_refine(x, (2, 5, 9)), atol=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS - 1, 2 * ROWS + 1, 300])
    def test_matches_brute_force_across_block_edges(self, n):
        x = np.random.default_rng(n).normal(size=(n, 6))
        for windows in [(2,), (ROWS - 1,), (ROWS,), (ROWS + 1,), (2, ROWS - 1, ROWS + 1), (8, 32, 64), (n,)]:
            if windows[0] < 2:
                continue
            got = refine_features(x, windows)
            np.testing.assert_allclose(got, brute_force_refine(x, windows), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, want", [(100, [(8, 32, 64)]), (40, [(8, 32)]), (8, [(8,)]), (7, [])])
    def test_one_window_attention_call_per_video(self, monkeypatch, n, want):
        calls, original = [], refine.window_attention

        def spy(x, windows):
            calls.append(windows)
            return original(x, windows)

        monkeypatch.setattr(refine, "window_attention", spy)
        refine_features(np.random.default_rng(n).normal(size=(n, 4)), (8, 32, 64))
        assert calls == want

    def test_coverage_counts_f4_w2(self):
        # Three windows of size 2 over four frames cover with counts 1,2,2,1;
        # verified implicitly by the brute-force match, explicitly here.
        x = np.eye(4)
        got = refine_features(x, (2,))
        want = brute_force_refine(x, (2,))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_padded_rows_unchanged_and_excluded(self, tmp_path):
        # Padding ends at the reader: a padded file refines as its valid rows
        # alone, and the refined file is padded back with zero rows.
        valid = np.random.default_rng(2).normal(size=(6, 3)).astype(np.float32)
        (tmp_path / "in").mkdir()
        save_features(FrameFeatures("v", valid, valid, n_frames=10), tmp_path / "in" / "v.sfeat")
        (out,) = stage_refine(tmp_path / "in", tmp_path / "out", PipelineConfig(windows=(3,)))
        body = np.frombuffer(out.read_bytes()[28:], dtype="<f4").reshape(2, 10, 3)
        np.testing.assert_array_equal(body[:, 6:], 0.0)
        np.testing.assert_array_equal(body[0, :6], valid)
        np.testing.assert_allclose(
            body[1, :6], brute_force_refine(valid.astype(np.float64), (3,)), atol=1e-6
        )

    def test_rejects_non_finite_once_for_every_window(self):
        x = np.ones((12, 2))
        x[7, 1] = np.nan
        with pytest.raises(DataError, match="non-finite feature values"):
            refine_features(x, (2, 4))
        with pytest.raises(DataError, match="non-finite feature values"):
            refine_features(np.array([[np.nan, 1.0]]), (2,))

    def test_video_without_valid_frames_passes_through(self):
        x = np.zeros((0, 3))
        assert refine_features(x, (2, 3)).shape == (0, 3)

    def test_oversized_window_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        with caplog.at_level("WARNING"):
            got = refine_features(x, (3, 8))
        assert any("skipped" in r.message for r in caplog.records)
        np.testing.assert_allclose(got, refine_features(x, (3,)), atol=0)

    def test_bit_exact_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 6))
        a = refine_features(x, (4, 8))
        b = refine_features(x, (4, 8))
        assert a.tobytes() == b.tobytes()

    def test_output_shape_matches_input(self):
        x = np.random.default_rng(5).normal(size=(9, 4))
        assert refine_features(x, (2, 3)).shape == x.shape

    def test_config_validation(self):
        x = np.ones((40, 2))
        for windows, message in (((1, 4), ">= 2"), ((4, 4), "strictly increasing"),
                                 ((8.5, 32), "must be an integer")):
            with pytest.raises(ConfigError, match=message):
                check_windows(windows)
            with pytest.raises(ConfigError, match=message):
                refine_features(x, windows)
        assert check_windows([2, np.int64(5)]) == (2, 5)


class TestBoundarySharpening:
    def test_refined_transitions_larger_across_event_boundaries(self):
        """Boundary-transition statistic over a synthetic corpus.

        The mean L2 jump between consecutive frames that straddle an event
        boundary should not shrink after refinement.
        """
        corpus = generate_corpus(SynthSpec(n_videos=6, noise_sigma=0.1, seed=9))
        raw_jumps, refined_jumps = [], []
        for f, ann in zip(corpus.features, corpus.annotations):
            x = f.encoded.astype(np.float64)
            xr = refine_features(f.encoded, (8, 32, 64))
            boundaries = set()
            for s, e in ann.events:
                if s > 0:
                    boundaries.add(s)
                if e < f.valid_len:
                    boundaries.add(e)
            for b in boundaries:
                raw_jumps.append(np.linalg.norm(x[b] - x[b - 1]))
                refined_jumps.append(np.linalg.norm(xr[b] - xr[b - 1]))
        assert np.mean(refined_jumps) >= np.mean(raw_jumps)
