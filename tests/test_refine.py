"""Sliding-window self-attention refinement."""

import numpy as np
import pytest

from saliseg.data import FrameFeatures, PipelineConfig, save_features
from saliseg.errors import ConfigError, DataError
from saliseg.pipeline import stage_refine
from saliseg.refine import RefineConfig, refine_features, window_attention
from saliseg.synth import SynthSpec, generate_corpus


def brute_force_refine(x, windows, ln_eps=1e-5):
    """Independent reference: enumerate every window, average, normalize, add."""
    n, d = x.shape
    acc = np.zeros_like(x)
    count = np.zeros(n)
    for w in windows:
        if w > n:
            continue
        for i in range(n - w + 1):
            seg = x[i : i + w]
            logits = seg @ seg.T / np.sqrt(d)
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            acc[i : i + w] += weights @ seg
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
        np.testing.assert_allclose(window_attention(x), x, atol=1e-12)

    def test_singleton_window(self):
        v = np.array([[3.0, -1.0]])
        np.testing.assert_allclose(window_attention(v), v, atol=0)

    def test_sharpens_to_self_for_scaled_basis_rows(self):
        c = 8.0
        x = np.array([[c, 0.0], [0.0, c]])
        # Direct 2x2 evaluation: diagonal logit c^2/sqrt(2), off-diagonal 0.
        z = c * c / np.sqrt(2)
        w_off = np.exp(-z) / (1.0 + np.exp(-z))
        w_self = 1.0 / (1.0 + np.exp(-z))
        expected = np.array([[w_self * c, w_off * c], [w_off * c, w_self * c]])
        np.testing.assert_allclose(window_attention(x), expected, rtol=1e-12)
        np.testing.assert_allclose(window_attention(x), x, atol=1e-6)


class TestRefineFeatures:
    def test_constant_features_pass_through_exactly(self):
        x = np.full((12, 3), 2.5)
        cfg = RefineConfig(windows=(2, 4))
        np.testing.assert_array_equal(refine_features(x, cfg), x)

    def test_single_frame_video_unchanged(self):
        x = np.array([[1.0, -2.0, 3.0]])
        cfg = RefineConfig(windows=(2, 3))
        np.testing.assert_array_equal(refine_features(x, cfg), x)

    def test_matches_brute_force_overlap_enumeration(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        cfg = RefineConfig(windows=(2,))
        got = refine_features(x, cfg)
        want = brute_force_refine(x, (2,))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_brute_force_multiscale(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(17, 5))
        cfg = RefineConfig(windows=(2, 5, 9))
        np.testing.assert_allclose(
            refine_features(x, cfg), brute_force_refine(x, (2, 5, 9)), atol=1e-10
        )

    def test_coverage_counts_f4_w2(self):
        # Three windows of size 2 over four frames cover with counts 1,2,2,1;
        # verified implicitly by the brute-force match, explicitly here.
        x = np.eye(4)
        cfg = RefineConfig(windows=(2,))
        got = refine_features(x, cfg)
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
            refine_features(x, RefineConfig(windows=(2, 4)))
        with pytest.raises(DataError, match="non-finite feature values"):
            refine_features(np.array([[np.nan, 1.0]]), RefineConfig(windows=(2,)))

    def test_video_without_valid_frames_passes_through(self):
        x = np.zeros((0, 3))
        assert refine_features(x, RefineConfig(windows=(2, 3))).shape == (0, 3)

    def test_oversized_window_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        with caplog.at_level("WARNING"):
            got = refine_features(x, RefineConfig(windows=(3, 8)))
        assert any("skipped" in r.message for r in caplog.records)
        np.testing.assert_allclose(got, refine_features(x, RefineConfig(windows=(3,))), atol=0)

    def test_bit_exact_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 6))
        cfg = RefineConfig(windows=(4, 8))
        a = refine_features(x, cfg)
        b = refine_features(x, cfg)
        assert a.tobytes() == b.tobytes()

    def test_output_shape_matches_input(self):
        x = np.random.default_rng(5).normal(size=(9, 4))
        assert refine_features(x, RefineConfig(windows=(2, 3))).shape == x.shape

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RefineConfig(windows=(1, 4))
        with pytest.raises(ConfigError):
            RefineConfig(windows=(4, 4))
        with pytest.raises(ConfigError, match="must be an integer"):
            RefineConfig(windows=(8.5, 32))


class TestBoundarySharpening:
    def test_refined_transitions_larger_across_event_boundaries(self):
        """Boundary-transition statistic over a synthetic corpus.

        The mean L2 jump between consecutive frames that straddle an event
        boundary should not shrink after refinement.
        """
        corpus = generate_corpus(SynthSpec(n_videos=6, noise_sigma=0.1, seed=9))
        cfg = RefineConfig(windows=(8, 32, 64))
        raw_jumps, refined_jumps = [], []
        for f, ann in zip(corpus.features, corpus.annotations):
            x = f.encoded.astype(np.float64)
            xr = refine_features(f.encoded, cfg)
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
