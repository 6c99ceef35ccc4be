"""Prompt projection and decoder-input assembly."""

import struct

import numpy as np
import pytest

from saliseg.errors import DataError
from saliseg.prompts import (
    PromptMap,
    assemble_input,
    init_prompt_map,
    load_decoder_input,
    project_saliency,
    save_decoder_input,
)


class TestProjectSaliency:
    def test_zero_scores_give_bias_rows(self):
        pm = PromptMap(w_map=np.array([1.0, 2.0]), b_map=np.array([3.0, 4.0]))
        out = project_saliency(np.zeros(3), pm)
        np.testing.assert_array_equal(out, np.tile([3.0, 4.0], (3, 1)))

    def test_zero_weight_ignores_scores(self):
        pm = PromptMap(w_map=np.zeros(2), b_map=np.array([1.0, -1.0]))
        out = project_saliency(np.array([5.0, -7.0]), pm)
        np.testing.assert_array_equal(out, np.tile([1.0, -1.0], (2, 1)))

    def test_linear_map(self):
        pm = PromptMap(w_map=np.array([1.0, 0.0]), b_map=np.zeros(2))
        out = project_saliency(np.array([1.0, 2.0]), pm)
        np.testing.assert_array_equal(out, [[1.0, 0.0], [2.0, 0.0]])

    def test_affine_combination_identity(self):
        rng = np.random.default_rng(0)
        pm = PromptMap(w_map=rng.normal(size=4), b_map=rng.normal(size=4))
        p = rng.normal(size=6)
        q = rng.normal(size=6)
        bias = np.tile(pm.b_map, (6, 1))
        for a, b in ((0.3, 0.7), (2.0, -1.0), (0.0, 1.0)):
            lhs = project_saliency(a * p + b * q, pm)
            rhs = (
                a * project_saliency(p, pm)
                + b * project_saliency(q, pm)
                - (a + b - 1) * bias
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestAssembleInput:
    def test_offsets_and_shape(self):
        d = 3
        xp = np.ones((2, d))
        prompts = 2 * np.ones((2, d))
        retrieval = 3 * np.ones((1, d))
        text = 4 * np.ones((1, d))
        out = assemble_input(xp, prompts, retrieval, text)
        assert out.sequence.shape == (6, d)
        assert out.offsets == (0, 2, 4, 5)
        np.testing.assert_array_equal(out.section(0), xp)
        np.testing.assert_array_equal(out.section(1), prompts)
        np.testing.assert_array_equal(out.section(2), retrieval)
        np.testing.assert_array_equal(out.section(3), text)

    def test_empty_text_section(self):
        d = 2
        out = assemble_input(np.ones((3, d)), np.ones((3, d)), np.ones((2, d)), np.zeros((0, d)))
        assert out.sequence.shape == (8, d)
        assert out.lengths == (3, 3, 2, 0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DataError, match="width"):
            assemble_input(np.ones((2, 3)), np.ones((2, 3)), np.ones((1, 4)), np.zeros((0, 3)))

    def test_sections_recover_inputs_exactly(self):
        rng = np.random.default_rng(1)
        parts = [rng.normal(size=(n, 5)) for n in (4, 4, 2, 3)]
        out = assemble_input(*parts)
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(out.section(i), part)


class TestDecoderInputIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        parts = [rng.normal(size=(n, 4)).astype(np.float32).astype(np.float64) for n in (5, 5, 2, 1)]
        out = assemble_input(*parts)
        path = tmp_path / "v.stin"
        save_decoder_input(out, path)
        loaded = load_decoder_input(path)
        assert loaded.lengths == out.lengths
        assert loaded.offsets == out.offsets
        np.testing.assert_array_equal(loaded.sequence, out.sequence)

    def test_truncated_rejected(self, tmp_path):
        out = assemble_input(np.ones((2, 2)), np.ones((2, 2)), np.ones((1, 2)), np.zeros((0, 2)))
        path = tmp_path / "v.stin"
        save_decoder_input(out, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="truncated"):
            load_decoder_input(path)

    # signalling NaN, quiet NaN, +inf as the last float32 value
    @pytest.mark.parametrize("bits", [0x7F800001, 0x7FC00000, 0x7F800000])
    def test_non_finite_value_is_data_error(self, tmp_path, bits):
        out = assemble_input(np.ones((2, 2)), np.ones((2, 2)), np.ones((1, 2)), np.zeros((0, 2)))
        path = tmp_path / "v.stin"
        save_decoder_input(out, path)
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", bits))
        with pytest.raises(DataError, match="non-finite"):
            load_decoder_input(path)


def test_init_prompt_map_deterministic():
    a = init_prompt_map(8, seed=3)
    b = init_prompt_map(8, seed=3)
    np.testing.assert_array_equal(a.w_map, b.w_map)
    np.testing.assert_array_equal(a.b_map, 0.0)
