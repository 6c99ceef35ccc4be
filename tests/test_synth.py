"""Synthetic corpus generator: determinism, ground truth, separability."""

import numpy as np
import pytest

from saliseg.data import dataclass_from_json
from saliseg.errors import ConfigError
from saliseg.synth import SynthSpec, generate_corpus, write_corpus


def nearest_prototype_accuracy(corpus):
    """Fraction of event frames whose nearest prototype is the generating one."""
    protos = corpus.prototypes
    correct = total = 0
    for f, ann, truth in zip(corpus.features, corpus.annotations, corpus.truth):
        for (s, e), cid in zip(ann.events, truth.concepts):
            want = int(cid[1:])
            rows = f.spatial[s:e].astype(np.float64)
            d = np.linalg.norm(rows[:, None, :] - protos[None, :, :], axis=2)
            got = np.argmin(d, axis=1)
            correct += int(np.sum(got == want))
            total += rows.shape[0]
    return correct / total


class TestGeneration:
    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = SynthSpec(n_videos=4, seed=5)
        write_corpus(generate_corpus(spec), tmp_path / "a")
        write_corpus(generate_corpus(spec), tmp_path / "b")
        files_a = sorted((tmp_path / "a").rglob("*"))
        files_b = sorted((tmp_path / "b").rglob("*"))
        assert [p.name for p in files_a if p.is_file()] == [
            p.name for p in files_b if p.is_file()
        ]
        for pa, pb in zip(files_a, files_b):
            if pa.is_file():
                assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_noiseless_event_frames_equal_prototypes(self):
        corpus = generate_corpus(SynthSpec(n_videos=2, noise_sigma=0.0, seed=1))
        for f, ann, truth in zip(corpus.features, corpus.annotations, corpus.truth):
            for (s, e), cid in zip(ann.events, truth.concepts):
                proto = corpus.prototypes[int(cid[1:])].astype(np.float32)
                np.testing.assert_array_equal(f.spatial[s:e], np.tile(proto, (e - s, 1)))

    def test_annotations_fit_and_gap_between_events(self):
        corpus = generate_corpus(SynthSpec(n_videos=12, seed=2))
        for f, ann in zip(corpus.features, corpus.annotations):
            assert ann.valid_len == f.valid_len
            prev_end = None
            for s, e in ann.events:
                assert 0 <= s < e <= ann.valid_len
                if prev_end is not None:
                    assert s >= prev_end + 1
                prev_end = e

    def test_distinct_concepts_within_video(self):
        corpus = generate_corpus(SynthSpec(n_videos=8, seed=3))
        for truth in corpus.truth:
            assert len(set(truth.concepts)) == len(truth.concepts)

    def test_datastore_has_one_entry_per_concept(self):
        spec = SynthSpec(n_videos=2, n_caption_concepts=9, events_per_video=(3, 5),
                         event_len=(5, 8), seed=4)
        corpus = generate_corpus(spec)
        assert len(corpus.datastore) == 9
        for i in range(9):
            np.testing.assert_allclose(
                corpus.datastore.embeddings[i].astype(np.float64),
                corpus.prototypes[i],
                atol=1e-6,
            )

    def test_padded_videos_present(self):
        corpus = generate_corpus(SynthSpec(n_videos=6, F=50, seed=5))
        lens = {f.valid_len for f in corpus.features}
        assert 50 in lens and 40 in lens
        assert {f.n_frames for f in corpus.features} == {50}

    def test_nearest_prototype_accuracy_high_at_low_noise(self):
        corpus = generate_corpus(SynthSpec(n_videos=10, noise_sigma=0.05, seed=6))
        assert nearest_prototype_accuracy(corpus) >= 0.99

    def test_separability_decreases_with_noise(self):
        accs = [
            nearest_prototype_accuracy(
                generate_corpus(SynthSpec(n_videos=10, noise_sigma=s, seed=7))
            )
            for s in (0.05, 0.4, 0.8)
        ]
        assert accs[0] > accs[1] > accs[2]

    def test_background_fraction_near_default_target(self):
        corpus = generate_corpus(SynthSpec(n_videos=20, seed=8))
        covered = total = 0
        for ann in corpus.annotations:
            covered += sum(e - s for s, e in ann.events)
            total += ann.valid_len
        background = 1 - covered / total
        assert 0.2 < background < 0.45

    def test_orthonormal_prototypes(self):
        corpus = generate_corpus(SynthSpec(n_videos=1, seed=9))
        basis = np.vstack([corpus.prototypes, corpus.background])
        gram = basis @ basis.T
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)


class TestSpecValidation:
    def test_infeasible_event_length(self):
        with pytest.raises(ConfigError):
            SynthSpec(F=10, event_len=(11, 12))

    def test_concepts_must_cover_events(self):
        with pytest.raises(ConfigError):
            SynthSpec(events_per_video=(3, 9), n_caption_concepts=5)

    def test_dimension_must_fit_prototypes(self):
        with pytest.raises(ConfigError):
            SynthSpec(D=5, n_caption_concepts=12)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ConfigError, match="noise_sigma"):
            SynthSpec(noise_sigma=sigma)

    def test_spec_json_round_trip(self):
        spec = dataclass_from_json(
            SynthSpec,
            '{"n_videos": 3, "F": 60, "D": 16, "events_per_video": [2, 3],'
            ' "event_len": [4, 6], "noise_sigma": 0.1, "n_caption_concepts": 6,'
            ' "seed": 12}'
        )
        assert spec.n_videos == 3 and spec.events_per_video == (2, 3)

    @pytest.mark.parametrize(
        "overrides",
        [{"n_videos": 2.5}, {"F": True}, {"D": 32.0}, {"n_caption_concepts": 12.0},
         {"seed": 1.5}, {"event_len": (8.5, 11)}, {"events_per_video": (6, True)}],
    )
    def test_integer_fields_take_integers(self, overrides):
        with pytest.raises(ConfigError, match="must be an integer"):
            SynthSpec(**overrides)
        spec = SynthSpec(n_videos=np.int64(3), event_len=(np.int32(8), 11))
        assert (spec.n_videos, spec.event_len) == (3, (8, 11))

    def test_spec_json_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            dataclass_from_json(SynthSpec, '{"n_videos": 3, "bogus": 1}')
