"""End-to-end pipeline, stage isolation, CLI contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from saliseg.cli import main
from saliseg.data import FrameFeatures, PipelineConfig, load_features, save_config, save_features
from saliseg.errors import DataError
from saliseg.pipeline import (
    run_pipeline,
    stage_assemble,
    stage_eval,
    stage_refine,
    stage_retrieve,
    stage_score_saliency,
    stage_segment,
    train_saliency_from_files,
)
from saliseg.prompts import load_decoder_input
from saliseg.synth import SynthSpec, generate_corpus, write_corpus


CFG = PipelineConfig(windows=(4, 8), K=4, top_k=3, top_p=2, seed=13)
SPEC = SynthSpec(
    n_videos=4,
    F=40,
    D=12,
    events_per_video=(2, 3),
    event_len=(5, 8),
    noise_sigma=0.05,
    n_caption_concepts=6,
    seed=13,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(generate_corpus(SPEC), root)
    return root


@pytest.fixture(scope="module")
def head_path(corpus_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("head") / "head.shd"
    train_saliency_from_files(
        corpus_dir / "features", corpus_dir / "annotations.jsonl", CFG, path,
        epochs=4, seed=13,
    )
    return path


@pytest.fixture(scope="module")
def saliency_path(corpus_dir, head_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("scored")
    stage_refine(corpus_dir / "features", root / "refined", CFG)
    return stage_score_saliency(root / "refined", head_path, CFG, root / "saliency.jsonl")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestPipeline:
    def test_smoke_artifacts_exist(self, corpus_dir, head_path, tmp_path):
        out = tmp_path / "run"
        report = run_pipeline(
            CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, out,
        )
        for name in ("saliency.jsonl", "segments.jsonl", "retrieval.jsonl",
                     "report.json", "report.txt", "manifest.json"):
            assert (out / name).exists(), name
        assert (out / "refined").is_dir() and (out / "tin").is_dir()
        assert 0.0 <= report.mean_iou <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = set(manifest["files"])
        actual = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert listed == actual

    def test_reruns_byte_identical(self, corpus_dir, head_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_pipeline(
                CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
                corpus_dir / "datastore.sds", head_path, out,
            )
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_stagewise_equals_monolithic(self, corpus_dir, head_path, tmp_path):
        mono = tmp_path / "mono"
        run_pipeline(
            CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, mono,
        )
        chained = tmp_path / "chained"
        chained.mkdir()
        stage_refine(corpus_dir / "features", chained / "refined", CFG)
        stage_score_saliency(chained / "refined", head_path, CFG, chained / "saliency.jsonl")
        stage_segment(
            corpus_dir / "features", chained / "saliency.jsonl", CFG,
            chained / "segments.jsonl",
        )
        stage_retrieve(
            corpus_dir / "features", chained / "saliency.jsonl",
            chained / "segments.jsonl", corpus_dir / "datastore.sds", CFG,
            chained / "retrieval.jsonl",
        )
        stage_assemble(
            chained / "refined", chained / "saliency.jsonl",
            chained / "retrieval.jsonl", CFG, chained / "tin",
        )
        stage_eval(
            chained / "segments.jsonl", corpus_dir / "annotations.jsonl",
            chained / "report.json", chained / "report.txt",
        )
        mono_tree = tree_bytes(mono)
        mono_tree.pop("manifest.json")
        assert mono_tree == tree_bytes(chained)

    def test_baseline_swap_changes_segments_not_contract(self, corpus_dir, head_path, tmp_path):
        out = tmp_path / "uniform"
        report = run_pipeline(
            CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, out, baseline="uniform",
        )
        assert 0.0 <= report.mean_iou <= 1.0
        doc = json.loads((out / "segments.jsonl").read_text().splitlines()[0])
        assert len(doc["segments"]) == CFG.top_k

    def test_dump_plan_written(self, corpus_dir, head_path, tmp_path):
        out = tmp_path / "plans"
        run_pipeline(
            CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, out, dump_plan=True,
        )
        plan_files = sorted((out / "plans").glob("*.json"))
        assert len(plan_files) == SPEC.n_videos
        doc = json.loads(plan_files[0].read_text())
        assert len(doc["T"]) == doc["F_v"] * doc["K"]
        t = np.array(doc["T"]).reshape(doc["F_v"], doc["K"])
        np.testing.assert_allclose(t.sum(), 1.0, atol=1e-9)

    def test_decoder_input_sections(self, corpus_dir, head_path, tmp_path):
        out = tmp_path / "tin_run"
        run_pipeline(
            CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, out,
        )
        stin = sorted((out / "tin").glob("*.stin"))[0]
        d_in = load_decoder_input(stin)
        assert d_in.lengths[0] == SPEC.F
        assert d_in.lengths[1] == SPEC.F
        assert d_in.lengths[2] == CFG.top_k
        assert d_in.lengths[3] == 0


def copy_features(corpus_dir: Path, tmp_path: Path) -> Path:
    feats = tmp_path / "features"
    feats.mkdir()
    for p in (corpus_dir / "features").glob("*.sfeat"):
        (feats / p.name).write_bytes(p.read_bytes())
    return feats


class TestFailureIsolation:
    def test_bad_video_skipped_by_default(self, corpus_dir, head_path, tmp_path, caplog):
        feats = tmp_path / "features"
        feats.mkdir()
        for p in (corpus_dir / "features").glob("*.sfeat"):
            (feats / p.name).write_bytes(p.read_bytes())
        # Corrupt one video: body truncated.
        victim = sorted(feats.glob("*.sfeat"))[1]
        victim.write_bytes(victim.read_bytes()[:-8])
        out = tmp_path / "run"
        with caplog.at_level("ERROR"):
            run_pipeline(
                CFG, feats, corpus_dir / "annotations.jsonl",
                corpus_dir / "datastore.sds", head_path, out,
            )
        assert any("skipped" in r.message for r in caplog.records)
        segment_lines = (out / "segments.jsonl").read_text().splitlines()
        assert len(segment_lines) == SPEC.n_videos - 1
        report = json.loads((out / "report.json").read_text())
        assert any("empty_pred" in f for f in report["corpus"]["flags"])

    def test_fail_fast_raises(self, corpus_dir, head_path, tmp_path):
        feats = tmp_path / "features"
        feats.mkdir()
        for p in (corpus_dir / "features").glob("*.sfeat"):
            (feats / p.name).write_bytes(p.read_bytes())
        victim = sorted(feats.glob("*.sfeat"))[0]
        victim.write_bytes(victim.read_bytes()[:-8])
        from saliseg.errors import DataError

        with pytest.raises(DataError):
            run_pipeline(
                CFG, feats, corpus_dir / "annotations.jsonl",
                corpus_dir / "datastore.sds", head_path, tmp_path / "run",
                fail_fast=True,
            )

    def test_video_failing_segment_skipped_downstream(self, corpus_dir, head_path, tmp_path):
        # A zero spatial row loads fine but fails the matching cost, so the
        # video has saliency but no segments and no retrieval record.
        feats = copy_features(corpus_dir, tmp_path)
        victim = sorted(feats.glob("*.sfeat"))[1]
        f = load_features(victim)
        spatial = f.spatial.copy()
        spatial[0] = 0.0
        save_features(FrameFeatures(f.video_id, spatial, f.encoded, f.valid_len), victim)
        out = tmp_path / "run"
        run_pipeline(
            CFG, feats, corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, out,
        )
        others = sorted(p.stem for p in feats.glob("*.sfeat") if p != victim)
        for name in ("segments.jsonl", "retrieval.jsonl"):
            lines = (out / name).read_text().splitlines()
            assert sorted(json.loads(line)["video_id"] for line in lines) == others
        assert sorted(p.stem for p in (out / "tin").glob("*.stin")) == others
        with pytest.raises(DataError, match=f"{f.video_id}: missing retrieval record"):
            stage_assemble(
                out / "refined", out / "saliency.jsonl", out / "retrieval.jsonl",
                CFG, tmp_path / "tin", fail_fast=True,
            )

    def test_video_over_f_max_skipped_or_fatal(self, corpus_dir, head_path, tmp_path):
        feats = copy_features(corpus_dir, tmp_path)
        victim = sorted(feats.glob("*.sfeat"))[1]
        f = load_features(victim)
        pad = np.zeros((CFG.F_max + 1 - f.n_frames, f.dim), dtype=np.float32)
        save_features(
            FrameFeatures(
                f.video_id, np.vstack([f.spatial, pad]), np.vstack([f.encoded, pad]), f.valid_len
            ),
            victim,
        )
        out = tmp_path / "run"
        args = (CFG, feats, corpus_dir / "annotations.jsonl", corpus_dir / "datastore.sds", head_path)
        run_pipeline(*args, out)
        others = sorted(p.stem for p in feats.glob("*.sfeat") if p != victim)
        assert sorted(p.stem for p in (out / "refined").glob("*.sfeat")) == others
        for name in ("saliency.jsonl", "segments.jsonl", "retrieval.jsonl"):
            lines = (out / name).read_text().splitlines()
            assert sorted(json.loads(line)["video_id"] for line in lines) == others
        message = f"{f.video_id}: {CFG.F_max + 1} frames exceed F_max={CFG.F_max}"
        with pytest.raises(DataError, match=message):
            run_pipeline(*args, tmp_path / "fatal", fail_fast=True)
        with pytest.raises(DataError, match=message):
            stage_segment(
                feats, out / "saliency.jsonl", CFG, tmp_path / "segments.jsonl", fail_fast=True
            )


def without_field(src: Path, field: str, dst: Path) -> Path:
    docs = [json.loads(line) for line in src.read_text().splitlines()]
    for doc in docs:
        del doc[field]
    dst.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return dst


class TestRecordFields:
    @pytest.fixture(scope="class")
    def upstream(self, corpus_dir, saliency_path, tmp_path_factory):
        root = tmp_path_factory.mktemp("upstream")
        features = corpus_dir / "features"
        stage_segment(features, saliency_path, CFG, root / "segments.jsonl")
        stage_retrieve(
            features, saliency_path, root / "segments.jsonl", corpus_dir / "datastore.sds",
            CFG, root / "retrieval.jsonl",
        )
        return root

    @pytest.mark.parametrize(
        "stage, kind, field",
        [
            ("segment", "saliency", "prior"),
            ("retrieve", "saliency", "prior"),
            ("assemble", "saliency", "scores"),
            ("assemble", "retrieval", "vectors"),
        ],
    )
    def test_record_without_field_skips_or_fails(
        self, corpus_dir, saliency_path, upstream, tmp_path, stage, kind, field
    ):
        files = {"saliency": saliency_path, "retrieval": upstream / "retrieval.jsonl"}
        files[kind] = without_field(files[kind], field, tmp_path / f"{kind}.jsonl")
        features = corpus_dir / "features"
        out = tmp_path / "out"

        def run(fail_fast):
            if stage == "segment":
                stage_segment(features, files["saliency"], CFG, out, fail_fast=fail_fast)
            elif stage == "retrieve":
                stage_retrieve(
                    features, files["saliency"], upstream / "segments.jsonl",
                    corpus_dir / "datastore.sds", CFG, out, fail_fast,
                )
            else:
                stage_assemble(
                    saliency_path.parent / "refined", files["saliency"], files["retrieval"],
                    CFG, out, fail_fast=fail_fast,
                )

        with pytest.raises(DataError, match=f"v0000: {kind} record lacks '{field}'"):
            run(True)
        run(False)  # every video lacks the field, so every video is skipped
        assert (out.read_text() == "") if stage != "assemble" else not any(out.iterdir())

    @pytest.mark.parametrize("fail_fast", [False, True], ids=["default", "fail_fast"])
    @pytest.mark.parametrize(
        "stage, field", [("segment", "prior"), ("retrieve", "prior"), ("assemble", "scores")]
    )
    @pytest.mark.parametrize("bad", ["short", "non_numeric"])
    def test_per_frame_field_of_wrong_length_or_type(
        self, corpus_dir, saliency_path, upstream, tmp_path, caplog, bad, stage, field, fail_fast
    ):
        docs = [json.loads(line) for line in saliency_path.read_text().splitlines()]
        values = docs[0][field]
        docs[0][field] = values[:3] if bad == "short" else ["abc"] + values[1:]
        saliency = tmp_path / "saliency.jsonl"
        saliency.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        features = str(corpus_dir / "features")
        out = tmp_path / "out"
        args = {
            "segment": ["segment", "--features-dir", features, "--out", str(out)],
            "retrieve": [
                "retrieve", "--features-dir", features,
                "--segments", str(upstream / "segments.jsonl"),
                "--datastore", str(corpus_dir / "datastore.sds"), "--out", str(out),
            ],
            "assemble": [
                "assemble", "--features-dir", str(saliency_path.parent / "refined"),
                "--retrieval", str(upstream / "retrieval.jsonl"), "--out-dir", str(out),
            ],
        }[stage] + ["--saliency", str(saliency)]
        if fail_fast:
            assert main(args + ["--fail-fast"]) == 3
        else:
            assert main(args) == 0
            if stage == "assemble":
                written = sorted(p.stem for p in out.iterdir())
            else:
                written = [json.loads(line)["video_id"] for line in out.read_text().splitlines()]
            assert written == ["v0001", "v0002", "v0003"]
        assert f"v0000: saliency '{field}' is not a list of {SPEC.F} numbers" in caplog.text


class TestCli:
    def test_full_cli_chain(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_videos": 3, "F": 30, "D": 10, "events_per_video": [2, 2],
            "event_len": [4, 6], "noise_sigma": 0.05,
            "n_caption_concepts": 5, "seed": 3,
        }))
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(windows=(4, 8), K=3, top_k=2, top_p=2, seed=3), cfg_path)
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(data)]) == 0
        head = tmp_path / "head.shd"
        assert main([
            "train-saliency", "--config", str(cfg_path),
            "--features-dir", str(data / "features"),
            "--annotations", str(data / "annotations.jsonl"),
            "--out-head", str(head), "--epochs", "2",
        ]) == 0
        out = tmp_path / "run"
        assert main([
            "pipeline", "--config", str(cfg_path),
            "--features-dir", str(data / "features"),
            "--annotations", str(data / "annotations.jsonl"),
            "--datastore", str(data / "datastore.sds"),
            "--head", str(head), "--out-dir", str(out),
        ]) == 0
        assert (out / "report.json").exists()
        # eval subcommand with CSV
        assert main([
            "eval", "--pred", str(out / "segments.jsonl"),
            "--gt", str(data / "annotations.jsonl"),
            "--out", str(tmp_path / "report2.json"), "--csv",
        ]) == 0
        assert (tmp_path / "report2.csv").exists()

    def test_refine_subcommand_round_trips(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_videos": 2, "F": 20, "D": 8, "events_per_video": [1, 2],
            "event_len": [3, 5], "noise_sigma": 0.05,
            "n_caption_concepts": 4, "seed": 4,
        }))
        data = tmp_path / "data"
        main(["synth", "--spec", str(spec_path), "--out-dir", str(data)])
        cfg_path = tmp_path / "config.json"
        save_config(PipelineConfig(windows=(2, 4), K=2, top_k=2, top_p=1, seed=4), cfg_path)
        out = tmp_path / "refined"
        assert main([
            "refine", "--config", str(cfg_path),
            "--features-dir", str(data / "features"), "--out-dir", str(out),
        ]) == 0
        raw = load_features(sorted((data / "features").glob("*.sfeat"))[0])
        ref = load_features(sorted(out.glob("*.sfeat"))[0])
        assert ref.spatial.tobytes() == raw.spatial.tobytes()
        assert ref.encoded.tobytes() != raw.encoded.tobytes()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tau": -1}')
        assert main([
            "refine", "--config", str(bad),
            "--features-dir", str(tmp_path), "--out-dir", str(tmp_path / "o"),
        ]) == 2

    def test_data_error_exit_code(self, tmp_path):
        assert main([
            "refine", "--features-dir", str(tmp_path / "nowhere"),
            "--out-dir", str(tmp_path / "o"),
        ]) == 3

    def segment_args(self, corpus_dir, saliency, out):
        return [
            "segment", "--features-dir", str(corpus_dir / "features"),
            "--saliency", str(saliency), "--out", str(out),
        ]

    @pytest.mark.parametrize(
        "bad_line", ['{"video_id": "v0000", "prior": [0.5', '{"prior": [0.5]}'],
        ids=["truncated_json", "missing_video_id"],
    )
    def test_malformed_record_file_exit_code(self, corpus_dir, tmp_path, caplog, bad_line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(bad_line + "\n")
        assert main(self.segment_args(corpus_dir, bad, tmp_path / "segments.jsonl")) == 3
        assert f"{bad}:1:" in caplog.text

    def test_record_without_field_exit_code(self, corpus_dir, tmp_path, caplog):
        bare = tmp_path / "saliency.jsonl"
        bare.write_text('{"video_id": "v0000"}\n')
        args = self.segment_args(corpus_dir, bare, tmp_path / "segments.jsonl")
        assert main(args + ["--fail-fast"]) == 3
        assert "v0000: saliency record lacks 'prior'" in caplog.text

    def test_missing_input_file_exit_code(self, corpus_dir, tmp_path, caplog):
        missing = tmp_path / "missing.jsonl"
        assert main(self.segment_args(corpus_dir, missing, tmp_path / "segments.jsonl")) == 3
        assert f"{missing}: No such file or directory" in caplog.text

    def test_video_without_valid_frames_skipped_or_fatal(
        self, corpus_dir, saliency_path, tmp_path, caplog
    ):
        feats = copy_features(corpus_dir, tmp_path)
        victim = feats / "v0001.sfeat"
        f = load_features(victim)
        empty = np.zeros_like(f.spatial)
        save_features(FrameFeatures(f.video_id, empty, empty, 0), victim)
        out = tmp_path / "segments.jsonl"
        args = [
            "segment", "--features-dir", str(feats), "--saliency", str(saliency_path),
            "--out", str(out),
        ]
        assert main(args + ["--fail-fast"]) == 3
        assert "no feature rows to draw anchors from" in caplog.text
        assert main(args) == 0
        written = [json.loads(line)["video_id"] for line in out.read_text().splitlines()]
        assert written == ["v0000", "v0002", "v0003"]

    def test_unconverged_solve_exit_code_under_fail_fast(
        self, corpus_dir, saliency_path, tmp_path, monkeypatch
    ):
        import dataclasses

        import saliseg.pipeline

        real = saliseg.pipeline.solve_fugw
        monkeypatch.setattr(
            saliseg.pipeline, "solve_fugw",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), converged=False),
        )
        out = tmp_path / "segments.jsonl"
        args = self.segment_args(corpus_dir, saliency_path, out)
        assert main(args + ["--fail-fast"]) == 4
        assert main(args) == 0
        assert len(out.read_text().splitlines()) == SPEC.n_videos

    def test_train_saliency_honours_fail_fast(self, corpus_dir, tmp_path):
        feats = copy_features(corpus_dir, tmp_path)
        victim = sorted(feats.glob("*.sfeat"))[0]
        victim.write_bytes(victim.read_bytes()[:-8])
        args = [
            "train-saliency", "--features-dir", str(feats),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out-head", str(tmp_path / "head.shd"), "--epochs", "1",
        ]
        assert main(args + ["--fail-fast"]) == 3
        assert not (tmp_path / "head.shd").exists()
        assert main(args) == 0
        assert (tmp_path / "head.shd").exists()
