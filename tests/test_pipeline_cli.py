"""End-to-end pipeline, stage isolation, CLI contract."""

import argparse
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from saliseg.cli import build_parser, main
from saliseg.data import FrameFeatures, PipelineConfig, load_features, save_features
from saliseg.errors import ConfigError, DataError
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
from saliseg.saliency import load_head
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
        epochs=4,
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

    def test_no_temp_file_left(self, corpus_dir, head_path, tmp_path):
        out = tmp_path / "run"
        run_pipeline(
            CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, out,
        )
        assert not [p for p in out.rglob("*") if p.name.startswith(".")]

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

    def test_unknown_baseline_is_config_error_before_any_work(
        self, corpus_dir, head_path, saliency_path, tmp_path
    ):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="unknown baseline 'kmean'"):
            run_pipeline(
                CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
                corpus_dir / "datastore.sds", head_path, out, baseline="kmean",
            )
        assert not out.exists()
        segments = tmp_path / "segments.jsonl"
        with pytest.raises(ConfigError, match="unknown baseline 'kmean'"):
            stage_segment(corpus_dir / "features", saliency_path, CFG, segments, baseline="kmean")
        assert not segments.exists()


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
        from saliseg.errors import ConfigError, DataError

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
        save_features(FrameFeatures(f.video_id, spatial, f.encoded, f.n_frames), victim)
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
        save_features(FrameFeatures(f.video_id, f.spatial, f.encoded, CFG.F_max + 1), victim)
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
    @pytest.mark.parametrize("bad", ["short", "non_numeric", "nan", "infinity", "huge_int"])
    def test_per_frame_field_of_wrong_length_or_type(
        self, corpus_dir, saliency_path, upstream, tmp_path, caplog, bad, stage, field, fail_fast
    ):
        docs = [json.loads(line) for line in saliency_path.read_text().splitlines()]
        values = docs[0][field]
        first = {"non_numeric": "abc", "nan": float("nan"), "infinity": float("inf"),
                 "huge_int": 10**400}.get(bad)
        docs[0][field] = values[:3] if bad == "short" else [first] + values[1:]
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

    @pytest.mark.parametrize("fail_fast", [False, True], ids=["default", "fail_fast"])
    @pytest.mark.parametrize("bad", ["ragged", "non_numeric", "nan"])
    def test_retrieval_vectors_of_wrong_shape_or_type(
        self, saliency_path, upstream, tmp_path, caplog, bad, fail_fast
    ):
        lines = (upstream / "retrieval.jsonl").read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        rows = docs[0]["vectors"]
        if bad == "ragged":
            docs[0]["vectors"] = [[1.0, 2.0], [3.0]]
        else:
            first = "abc" if bad == "non_numeric" else float("nan")
            docs[0]["vectors"] = [[first] + rows[0][1:]] + rows[1:]
        retrieval = tmp_path / "retrieval.jsonl"
        retrieval.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        out = tmp_path / "out"
        args = [
            "assemble", "--features-dir", str(saliency_path.parent / "refined"),
            "--saliency", str(saliency_path), "--retrieval", str(retrieval), "--out-dir", str(out),
        ]
        if fail_fast:
            assert main(args + ["--fail-fast"]) == 3
        else:
            assert main(args) == 0
            assert sorted(p.stem for p in out.iterdir()) == ["v0001", "v0002", "v0003"]
        message = f"v0000: retrieval 'vectors' is not a list of rows of {SPEC.D} numbers"
        assert message in caplog.text


PER_VIDEO = {"--config", "--seed", "--fail-fast", "--log-level"}
OPTIONS = {
    "synth": {"--spec", "--out-dir", "--seed", "--log-level"},
    "refine": PER_VIDEO | {"--features-dir", "--out-dir"},
    "train-saliency": PER_VIDEO
    | {"--features-dir", "--annotations", "--out-head", "--epochs", "--lr"},
    "score-saliency": PER_VIDEO | {"--features-dir", "--head", "--out"},
    "segment": PER_VIDEO | {"--features-dir", "--saliency", "--out", "--baseline", "--dump-plan"},
    "retrieve": PER_VIDEO
    | {"--features-dir", "--saliency", "--segments", "--datastore", "--out"},
    "assemble": PER_VIDEO
    | {"--features-dir", "--saliency", "--retrieval", "--out-dir"},
    "eval": {"--pred", "--gt", "--out", "--csv", "--log-level"},
    "pipeline": PER_VIDEO | {
        "--features-dir", "--annotations", "--datastore", "--head", "--out-dir",
        "--baseline", "--dump-plan",
    },
}


class TestParser:
    """Each subcommand accepts exactly the options its handler reads."""

    def subparsers(self) -> dict[str, argparse.ArgumentParser]:
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_option_sets(self):
        got = {
            name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in self.subparsers().items()
        }
        assert got == OPTIONS
        assert all(callable(p.get_default("run")) for p in self.subparsers().values())

    def test_training_defaults(self):
        args = build_parser().parse_args(
            ["train-saliency", "--features-dir", ".", "--annotations", ".", "--out-head", "."]
        )
        assert (args.epochs, args.lr) == (20, 1e-3)

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("synth", ["--config", "/nonexistent.json"]),
            ("synth", ["--fail-fast"]),
            ("eval", ["--config", "/nonexistent.json"]),
            ("eval", ["--seed", "1"]),
            ("eval", ["--fail-fast"]),
            ("assemble", ["--text-dir", "t"]),
            ("pipeline", ["--text-dir", "t"]),
        ],
    )
    def test_removed_flags_are_rejected(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        required = {
            "synth": ["--spec", str(tmp_path / "spec.json"), "--out-dir", str(out)],
            "eval": ["--pred", "p", "--gt", "g", "--out", str(out)],
            "assemble": ["--features-dir", "f", "--saliency", "s", "--retrieval", "r",
                         "--out-dir", str(out)],
            "pipeline": ["--features-dir", "f", "--annotations", "a", "--datastore", "d",
                         "--head", "h", "--out-dir", str(out)],
        }
        with pytest.raises(SystemExit) as exc:
            main([command, *required[command], *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()


class TestCli:
    def test_full_cli_chain(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_videos": 3, "F": 30, "D": 10, "events_per_video": [2, 2],
            "event_len": [4, 6], "noise_sigma": 0.05,
            "n_caption_concepts": 5, "seed": 3,
        }))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(PipelineConfig(windows=(4, 8), K=3, top_k=2, top_p=2, seed=3).to_json())
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
        cfg_path.write_text(PipelineConfig(windows=(2, 4), K=2, top_k=2, top_p=1, seed=4).to_json())
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

    @pytest.mark.parametrize(
        "bad",
        [
            {"tau": float("nan")},
            {"epsilon": float("nan")},
            {"gamma": float("nan")},
            {"gamma": float("inf")},
            {"epsilon": float("inf")},
            {"lambda": float("nan")},
            {"mu": float("nan")},
            {"mu": float("inf")},
            {"windows": [1, 4]},
            {"K": 8.5},
            {"K": True, "top_k": True},
            {"top_p": 2.5},
            {"seed": 1.5},
            {"windows": [8.5, 32, 64]},
        ],
    )
    def test_segment_rejects_bad_config_before_any_work(
        self, corpus_dir, saliency_path, tmp_path, bad
    ):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))  # NaN and Infinity are JSON extensions
        out = tmp_path / "segments.jsonl"
        args = self.segment_args(corpus_dir, saliency_path, out)
        assert main(args + ["--config", str(cfg_path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec",
        ["3", '{"event_len": 5}', '{"event_len": [4, 5, 6]}', '{"n_videos": 2.5}',
         '{"event_len": [8.5, 11]}', '{"seed": true}'],
    )
    def test_bad_synth_spec_exit_code(self, tmp_path, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec)
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "train-saliency"])
    def test_lambda_config_key_exit_code(self, corpus_dir, head_path, tmp_path, caplog, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"lambda": 6.0}')
        out = tmp_path / "out"
        inputs = ["--features-dir", str(corpus_dir / "features"),
                  "--annotations", str(corpus_dir / "annotations.jsonl")]
        if command == "pipeline":
            inputs += ["--datastore", str(corpus_dir / "datastore.sds"), "--head", str(head_path),
                       "--out-dir", str(out)]
        else:
            inputs += ["--out-head", str(out)]
        assert main([command, "--config", str(cfg_path)] + inputs) == 2
        assert "unknown PipelineConfig keys: ['lambda']" in caplog.text
        assert not out.exists()

    def test_diverged_training_writes_a_loadable_head(self, corpus_dir, tmp_path):
        head = tmp_path / "head.shd"
        assert main([
            "train-saliency", "--features-dir", str(corpus_dir / "features"),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out-head", str(head), "--epochs", "1", "--lr", "1e300",
        ]) == 0
        assert np.abs(load_head(head).W1).max() < 2.0

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.001"), ("--lr", "0"), ("--epochs", "-3"),
    ])
    def test_untrainable_settings_exit_2_before_reading(
        self, corpus_dir, tmp_path, caplog, monkeypatch, flag, value
    ):
        import saliseg.pipeline

        def never(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(saliseg.pipeline, "load_annotations", never)
        monkeypatch.setattr(saliseg.pipeline, "load_features", never)
        head = tmp_path / "head.shd"
        assert main([
            "train-saliency", "--features-dir", str(corpus_dir / "features"),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out-head", str(head), flag, value,
        ]) == 2
        assert "config error" in caplog.text
        assert not head.exists()

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
        "bad_line",
        ['{"video_id": "v0000", "prior": [0.5', '{"prior": [0.5]}',
         '{"video_id": "v0000", "prior": [' + "9" * 5000 + "]}"],
        ids=["truncated_json", "missing_video_id", "integer_past_digit_limit"],
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

    @pytest.mark.parametrize("corruption", ["dim_top_bit", "nan_embedding"])
    def test_corrupt_datastore_exit_code(
        self, corpus_dir, saliency_path, tmp_path, caplog, corruption
    ):
        features = corpus_dir / "features"
        stage_segment(features, saliency_path, CFG, tmp_path / "segments.jsonl")
        raw = bytearray((corpus_dir / "datastore.sds").read_bytes())
        if corruption == "dim_top_bit":
            raw[19] |= 0x80  # the last byte of the u64 dimension D
            message = "does not fit in"
        else:
            (id_len,) = struct.unpack_from("<I", raw, 20)
            (cap_len,) = struct.unpack_from("<I", raw, 24 + id_len)
            struct.pack_into("<f", raw, 28 + id_len + cap_len, float("nan"))
            message = "embeddings must be finite and unit norm"
        store = tmp_path / "datastore.sds"
        store.write_bytes(bytes(raw))
        assert main([
            "retrieve", "--features-dir", str(features), "--saliency", str(saliency_path),
            "--segments", str(tmp_path / "segments.jsonl"), "--datastore", str(store),
            "--out", str(tmp_path / "retrieval.jsonl"),
        ]) == 3
        assert message in caplog.text
        assert not (tmp_path / "retrieval.jsonl").exists()

    def test_missing_input_file_exit_code(self, corpus_dir, tmp_path, caplog):
        missing = tmp_path / "missing.jsonl"
        assert main(self.segment_args(corpus_dir, missing, tmp_path / "segments.jsonl")) == 3
        assert f"{missing}: No such file or directory" in caplog.text

    @pytest.mark.parametrize("command", ["score-saliency", "segment"])
    def test_video_without_valid_frames_skipped_or_fatal(
        self, corpus_dir, head_path, saliency_path, tmp_path, caplog, command
    ):
        feats = copy_features(corpus_dir, tmp_path)
        victim = feats / "v0001.sfeat"
        f = load_features(victim)
        empty = np.zeros((0, f.dim), dtype=np.float32)
        save_features(FrameFeatures(f.video_id, empty, empty, f.n_frames), victim)
        out = tmp_path / "out.jsonl"
        if command == "score-saliency":
            args = ["score-saliency", "--head", str(head_path)]
            message = "no valid frames"
        else:
            # The saliency record that fits a video without valid frames.
            docs = [json.loads(line) for line in saliency_path.read_text().splitlines()]
            docs[1]["scores"] = docs[1]["prior"] = []
            saliency = tmp_path / "saliency.jsonl"
            saliency.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
            args = ["segment", "--saliency", str(saliency)]
            message = "no feature rows to draw anchors from"
        args += ["--features-dir", str(feats), "--out", str(out)]
        assert main(args + ["--fail-fast"]) == 3
        assert message in caplog.text
        assert main(args) == 0
        written = [json.loads(line)["video_id"] for line in out.read_text().splitlines()]
        assert written == ["v0000", "v0002", "v0003"]

    def test_padded_file_scores_and_assembles_as_its_unpadded_twin(
        self, corpus_dir, head_path, tmp_path
    ):
        # Padding ends at the reader: a padded refined file and its twin
        # without padding give the same saliency record and decoder input.
        run = tmp_path / "run"
        run_pipeline(
            CFG, corpus_dir / "features", corpus_dir / "annotations.jsonl",
            corpus_dir / "datastore.sds", head_path, run,
        )
        for line in (run / "saliency.jsonl").read_text().splitlines():
            doc = json.loads(line)
            n = load_features(run / "refined" / f"{doc['video_id']}.sfeat").valid_len
            assert len(doc["scores"]) == len(doc["prior"]) == n
        f = load_features(run / "refined" / "v0002.sfeat")
        assert f.valid_len < f.n_frames  # every third synthetic video is padded
        outputs = {}
        for name, n_frames in (("padded", f.n_frames), ("twin", f.valid_len)):
            features = tmp_path / name
            features.mkdir()
            twin = FrameFeatures(f.video_id, f.spatial, f.encoded, n_frames)
            save_features(twin, features / "v0002.sfeat")
            saliency = stage_score_saliency(features, head_path, CFG, tmp_path / f"{name}.jsonl")
            (stin,) = stage_assemble(
                features, saliency, run / "retrieval.jsonl", CFG, tmp_path / f"{name}_tin"
            )
            outputs[name] = (saliency.read_bytes(), stin.read_bytes())
        assert outputs["padded"] == outputs["twin"]
        assert (run / "tin" / "v0002.stin").read_bytes() == outputs["padded"][1]
        d_in = load_decoder_input(tmp_path / "padded_tin" / "v0002.stin")
        assert d_in.lengths[:2] == (f.valid_len, f.valid_len)
        np.testing.assert_array_equal(d_in.section(0), f.encoded)

    def test_unconverged_solve_exit_code_under_fail_fast(
        self, corpus_dir, saliency_path, tmp_path, monkeypatch, caplog
    ):
        import dataclasses
        import re

        import saliseg.pipeline

        real = saliseg.pipeline.solve_fugw
        monkeypatch.setattr(
            saliseg.pipeline, "solve_fugw",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), converged=False),
        )
        out = tmp_path / "segments.jsonl"
        args = self.segment_args(corpus_dir, saliency_path, out)
        assert main(args + ["--fail-fast"]) == 4
        assert "v0000.sfeat: stage failed" in caplog.text
        caplog.clear()
        assert main(args) == 0
        assert len(out.read_text().splitlines()) == SPEC.n_videos
        # One warning per video, naming it and its outer steps.
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == SPEC.n_videos
        for i, message in enumerate(warned):
            assert re.fullmatch(
                rf"v{i:04d}: transport solver did not converge in [1-9]\d* outer steps", message
            ), message

    def test_solver_error_skips_only_its_video(
        self, corpus_dir, saliency_path, tmp_path, monkeypatch, caplog
    ):
        import saliseg.pipeline
        from saliseg.errors import NumericalError

        clean = tmp_path / "clean.jsonl"
        assert main(self.segment_args(corpus_dir, saliency_path, clean)) == 0
        real = saliseg.pipeline.solve_fugw
        solved = []

        def fails_on_v0001(prob, *args, **kwargs):
            # Videos are solved one at a time in sorted order: v0001 is second.
            solved.append(prob)
            if len(solved) == 2:
                raise NumericalError("non-finite transport plan after scaling")
            return real(prob, *args, **kwargs)

        monkeypatch.setattr(saliseg.pipeline, "solve_fugw", fails_on_v0001)
        out = tmp_path / "segments.jsonl"
        args = self.segment_args(corpus_dir, saliency_path, out)
        assert main(args) == 0
        assert len(solved) == SPEC.n_videos
        assert "v0001.sfeat: stage failed, video skipped: non-finite transport plan" in caplog.text
        want = [line for line in clean.read_bytes().splitlines(keepends=True)
                if json.loads(line)["video_id"] != "v0001"]
        assert len(want) == SPEC.n_videos - 1
        assert out.read_bytes().splitlines(keepends=True) == want

        solved.clear()
        caplog.clear()
        out.unlink()
        assert main(args + ["--fail-fast"]) == 4
        assert len(solved) == 2
        assert "v0001.sfeat: stage failed" in caplog.text
        assert "numerical failure: non-finite transport plan after scaling" in caplog.text
        assert not out.exists()

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

    @pytest.mark.parametrize("fail_fast", [False, True], ids=["default", "fail_fast"])
    def test_annotation_and_feature_valid_len_must_agree(
        self, corpus_dir, tmp_path, caplog, fail_fast
    ):
        # v0002's feature file holds 32 valid frames of 40; its annotation
        # claims all 40, which its events still fit.
        lines = (corpus_dir / "annotations.jsonl").read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        docs[2]["valid_len"] = SPEC.F
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        head = tmp_path / "head.shd"
        args = [
            "train-saliency", "--features-dir", str(corpus_dir / "features"),
            "--annotations", str(annotations), "--out-head", str(head), "--epochs", "1",
        ]
        if fail_fast:
            assert main(args + ["--fail-fast"]) == 3
            assert not head.exists()
        else:
            assert main(args) == 0
            assert head.exists()
            assert "v0002.sfeat: stage failed, video skipped" in caplog.text
        assert "v0002: annotation valid_len 40 != feature valid_len 32" in caplog.text

    def write_segments(self, path: Path, selected=(0, 2)) -> Path:
        """A segments file with three segments of v0000, ``selected`` as given."""
        segments = [{"anchor": i, "start": s, "end": s + 10, "score": 1.0}
                    for i, s in enumerate((0, 10, 20))]
        path.write_text(json.dumps({"video_id": "v0000", "segments": segments,
                                    "selected": list(selected)}) + "\n")
        return path

    def eval_args(self, pred, gt, out):
        return ["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]

    def segments_reader_args(self, command, corpus_dir, saliency, pred, out):
        """Arguments of ``eval`` or ``retrieve`` reading the segments file ``pred``."""
        if command == "eval":
            return self.eval_args(pred, corpus_dir / "annotations.jsonl", out)
        return [
            "retrieve", "--features-dir", str(corpus_dir / "features"),
            "--saliency", str(saliency), "--segments", str(pred),
            "--datastore", str(corpus_dir / "datastore.sds"), "--out", str(out),
        ]

    @pytest.mark.parametrize("command", ["segment", "eval"])
    def test_unwritable_output_exit_code(
        self, corpus_dir, saliency_path, tmp_path, caplog, command
    ):
        out = tmp_path / "nodir" / "out.json"
        if command == "segment":
            args = self.segment_args(corpus_dir, saliency_path, out)
        else:
            pred = self.write_segments(tmp_path / "segments.jsonl")
            args = self.eval_args(pred, corpus_dir / "annotations.jsonl", out)
        assert main(args) == 3
        assert f"{out}: No such file or directory" in caplog.text

    @pytest.mark.parametrize("command", ["score-saliency", "segment", "retrieve"])
    def test_unwritable_output_checked_before_the_first_video(
        self, corpus_dir, head_path, saliency_path, tmp_path, caplog, monkeypatch, command
    ):
        import saliseg.pipeline

        features = corpus_dir / "features"
        segments = stage_segment(features, saliency_path, CFG, tmp_path / "segments.jsonl")

        def never(*args, **kwargs):
            raise AssertionError("a video was processed")

        monkeypatch.setattr(saliseg.pipeline, "load_features", never)
        monkeypatch.setattr(saliseg.pipeline, "solve_fugw", never)
        out = tmp_path / "nodir" / "out.jsonl"
        if command == "score-saliency":
            args = ["score-saliency", "--features-dir", str(saliency_path.parent / "refined"),
                    "--head", str(head_path), "--out", str(out)]
        elif command == "segment":
            args = self.segment_args(corpus_dir, saliency_path, out)
        else:
            args = [
                "retrieve", "--features-dir", str(features), "--saliency", str(saliency_path),
                "--segments", str(segments), "--datastore", str(corpus_dir / "datastore.sds"),
                "--out", str(out),
            ]
        assert main(args) == 3
        assert f"{out}: No such file or directory" in caplog.text
        assert not out.parent.exists()

    @pytest.mark.parametrize("blocker", ["missing_dir", "file_as_dir", "dir_as_file"])
    def test_unwritable_head_checked_before_training(
        self, corpus_dir, tmp_path, caplog, monkeypatch, blocker
    ):
        import saliseg.pipeline

        def never(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(saliseg.pipeline, "load_features", never)
        monkeypatch.setattr(saliseg.pipeline, "train_saliency", never)
        if blocker == "missing_dir":
            head, reason = tmp_path / "nodir" / "head.shd", "No such file or directory"
        elif blocker == "file_as_dir":
            (tmp_path / "afile").write_text("")
            head, reason = tmp_path / "afile" / "head.shd", "Not a directory"
        else:
            head, reason = tmp_path / "head.shd", "Is a directory"
            head.mkdir()
        assert main([
            "train-saliency", "--features-dir", str(corpus_dir / "features"),
            "--annotations", str(corpus_dir / "annotations.jsonl"), "--out-head", str(head),
        ]) == 3
        assert f"{head}: {reason}" in caplog.text

    def test_repeated_annotation_exit_code(self, corpus_dir, tmp_path, caplog):
        lines = (corpus_dir / "annotations.jsonl").read_text().splitlines()
        gt = tmp_path / "annotations.jsonl"
        gt.write_text("\n".join(lines + [lines[0]]) + "\n")
        pred = self.write_segments(tmp_path / "segments.jsonl")
        assert main(self.eval_args(pred, gt, tmp_path / "report.json")) == 3
        assert f"{gt}:{len(lines) + 1}: repeated video_id v0000" in caplog.text
        assert not (tmp_path / "report.json").exists()

    def test_repeated_saliency_record_exit_code(
        self, corpus_dir, saliency_path, tmp_path, caplog
    ):
        features = corpus_dir / "features"
        segments = stage_segment(features, saliency_path, CFG, tmp_path / "segments.jsonl")
        lines = saliency_path.read_text().splitlines()
        saliency = tmp_path / "saliency.jsonl"
        saliency.write_text("\n".join([lines[0]] + lines) + "\n")
        out = tmp_path / "retrieval.jsonl"
        assert main([
            "retrieve", "--features-dir", str(features), "--saliency", str(saliency),
            "--segments", str(segments), "--datastore", str(corpus_dir / "datastore.sds"),
            "--out", str(out),
        ]) == 3
        assert f"{saliency}:2: repeated video_id v0000" in caplog.text
        assert not out.exists()

    def test_duplicate_datastore_id_exit_code(
        self, corpus_dir, saliency_path, tmp_path, caplog
    ):
        features = corpus_dir / "features"
        segments = stage_segment(features, saliency_path, CFG, tmp_path / "segments.jsonl")
        raw = bytearray((corpus_dir / "datastore.sds").read_bytes())
        (dim,) = struct.unpack_from("<Q", raw, 12)
        (id_len,) = struct.unpack_from("<I", raw, 20)
        first = bytes(raw[24 : 24 + id_len])
        (cap_len,) = struct.unpack_from("<I", raw, 24 + id_len)
        second = 28 + id_len + cap_len + 4 * dim
        assert struct.unpack_from("<I", raw, second) == (id_len,)
        raw[second + 4 : second + 4 + id_len] = first
        store = tmp_path / "datastore.sds"
        store.write_bytes(bytes(raw))
        out = tmp_path / "retrieval.jsonl"
        assert main([
            "retrieve", "--features-dir", str(features), "--saliency", str(saliency_path),
            "--segments", str(segments), "--datastore", str(store), "--out", str(out),
        ]) == 3
        assert f"duplicate entry id {first.decode()!r}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("fail_fast", [False, True], ids=["default", "fail_fast"])
    @pytest.mark.parametrize("command", ["refine", "segment", "assemble"])
    def test_unwritable_per_video_output_ends_the_run(
        self, corpus_dir, saliency_path, tmp_path, caplog, command, fail_fast
    ):
        """A per-video output that cannot be written is not the video's
        fault: the run stops with exit 3 instead of skipping the video."""
        features = corpus_dir / "features"
        out = tmp_path / "out"
        if command == "refine":
            args = ["refine", "--features-dir", str(features), "--out-dir", str(out)]
            blocker = out / "v0000.sfeat"
        elif command == "segment":
            args = self.segment_args(corpus_dir, saliency_path, tmp_path / "segments.jsonl")
            args += ["--dump-plan", str(out)]
            blocker = out / "v0000.json"
        else:
            segments, retrieval = tmp_path / "segments.jsonl", tmp_path / "retrieval.jsonl"
            stage_segment(features, saliency_path, CFG, segments)
            stage_retrieve(
                features, saliency_path, segments, corpus_dir / "datastore.sds", CFG, retrieval
            )
            args = [
                "assemble", "--features-dir", str(saliency_path.parent / "refined"),
                "--saliency", str(saliency_path), "--retrieval", str(retrieval),
                "--out-dir", str(out),
            ]
            blocker = out / "v0000.stin"
        blocker.mkdir(parents=True)  # a directory where the file must go
        assert main(args + (["--fail-fast"] if fail_fast else [])) == 3
        assert f"{blocker}: Is a directory" in caplog.text
        assert "video skipped" not in caplog.text
        assert sorted(p.name for p in out.iterdir()) == [blocker.name]
        if command == "segment":
            assert not (tmp_path / "segments.jsonl").exists()

    @pytest.mark.parametrize("command", ["refine", "pipeline"])
    def test_uncreatable_output_dir_exit_code(
        self, corpus_dir, head_path, tmp_path, caplog, command
    ):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        features = str(corpus_dir / "features")
        if command == "refine":
            out = blocker / "refined"
            args = ["refine", "--features-dir", features, "--out-dir", str(out)]
            reason = "Not a directory"
        else:
            out = blocker
            args = [
                "pipeline", "--features-dir", features,
                "--annotations", str(corpus_dir / "annotations.jsonl"),
                "--datastore", str(corpus_dir / "datastore.sds"),
                "--head", str(head_path), "--out-dir", str(out),
            ]
            reason = "File exists"
        assert main(args) == 3
        assert f"{out}: {reason}" in caplog.text

    @pytest.mark.parametrize(
        "bad_line",
        ['{"video_id": "v0000", "valid_len": 30, "events": 5}',
         '{"video_id": "v0000", "valid_len": "abc", "events": []}',
         "[1, 2]",
         '{"video_id": "v0000", "valid_len": 30, "events": [[0, 1e999]]}',
         '{"video_id": "v0000", "valid_len": 30, "events": [[0.5, 3.7]]}',
         '{"video_id": "v0000", "valid_len": 30.0, "events": []}'],
        ids=["events_not_a_list", "valid_len_not_a_number", "not_an_object",
             "event_past_float_range", "fractional_event", "float_valid_len"],
    )
    def test_bad_annotation_record_exit_code(self, tmp_path, caplog, bad_line):
        gt = tmp_path / "annotations.jsonl"
        gt.write_text(bad_line + "\n")
        pred = self.write_segments(tmp_path / "segments.jsonl")
        assert main(self.eval_args(pred, gt, tmp_path / "report.json")) == 3
        assert f"{gt}:1: bad annotation record" in caplog.text
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    @pytest.mark.parametrize("selected", [(0, 99), (-1,)], ids=["past_the_end", "negative"])
    def test_bad_selection_exit_code(
        self, corpus_dir, saliency_path, tmp_path, caplog, command, selected
    ):
        pred = self.write_segments(tmp_path / "segments.jsonl", selected)
        out = tmp_path / "out.json"
        args = self.segments_reader_args(command, corpus_dir, saliency_path, pred, out)
        assert main(args) == 3
        assert f"{pred}: v0000: bad segments record: selected" in caplog.text
        assert "strictly increasing indices into 3 segments" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_fractional_segment_bound_exit_code(
        self, corpus_dir, saliency_path, tmp_path, caplog, command
    ):
        pred = self.write_segments(tmp_path / "segments.jsonl")
        pred.write_text(pred.read_text().replace('"end": 20', '"end": 19.5'))
        assert "19.5" in pred.read_text()
        out = tmp_path / "out.json"
        args = self.segments_reader_args(command, corpus_dir, saliency_path, pred, out)
        assert main(args) == 3
        assert f"{pred}: v0000: bad segments record: end must be an integer, got 19.5" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_segment_bound_past_float_range_exit_code(
        self, corpus_dir, saliency_path, tmp_path, caplog, command
    ):
        pred = self.write_segments(tmp_path / "segments.jsonl")
        pred.write_text(pred.read_text().replace('"end": 30', '"end": 1e999'))
        assert "1e999" in pred.read_text()
        out = tmp_path / "out.json"
        args = self.segments_reader_args(command, corpus_dir, saliency_path, pred, out)
        assert main(args) == 3
        assert f"{pred}: v0000: bad segments record" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".txt", ".csv"])
    def test_eval_out_with_a_table_suffix_rejected_before_reading(self, tmp_path, suffix):
        out = tmp_path / f"report{suffix}"
        args = self.eval_args(tmp_path / "nowhere.jsonl", tmp_path / "nowhere.jsonl", out)
        assert main(args + ["--csv"]) == 2
        assert not out.exists()

    def test_pipeline_refuses_a_used_out_dir(self, corpus_dir, head_path, tmp_path, caplog):
        out = tmp_path / "run"
        args = [
            "pipeline", "--features-dir", str(corpus_dir / "features"),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--datastore", str(corpus_dir / "datastore.sds"),
            "--head", str(head_path), "--out-dir", str(out),
        ]
        assert main(args) == 0
        first = tree_bytes(out)
        assert main(args) == 3
        assert f"{out}: not empty" in caplog.text
        assert tree_bytes(out) == first
