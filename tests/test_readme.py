"""The README's library snippet runs as written and segments and retrieves
like the stages, and every command in its command-line block parses."""

import re
import shlex
from pathlib import Path

import numpy as np

from saliseg.cli import build_parser
from saliseg.data import PipelineConfig, load_records, save_features
from saliseg.pipeline import stage_refine, stage_retrieve, stage_score_saliency, stage_segment
from saliseg.saliency import init_head, save_head
from saliseg.segments import load_segments
from saliseg.store import save_datastore
from saliseg.synth import SynthSpec, generate_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def cli_commands(text: str) -> list[list[str]]:
    """The argument lists of the ``saliseg`` lines in the "Command line" bash block."""
    section = text.split("## Command line", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("saliseg ")]


def test_command_line_block_parses():
    commands = cli_commands(README.read_text(encoding="utf-8"))
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)  # exits 2 on a flag the parser does not take


def test_library_snippet_runs_and_matches_the_stages(tmp_path, monkeypatch):
    (snippet,) = python_blocks(README.read_text(encoding="utf-8"))
    corpus = generate_corpus(SynthSpec(n_videos=3, seed=3))
    f = corpus.features[2]
    assert f.valid_len < f.n_frames  # a padded file: the snippet slices nothing
    save_features(f, tmp_path / "video-1.sfeat")
    save_head(init_head(f.dim, seed=3), tmp_path / "head.shd")
    save_datastore(corpus.datastore, tmp_path / "datastore.sds")

    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(snippet, str(README), "exec"), namespace)

    cfg = PipelineConfig()
    features = tmp_path / "features"
    features.mkdir()
    save_features(f, features / "video-1.sfeat")
    stage_refine(features, tmp_path / "refined", cfg)
    stage_score_saliency(tmp_path / "refined", tmp_path / "head.shd", cfg, tmp_path / "sal.jsonl")
    stage_segment(features, tmp_path / "sal.jsonl", cfg, tmp_path / "seg.jsonl")
    # The stages score the refined features after their float32 round trip,
    # so scores agree to float32 precision and boundaries exactly.
    got, want = namespace["segments"], load_segments(tmp_path / "seg.jsonl")["video-1"]
    assert got.selected == want.selected
    assert [(s.anchor_id, s.start, s.end) for s in got.segments] == [
        (s.anchor_id, s.start, s.end) for s in want.segments
    ]
    np.testing.assert_allclose([s.score for s in got.segments],
                               [s.score for s in want.segments], rtol=1e-5)
    stage_retrieve(features, tmp_path / "sal.jsonl", tmp_path / "seg.jsonl",
                   tmp_path / "datastore.sds", cfg, tmp_path / "ret.jsonl")
    record = load_records(tmp_path / "ret.jsonl")["video-1"]
    want_hits = [s["neighbors"] for s in record["segments"]]
    assert [[h[0] for h in hits] for hits in namespace["neighbors"]] == [
        [h[0] for h in hits] for hits in want_hits]
    np.testing.assert_allclose([[h[1] for h in hits] for hits in namespace["neighbors"]],
                               [[h[1] for h in hits] for hits in want_hits], rtol=1e-5)
    np.testing.assert_allclose(namespace["vectors"], record["vectors"], rtol=1e-12)
