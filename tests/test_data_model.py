"""Data model: feature files, labels, annotations, config, file writes."""

import builtins
import dataclasses
import errno
import json
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from saliseg.data import (
    EventAnnotation,
    FrameFeatures,
    PipelineConfig,
    dataclass_from_json,
    derive_highlight_labels,
    load_annotations,
    load_config,
    load_features,
    load_records,
    read_pieces,
    save_annotations,
    save_features,
    write_file,
)
from saliseg import data as data_module
from saliseg.errors import ConfigError, DataError, OutputError
from saliseg.prompts import load_decoder_input
from saliseg.saliency import load_head
from saliseg.segments import load_segments
from saliseg.store import DatastoreEntry, build_datastore, load_datastore, save_datastore


def make_features(F=4, D=2, valid_len=3, seed=0, video_id="v"):
    rng = np.random.default_rng(seed)
    spatial = rng.normal(size=(valid_len, D)).astype(np.float32)
    encoded = rng.normal(size=(valid_len, D)).astype(np.float32)
    return FrameFeatures(video_id=video_id, spatial=spatial, encoded=encoded, n_frames=F)


class TestFeatureFiles:
    def test_round_trip_identity(self, tmp_path):
        f = make_features(F=4, D=2, valid_len=3)
        path = tmp_path / "v.sfeat"
        save_features(f, path)
        g = load_features(path)
        assert g.video_id == "v"
        assert (g.valid_len, g.n_frames) == (3, 4)
        assert g.spatial.tobytes() == f.spatial.tobytes()
        assert g.encoded.tobytes() == f.encoded.tobytes()

    def test_two_saves_byte_identical(self, tmp_path):
        f = make_features(seed=5)
        save_features(f, tmp_path / "a.sfeat")
        save_features(f, tmp_path / "b.sfeat")
        assert (tmp_path / "a.sfeat").read_bytes() == (tmp_path / "b.sfeat").read_bytes()

    def test_truncated_body(self, tmp_path):
        f = make_features(F=2, D=3, valid_len=2)
        path = tmp_path / "v.sfeat"
        save_features(f, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])  # drop one float
        with pytest.raises(DataError, match="truncated body"):
            load_features(path)

    def test_valid_len_exceeds_frames(self, tmp_path):
        f = make_features(F=4, D=2, valid_len=4)
        path = tmp_path / "v.sfeat"
        save_features(f, path)
        raw = bytearray(path.read_bytes())
        # valid_len is the third u64 of the header
        raw[20:28] = (5).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="valid_len exceeds F"):
            load_features(path)

    def test_byte_flip_fuzz(self, tmp_path):
        f = make_features(F=6, D=4, valid_len=5, seed=1)
        path = tmp_path / "v.sfeat"
        save_features(f, path)
        original = path.read_bytes()
        rng = np.random.default_rng(7)
        for _ in range(40):
            pos = int(rng.integers(len(original)))
            bit = 1 << int(rng.integers(8))
            corrupted = bytearray(original)
            corrupted[pos] ^= bit
            path.write_bytes(bytes(corrupted))
            try:
                g = load_features(path)
            except DataError:
                continue
            changed = (
                g.spatial.tobytes() != f.spatial.tobytes()
                or g.encoded.tobytes() != f.encoded.tobytes()
                or g.valid_len != f.valid_len
                or g.n_frames != f.n_frames
            )
            assert changed, f"flip at byte {pos} went undetected"

    # Byte offsets of row 2 of each 3 x 2 matrix, after the 28-byte header.
    @pytest.mark.parametrize("offset", [28 + 16, 28 + 24 + 16], ids=["spatial", "encoded"])
    def test_nonzero_padding_rejected(self, tmp_path, offset):
        # The reader checks the zero rows that it drops: one padding value of
        # 1.0 in either matrix is a DataError.
        path = tmp_path / "v.sfeat"
        save_features(make_features(F=3, D=2, valid_len=2), path)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = np.float32(1.0).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="v: nonzero padding rows beyond valid_len"):
            load_features(path)

    def test_more_rows_than_frames_rejected(self):
        rows = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(DataError, match=re.escape("valid_len exceeds F (3 > 2)")):
            FrameFeatures(video_id="v", spatial=rows, encoded=rows, n_frames=2)


class TestHighlightLabels:
    def test_single_event(self):
        ann = EventAnnotation(video_id="v", valid_len=5, events=((1, 3),))
        lab = derive_highlight_labels(ann)
        np.testing.assert_array_equal(lab, [0, 1, 1, 0, 0])
        assert lab.sum() == 2

    def test_overlapping_union(self):
        ann = EventAnnotation(video_id="v", valid_len=4, events=((0, 2), (1, 4)))
        lab = derive_highlight_labels(ann)
        np.testing.assert_array_equal(lab, [1, 1, 1, 1])

    def test_event_exceeds_valid_len(self):
        with pytest.raises(DataError, match="event exceeds valid_len"):
            EventAnnotation(video_id="v", valid_len=4, events=((2, 6),))

    def test_empty_events_warns(self, caplog):
        ann = EventAnnotation(video_id="v", valid_len=4, events=())
        with caplog.at_level("WARNING"):
            lab = derive_highlight_labels(ann)
        assert lab.sum() == 0
        assert any("no events" in r.message for r in caplog.records)

    def test_monotone_in_events(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            events = sorted(
                (int(s), int(s) + int(rng.integers(1, 4)))
                for s in rng.integers(0, 16, size=n)
            )
            events = [(s, min(e, 20)) for s, e in events]
            base = derive_highlight_labels(EventAnnotation("v", 20, tuple(events[:-1])))
            more = derive_highlight_labels(EventAnnotation("v", 20, tuple(events)))
            assert np.all(more >= base)

    def test_total_highlights_equals_union_size(self):
        ann = EventAnnotation(video_id="v", valid_len=10, events=((0, 3), (5, 8)))
        lab = derive_highlight_labels(ann)
        assert lab.shape == (10,) and lab.sum() == 6

    @pytest.mark.parametrize(
        "valid_len, events, match",
        [
            (10, ((0.5, 3.7),), "event start must be an integer, got 0.5"),
            (10, ((0, 3.0),), "event end must be an integer, got 3.0"),
            (10, ((True, 3),), "event start must be an integer"),
            (10.0, ((0, 3),), "valid_len must be an integer, got 10.0"),
            ("10", (), "valid_len must be an integer"),
        ],
        ids=["fractional_start", "float_end", "bool_start", "float_valid_len", "str_valid_len"],
    )
    def test_fractional_frame_bounds_rejected(self, valid_len, events, match):
        with pytest.raises(DataError, match=match):
            EventAnnotation(video_id="v", valid_len=valid_len, events=events)

    def test_numpy_integer_frame_bounds_accepted(self):
        ann = EventAnnotation("v", np.int64(10), ((np.int32(1), np.uint8(3)),))
        assert (ann.valid_len, ann.events) == (10, ((1, 3),))
        assert all(type(v) is int for v in (ann.valid_len, *ann.events[0]))


class TestAnnotationsIO:
    def test_round_trip(self, tmp_path):
        anns = [
            EventAnnotation(video_id="a", valid_len=6, events=((0, 2), (3, 5))),
            EventAnnotation(video_id="b", valid_len=4, events=()),
        ]
        path = tmp_path / "anns.jsonl"
        save_annotations(anns, path)
        loaded = load_annotations(path)
        assert loaded == anns

    @pytest.mark.parametrize(
        "record",
        ['{"video_id": "a", "valid_len": 10, "events": [[0.5, 3.7]]}',
         '{"video_id": "a", "valid_len": 10.0, "events": []}'],
        ids=["fractional_event", "float_valid_len"],
    )
    def test_fractional_frame_bound_is_data_error(self, tmp_path, record):
        path = tmp_path / "anns.jsonl"
        path.write_text(record + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:1: bad annotation record: a: .* must be an integer"):
            load_annotations(path)

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "anns.jsonl"
        path.write_text('{"video_id": "a"\n', encoding="utf-8")
        with pytest.raises(DataError):
            load_annotations(path)


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "reader",
        [
            load_records, load_annotations, load_segments, load_features,
            load_datastore, load_head, load_decoder_input, load_config,
        ],
        ids=lambda fn: fn.__name__,
    )
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_a_data_error(self, tmp_path, reader, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            reader(path)


class FailingFile:
    """A file opened for reading whose reads fail after the first."""

    def __init__(self, path, mode):
        self.file = builtins.open(path, mode)
        self.reads = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def fileno(self):
        return self.file.fileno()

    def read(self, size):
        self.reads += 1
        if self.reads > 1:
            raise OSError(errno.EIO, "Input/output error")
        return self.file.read(size)


class TestReadPieces:
    def test_pieces_are_the_file_in_order(self, tmp_path, monkeypatch):
        path = tmp_path / "input"
        path.write_bytes(bytes(range(256)) * 3)
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 100)
        with read_pieces(path) as (size, pieces):
            parts = list(pieces)
        assert size == 768
        assert [len(part) for part in parts] == [100] * 7 + [68]
        assert b"".join(parts) == path.read_bytes()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_a_data_error(self, tmp_path, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            with read_pieces(path) as (_, pieces):
                list(pieces)

    def test_failed_read_midway_is_a_data_error(self, tmp_path, monkeypatch):
        path = tmp_path / "input"
        path.write_bytes(bytes(64))
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 16)
        monkeypatch.setattr(data_module, "open", FailingFile, raising=False)
        got = []
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: Input/output error$"):
            with read_pieces(path) as (_, pieces):
                got.extend(pieces)
        assert got == [bytes(16)]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_whole(self, tmp_path):
        """A pipe has no size until it is read to its end; a store sent
        through one loads as it does from its file."""
        saved = tmp_path / "store.sds"
        store = build_datastore([DatastoreEntry(f"e{i}", "c", np.eye(3)[i]) for i in range(3)])
        save_datastore(store, saved)
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(saved.read_bytes(),), daemon=True)
        writer.start()
        loaded = load_datastore(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded.entry_ids == store.entry_ids
        assert loaded.embeddings.tobytes() == store.embeddings.tobytes()

    def test_failed_datastore_read_midway_is_a_data_error(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sds"
        save_datastore(build_datastore([DatastoreEntry(f"e{i}", "", np.eye(4)[i]) for i in range(4)]), path)
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 32)
        monkeypatch.setattr(data_module, "open", FailingFile, raising=False)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: Input/output error$"):
            load_datastore(path)


class TestWriteFile:
    def test_failed_write_keeps_previous_content(self, tmp_path, monkeypatch):
        path = tmp_path / "out.jsonl"
        write_file(path, "old\n")
        real_write_bytes = Path.write_bytes

        def write_half_then_fail(self, data):
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OutputError, match=f"^{re.escape(str(path))}: No space left"):
            write_file(path, "new content that does not fit\n")
        monkeypatch.undo()
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.tau == 0.5 and cfg.K == 8 and cfg.windows == (8, 32, 64)

    def test_json_round_trip_over_every_field(self):
        cfg = PipelineConfig(tau=0.25, mu=0.2, gamma=0.4, alpha=0.6, epsilon=0.05, K=6,
                             top_k=3, top_p=7, windows=(4, 16), F_max=80, seed=3)
        names = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert all(getattr(cfg, n) != getattr(PipelineConfig(), n) for n in names)
        assert sorted(json.loads(cfg.to_json())) == sorted(names)
        assert dataclass_from_json(PipelineConfig, cfg.to_json()) == cfg

    def test_lambda_rejected_as_unknown_key(self):
        # The saliency-loss weight only rescaled Adam's epsilon, so it is gone.
        assert "lambda" not in PipelineConfig().to_json()
        with pytest.raises(ConfigError, match=r"unknown PipelineConfig keys: \['lambda'\]"):
            dataclass_from_json(PipelineConfig, '{"lambda": 6.0}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown PipelineConfig keys"):
            dataclass_from_json(PipelineConfig, '{"tau": 0.5, "bogus": 1}')

    def test_rho_rejected_as_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown PipelineConfig keys"):
            dataclass_from_json(PipelineConfig, '{"rho": 0.3}')

    @pytest.mark.parametrize(
        "overrides",
        [
            {"tau": 0.0},
            {"epsilon": -1.0},
            {"epsilon": float("inf")},
            {"gamma": float("inf")},
            {"K": 0},
            {"top_k": 9},
            {"alpha": 1.5},
            {"windows": (8, 8, 64)},
            {"windows": (8, 32, 200)},
            {"K": 8.5},
            {"K": True},
            {"top_k": True},
            {"top_p": 2.5},
            {"F_max": 100.0},
            {"seed": 1.5},
            {"windows": (8.5, 32, 64)},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**overrides)

    def test_numpy_integers_accepted_as_ints(self):
        cfg = PipelineConfig(K=np.int64(6), top_k=np.int32(3), windows=(np.int64(8), 32),
                             seed=np.uint8(2))
        assert (cfg.K, cfg.top_k, cfg.windows, cfg.seed) == (6, 3, (8, 32), 2)
        assert all(type(v) is int for v in (cfg.K, cfg.top_k, cfg.windows[0], cfg.seed))
        assert json.loads(cfg.to_json())["K"] == 6

    @pytest.mark.parametrize(
        "text",
        [
            '{"tau": NaN}',
            '{"tau": Infinity}',
            '{"epsilon": NaN}',
            '{"gamma": NaN}',
            '{"gamma": Infinity}',
            '{"epsilon": Infinity}',
            '{"lambda": NaN}',
            '{"lambda": Infinity}',
            '{"mu": NaN}',
            '{"mu": Infinity}',
            '{"alpha": NaN}',
            '{"windows": [1, 4]}',
        ],
    )
    def test_nan_infinite_and_short_window_rejected_at_load(self, text):
        with pytest.raises(ConfigError):
            dataclass_from_json(PipelineConfig, text)

    @pytest.mark.parametrize(
        "text",
        ["3", "[1]", '{"K": "x"}', '{"windows": ["a"]}', "{",
         pytest.param('{"K": ' + "9" * 5000 + "}", id="integer_past_digit_limit")],
    )
    def test_malformed_json_is_config_error(self, text):
        with pytest.raises(ConfigError):
            dataclass_from_json(PipelineConfig, text)
