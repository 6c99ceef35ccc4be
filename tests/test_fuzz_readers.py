"""Fuzzed binary readers: every corrupted file either loads or is a DataError.

Each reader gets a small valid file, then seeded truncations, seeded
single-bit flips, for its fixed binary header the top bit of every u64
field set, and a few crafted headers. Any exception other than
:class:`DataError` fails the test.
"""

import struct

import numpy as np
import pytest

from saliseg import data as data_module
from saliseg.data import FrameFeatures, load_features, save_features
from saliseg.errors import DataError
from saliseg.prompts import DecoderInput, load_decoder_input, save_decoder_input
from saliseg.saliency import init_head, load_head, save_head
from saliseg.store import DatastoreEntry, build_datastore, load_datastore, save_datastore

N_TRUNCATIONS = 150
N_FLIPS = 300


def write_features(path):
    rng = np.random.default_rng(0)
    spatial = rng.normal(size=(5, 3)).astype(np.float32)
    save_features(FrameFeatures("v", spatial, 2 * spatial, n_frames=6), path)


def write_datastore(path):
    rng = np.random.default_rng(1)
    entries = [DatastoreEntry(f"e{i}", f"caption {i}", rng.normal(size=4)) for i in range(4)]
    save_datastore(build_datastore(entries), path)


def write_head(path):
    save_head(init_head(3, seed=2), path)


def write_decoder_input(path):
    seq = np.random.default_rng(3).normal(size=(7, 3))
    save_decoder_input(DecoderInput(seq, lengths=(4, 2, 1)), path)


# reader, writer of a valid file, byte offsets of the u64 header fields
READERS = {
    "sfeat": (load_features, write_features, (4, 12, 20)),
    "sds": (load_datastore, write_datastore, (4, 12)),
    "head": (load_head, write_head, ()),  # JSON header: no u64 fields
    "stin": (load_decoder_input, write_decoder_input, (4, 12, 20, 28)),
}

# Headers that no single flip of a valid file produces: no rows with a huge
# D, and checkpoint headers of the wrong JSON type or value.
CRAFTED = {
    "sfeat": [struct.pack("<4sQQQ", b"SFT1", 0, 2**63, 0)],
    "sds": [b"SDS1" + struct.pack("<QQ", 0, 2**63)],
    "head": [
        b"[1]\n",
        b"3\n",
        b'{"D": "x", "tau": 0.5}\n',
        b'{"D": -1, "tau": 0.5}\n' + bytes(4),
        b'{"D": 1, "tau": "x"}\n' + bytes(12),
        b'{"D": 1e999}\n',
    ],
    "stin": [b"STI3" + struct.pack("<4Q", 2**63, 0, 0, 0)],
}


def corruptions(raw: bytes, u64_offsets, seed: int):
    rng = np.random.default_rng(seed)
    for cut in rng.integers(0, len(raw), N_TRUNCATIONS):
        yield f"truncated to {cut}", raw[:cut]
    for bit in rng.integers(0, 8 * len(raw), N_FLIPS):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)
    for offset in u64_offsets:
        flipped = bytearray(raw)
        flipped[offset + 7] ^= 0x80
        yield f"top bit of the u64 at {offset} flipped", bytes(flipped)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_corrupt_file_loads_or_is_data_error(tmp_path, kind):
    reader, writer, u64_offsets = READERS[kind]
    path = tmp_path / f"file.{kind}"
    writer(path)
    reader(path)
    failures = []
    cases = list(corruptions(path.read_bytes(), u64_offsets, seed=0))
    cases += [(f"crafted header {data[:24]!r}", data) for data in CRAFTED[kind]]
    for label, data in cases:
        path.write_bytes(data)
        try:
            reader(path)
        except DataError:
            pass
        except Exception as exc:
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not failures, failures[:5]


def test_corrupt_datastore_read_in_small_pieces_loads_or_is_data_error(tmp_path, monkeypatch):
    """The datastore cases again, read 7 bytes at a time, so that headers,
    lengths and records straddle the pieces."""
    monkeypatch.setattr(data_module, "_PIECE_BYTES", 7)
    test_corrupt_file_loads_or_is_data_error(tmp_path, "sds")
