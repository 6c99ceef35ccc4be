"""Caption datastore with exact cosine top-p retrieval.

On-disk format: magic ``b"SDS1"``, little-endian u64 entry count N and
dimension D, then N records of u32 id length, UTF-8 id bytes, u32 caption
length, UTF-8 caption bytes, and D little-endian f32 embedding values.
Embeddings are unit L2 norm; :func:`build_datastore` normalizes on entry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .data import read_file, write_file
from .errors import DataError
from .segments import SegmentSet, pool_segment_features

_MAGIC = b"SDS1"


@dataclass(frozen=True)
class DatastoreEntry:
    entry_id: str
    caption: str
    embedding: NDArray[np.float32]


class Datastore:
    """Immutable set of caption records queried by cosine similarity."""

    def __init__(self, entry_ids: list[str], captions: list[str], embeddings: NDArray[np.float32]):
        self.entry_ids = list(entry_ids)
        self.captions = list(captions)
        self.embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
        if self.embeddings.ndim != 2 or len(self.entry_ids) != self.embeddings.shape[0]:
            raise DataError("embeddings must be N x D matching the id list")
        norms = np.linalg.norm(self.embeddings.astype(np.float64), axis=1)
        # Written so that a NaN norm fails the test too.
        if self.embeddings.shape[0] and not np.all(np.abs(norms - 1.0) <= 1e-5):
            raise DataError("embeddings must be finite and unit norm")
        self._index = {entry_id: i for i, entry_id in enumerate(self.entry_ids)}
        self._id_array = np.asarray(self.entry_ids, dtype=object)

    def __len__(self) -> int:
        return len(self.entry_ids)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def build_datastore(entries: list[DatastoreEntry]) -> Datastore:
    """Normalize and index entries; ids must be unique and embeddings nonzero."""
    seen: set[str] = set()
    ids, captions, vectors = [], [], []
    dim = None
    for e in entries:
        if e.entry_id in seen:
            raise DataError(f"duplicate entry id {e.entry_id!r}")
        seen.add(e.entry_id)
        v = np.asarray(e.embedding, dtype=np.float64)
        if v.ndim != 1:
            raise DataError(f"{e.entry_id}: embedding must be a vector")
        if dim is None:
            dim = v.shape[0]
        elif v.shape[0] != dim:
            raise DataError(f"{e.entry_id}: dimension mismatch ({v.shape[0]} != {dim})")
        norm = float(np.linalg.norm(v))
        if norm == 0:
            raise DataError(f"{e.entry_id}: zero-norm embedding")
        ids.append(e.entry_id)
        captions.append(e.caption)
        vectors.append((v / norm).astype(np.float32))
    emb = np.stack(vectors) if vectors else np.zeros((0, 0), dtype=np.float32)
    return Datastore(ids, captions, emb)


def query_topp(store: Datastore, query: NDArray[np.float64], p: int) -> list[tuple[str, float]]:
    """Exact top-p by cosine similarity; ties break on lexicographic id.

    Equivalent to a full linear scan for every input; ``p`` larger than the
    store simply returns everything sorted.
    """
    if len(store) == 0:
        raise DataError("empty datastore")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (store.dim,):
        raise DataError(f"query must have dimension {store.dim}")
    norm = float(np.linalg.norm(q))
    if norm == 0:
        raise DataError("zero query vector")
    sims = store.embeddings.astype(np.float64) @ (q / norm)
    # lexsort: primary key descending similarity, ties by ascending id
    order = np.lexsort((store._id_array, -sims))
    return [(store.entry_ids[i], float(sims[i])) for i in order[: min(p, len(store))]]


@dataclass(frozen=True)
class RetrievalResult:
    """Per selected segment: ranked neighbors and the mean retrieval vector."""

    neighbors: list[list[tuple[str, float]]]
    vectors: NDArray[np.float64]


def retrieval_vectors(
    segs: SegmentSet,
    xs: NDArray[np.float64],
    p_s: NDArray[np.float64],
    store: Datastore,
    p: int,
) -> RetrievalResult:
    """Pool each selected segment, retrieve top-p captions, average embeddings.

    Selected segments are processed in temporal order; the stacked result is
    one row per selected segment. The mean of unit vectors can have norm
    below one and is intentionally left un-normalized.
    """
    neighbors = []
    vectors = []
    for seg in segs.selected_segments():
        pooled = pool_segment_features(seg, xs, p_s)
        hits = query_topp(store, pooled, p)
        neighbors.append(hits)
        idx = [store._index[h[0]] for h in hits]
        vectors.append(store.embeddings[idx].astype(np.float64).mean(axis=0))
    mat = np.stack(vectors) if vectors else np.zeros((0, store.dim))
    return RetrievalResult(neighbors=neighbors, vectors=mat)


# ---------------------------------------------------------------------------
# Datastore file IO
# ---------------------------------------------------------------------------

def save_datastore(store: Datastore, path: str | Path) -> None:
    payload = bytearray()
    payload += _MAGIC
    payload += struct.pack("<QQ", len(store), store.dim)
    for i in range(len(store)):
        id_bytes = store.entry_ids[i].encode("utf-8")
        cap_bytes = store.captions[i].encode("utf-8")
        payload += struct.pack("<I", len(id_bytes)) + id_bytes
        payload += struct.pack("<I", len(cap_bytes)) + cap_bytes
        payload += store.embeddings[i].astype("<f4").tobytes()
    write_file(path, bytes(payload))


def load_datastore(path: str | Path) -> Datastore:
    raw = read_file(path)
    if len(raw) < 20 or raw[:4] != _MAGIC:
        raise DataError(f"{path}: bad datastore header")
    n, dim = struct.unpack_from("<QQ", raw, 4)
    # Every record holds at least its two u32 lengths and D f32 values; a D
    # past the u32 range is a corrupt header even in a store with no records.
    if dim >= 2**32 or n * (8 + 4 * dim) > len(raw) - 20:
        raise DataError(f"{path}: header N={n}, D={dim} does not fit in {len(raw)} bytes")
    offset = 20
    ids, captions, vectors = [], [], []
    try:
        for _ in range(n):
            (id_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            entry_id = raw[offset : offset + id_len].decode("utf-8")
            offset += id_len
            (cap_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            caption = raw[offset : offset + cap_len].decode("utf-8")
            offset += cap_len
            vec = np.frombuffer(raw, dtype="<f4", count=dim, offset=offset)
            if vec.shape[0] != dim:
                raise DataError(f"{path}: truncated record")
            offset += dim * 4
            ids.append(entry_id)
            captions.append(caption)
            vectors.append(vec)
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise DataError(f"{path}: truncated or corrupt datastore: {exc}") from exc
    if offset != len(raw):
        raise DataError(f"{path}: trailing bytes in datastore")
    emb = np.stack(vectors) if vectors else np.zeros((0, dim), dtype=np.float32)
    return Datastore(ids, captions, emb)
