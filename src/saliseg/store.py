"""Caption datastore with exact cosine top-p retrieval.

On-disk format: magic ``b"SDS1"``, little-endian u64 entry count N and
dimension D, then N records of u32 id length, UTF-8 id bytes, u32 caption
length, UTF-8 caption bytes, and D little-endian f32 embedding values.
Embeddings are unit L2 norm; :func:`build_datastore` normalizes on entry.

In memory a :class:`Datastore` holds the embeddings as one ``N x D`` float64
matrix whose values are rounded through f32, so they are exactly the values a
file stores, plus the rank of each id in code-point order. Retrieval is
exact: :func:`query_topp` returns what a full sort of the linear scan
``embeddings @ (q / |q|)`` by (descending similarity, ascending id) returns,
bit for bit.
"""

from __future__ import annotations

import math
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
    """Immutable set of caption records queried by cosine similarity.

    The constructor is the one place that checks a store: unique ids, an
    ``N x D`` embedding matrix with one row per id, and finite unit-norm rows.
    """

    def __init__(self, entry_ids: list[str], captions: list[str], embeddings: NDArray[np.floating]):
        self.entry_ids = list(entry_ids)
        self.captions = list(captions)
        # f64 for the scan, holding the f32 values a file stores.
        self.embeddings = np.ascontiguousarray(_matrix(embeddings, np.float32), dtype=np.float64)
        if self.embeddings.ndim != 2 or len(self.entry_ids) != self.embeddings.shape[0]:
            raise DataError("embeddings must be N x D matching the id list")
        if len(self.captions) != len(self.entry_ids):
            raise DataError("one caption per id is required")
        norms = np.linalg.norm(self.embeddings, axis=1)
        # Written so that a NaN norm fails the test too.
        if self.embeddings.shape[0] and not np.all(np.abs(norms - 1.0) <= 1e-5):
            raise DataError("embeddings must be finite and unit norm")
        self._index = {entry_id: i for i, entry_id in enumerate(self.entry_ids)}
        if len(self._index) != len(self.entry_ids):
            dup = next(e for i, e in enumerate(self.entry_ids) if self._index[e] != i)
            raise DataError(f"duplicate entry id {dup!r}")
        by_id = sorted(range(len(self.entry_ids)), key=self.entry_ids.__getitem__)
        self._rank = np.empty(len(by_id), dtype=np.int64)
        self._rank[by_id] = np.arange(len(by_id))

    def __len__(self) -> int:
        return len(self.entry_ids)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def _matrix(rows, dtype) -> NDArray:
    try:
        return np.asarray(rows, dtype=dtype)
    except ValueError as exc:  # rows of different lengths
        raise DataError("embeddings differ in dimension") from exc


def build_datastore(entries: list[DatastoreEntry]) -> Datastore:
    """Normalize entries to unit norm in float64; :class:`Datastore` rounds
    them to float32 and checks the rest."""
    emb = _matrix([e.embedding for e in entries] or np.zeros((0, 0)), np.float64)
    if emb.ndim == 2:  # the constructor rejects any other shape
        with np.errstate(over="ignore"):  # finite entries can still overflow the norm
            norms = np.linalg.norm(emb, axis=1, keepdims=True)
        # A NaN or infinite entry leaves its norm NaN or infinite too.
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise DataError(f"{entries[bad[0]].entry_id}: embedding and its norm must be finite")
        zero = np.flatnonzero(norms == 0)
        if zero.size:
            raise DataError(f"{entries[zero[0]].entry_id}: zero-norm embedding")
        emb /= norms
    return Datastore([e.entry_id for e in entries], [e.caption for e in entries], emb)


def query_topp(store: Datastore, query: NDArray[np.float64], p: int) -> list[tuple[str, float]]:
    """Exact top-p by cosine similarity; ties break on id in code-point order.

    One matrix-vector product gives every similarity and ``np.partition`` the
    p-th largest. Every entry at or above that cut, ties included, is then
    sorted, so the result is a full linear scan's for every input. ``p``
    larger than the store returns everything sorted.
    """
    if len(store) == 0:
        raise DataError("empty datastore")
    if p < 1:
        raise DataError("p must be >= 1")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (store.dim,):
        raise DataError(f"query must have dimension {store.dim}")
    with np.errstate(over="ignore"):  # finite entries can still overflow the norm
        norm = float(np.linalg.norm(q))
    if not math.isfinite(norm):
        raise DataError("query vector and its norm must be finite")
    if norm == 0:
        raise DataError("zero query vector")
    sims = store.embeddings @ (q / norm)
    kth = len(store) - min(p, len(store))
    hits = np.flatnonzero(sims >= np.partition(sims, kth)[kth])
    # lexsort: primary key descending similarity, ties by ascending id rank
    hits = hits[np.lexsort((store._rank[hits], -sims[hits]))][:p]
    return [(store.entry_ids[i], float(sims[i])) for i in hits]


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
        vectors.append(store.embeddings[idx].mean(axis=0))
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
    ids, captions, starts = [], [], []
    try:
        for _ in range(n):
            (id_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            ids.append(raw[offset : offset + id_len].decode("utf-8"))
            offset += id_len
            (cap_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            captions.append(raw[offset : offset + cap_len].decode("utf-8"))
            offset += cap_len
            starts.append(offset)
            offset += dim * 4
            if offset > len(raw):
                raise DataError(f"{path}: truncated record")
    except (struct.error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: truncated or corrupt datastore: {exc}") from exc
    if offset != len(raw):
        raise DataError(f"{path}: trailing bytes in datastore")
    if not starts:
        return Datastore([], [], np.zeros((0, dim), dtype=np.float32))
    # One gather of every record's 4*D embedding bytes, at any alignment.
    windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(raw, np.uint8), 4 * dim)
    return Datastore(ids, captions, windows[starts].view("<f4"))
