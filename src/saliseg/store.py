"""Caption datastore with exact cosine top-p retrieval.

On-disk format: magic ``b"SDS1"``, little-endian u64 entry count N and
dimension D, then N records of u32 id length, UTF-8 id bytes, u32 caption
length, UTF-8 caption bytes, and D little-endian f32 embedding values.
Embeddings are unit L2 norm; :func:`build_datastore` normalizes on entry.

In memory a :class:`Datastore` holds the embeddings as one ``N x D`` float32
matrix of exactly the values a file stores, and holds each once:
:func:`load_datastore` fills it in row chunks straight from the file's bytes
and drops the file before the constructor checks it, and the constructor
keeps a C-contiguous float32 matrix as it is.

Retrieval is exact and the same on every machine. A query ``q`` is scaled to
``q̂ = q / sqrt(fsum(q_i²))`` in float64 (a query whose largest value is
below ``1/2`` is first scaled up by a power of two, exactly, so that its
squares stay in the normal range), and the similarity of a stored
embedding ``e`` is the correctly rounded value of the exact dot product
``Σ e_i q̂_i``; results rank by descending similarity, then by id in
code-point order. :func:`query_topp` answers a matrix of queries per call:
one float32 GEMM per block of queries screens the whole store with a proven
error bound, and only the entries the screen cannot rule out are rescored
exactly. This is the exact re-ranking step of a refine index (Johnson, Douze
and Jégou, "Billion-scale similarity search with GPUs", 2017) with a
certified margin in place of a fixed over-fetch, and the rescoring is an
error-free dot product in the sense of Ogita, Rump and Oishi ("Accurate sum
and dot product", SIAM J. Sci. Comput. 2005).
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .data import read_file, write_file
from .errors import DataError
from .segments import SegmentSet, pool_segment_features

_MAGIC = b"SDS1"
# Every N x D pass works in row chunks of at most this many bytes of f64, so
# no temporary reaches glibc's 128 KiB mmap threshold.
_CHUNK_BYTES = 64 * 1024
# The B x N float32 screen of one block of queries holds at most this many
# bytes (at least one row): 20 queries against 100k entries.
_SCREEN_BYTES = 8 * 2**20
# Unit roundoff of float32.
_U32 = 2.0**-24
# Veltkamp's splitter for float64: q = hi + lo, each half of at most 26 bits.
_SPLIT = 2.0**27 + 1
# A nonzero half at least this large times a nonzero float32 (at least
# 2**-149) is at least 2**-1021: a normal float64, so the product is exact.
_SAFE_HALF = 2.0**-872


@dataclass(frozen=True)
class DatastoreEntry:
    entry_id: str
    caption: str
    embedding: NDArray[np.float32]


class Datastore:
    """Immutable set of caption records queried by cosine similarity.

    The constructor is the one place that checks a store: unique ids, a real
    ``N x D`` embedding matrix with one row per id, and finite unit-norm rows
    (checked in float64, row chunk by row chunk). ``embeddings`` is a
    C-contiguous float32 matrix: any other input is rounded to float32 once,
    into a new matrix, and a C-contiguous float32 input is kept without a
    copy, so the caller should not change it later. The caller's values are
    never changed.
    """

    def __init__(self, entry_ids: list[str], captions: list[str], embeddings: NDArray[np.floating]):
        self.entry_ids = list(entry_ids)
        self.captions = list(captions)
        emb = _matrix(embeddings)
        if emb.ndim != 2 or len(self.entry_ids) != emb.shape[0]:
            raise DataError("embeddings must be N x D matching the id list")
        if len(self.captions) != len(self.entry_ids):
            raise DataError("one caption per id is required")
        # An entry past the f32 range rounds to inf, and so fails the norm test.
        with np.errstate(over="ignore"):
            emb = np.ascontiguousarray(emb, dtype=np.float32)
        for rows in _row_chunks(emb.shape):
            chunk = emb[rows].astype(np.float64)
            norms = np.sqrt(np.einsum("ij,ij->i", chunk, chunk))
            # Written so that a NaN norm fails the test too.
            if not np.all(np.abs(norms - 1.0) <= 1e-5):
                raise DataError("embeddings must be finite and unit norm")
        self.embeddings = emb
        self._index = {entry_id: i for i, entry_id in enumerate(self.entry_ids)}
        if len(self._index) != len(self.entry_ids):
            dup = next(e for i, e in enumerate(self.entry_ids) if self._index[e] != i)
            raise DataError(f"duplicate entry id {dup!r}")

    def __len__(self) -> int:
        return len(self.entry_ids)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def _row_chunks(shape: tuple[int, int]):
    """Slices of at most ``_CHUNK_BYTES`` of f64 rows each, and at least one row."""
    n, dim = shape
    step = max(1, _CHUNK_BYTES // (8 * max(dim, 1)))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _matrix(rows) -> np.ndarray:
    try:
        emb = np.asarray(rows)
    except ValueError as exc:  # rows of different lengths
        raise DataError("embeddings differ in dimension") from exc
    if emb.dtype.kind not in "iuf":
        raise DataError(f"embeddings must be real numbers, not {emb.dtype}")
    return emb


def build_datastore(entries: list[DatastoreEntry]) -> Datastore:
    """Normalize entries to unit norm in float64; :class:`Datastore` rounds
    them to float32 and checks the rest."""
    emb = np.asarray(_matrix([e.embedding for e in entries] or np.zeros((0, 0))), np.float64)
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


def _unit_rows(store: Datastore, queries: NDArray[np.float64]) -> NDArray[np.float64]:
    """Each row of the ``Q x D`` ``queries`` over its norm, the square root
    of ``math.fsum`` of its squares, so no BLAS build enters; a bad row is a
    :class:`DataError`.

    A row whose largest ``|q_i|`` is below ``1/2`` is first scaled up by the
    power of two that brings it into ``[1/2, 1)``. That is exact, and leaves
    the result of every row whose squares are normal as it was, but the
    squares that count can no longer fall below float64's normal range, so
    ``q̂`` has unit norm to within a few units of float64 rounding for every
    finite nonzero query, as :func:`_screen_margin` assumes.
    """
    if len(store) == 0:
        raise DataError("empty datastore")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != store.dim:
        raise DataError(f"query must have dimension {store.dim}")
    top = np.max(np.abs(q), axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise DataError("query vector and its norm must be finite")
    if np.any(top == 0):
        raise DataError("zero query vector")
    q = np.ldexp(q, -np.minimum(np.frexp(top)[1], 0))
    with np.errstate(over="ignore"):  # finite entries can still overflow the norm
        squares = (q * q).tolist()
    try:
        norms = np.sqrt([math.fsum(row) for row in squares]).reshape(-1, 1)
    except OverflowError:  # finite squares whose sum overflows
        norms = np.array([[math.inf]])
    if not np.all(np.isfinite(norms)):
        raise DataError("query vector and its norm must be finite")
    return q / norms


def _screen_margin(dim: int) -> float:
    """``2b``, where ``b`` bounds ``|ŝ − s|`` for a float32 screened score
    ``ŝ`` of a unit query ``q̂`` against a stored row ``e``.

    ``ŝ`` is the float32 dot product of ``e`` with ``q̂`` rounded to float32.
    Three terms make up ``b``: the standard bound ``γ_D Σ|e_i||q̂_i|`` of a
    D-term float32 dot product, ``γ_D = D u / (1 − D u)`` with ``u = 2**-24``,
    which holds for any summation order, with or without fused multiply-adds
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3); the
    rounding of ``q̂`` to float32, ``u Σ|e_i||q̂_i|``; and an absolute term of
    ``2**-126`` per product and per query value for float32 underflow, which
    also covers a BLAS that flushes subnormals to zero. Both sums are at most
    ``|e| |q̂|``, within ``1e-5`` of one for a stored row and a few float32
    units over one for the query; ``1 + 1e-4`` bounds them with room for the
    float64 rounding of the cut.
    """
    if dim * _U32 >= 1:  # no useful bound: every entry is a candidate
        return math.inf
    gamma = dim * _U32 / (1 - dim * _U32)
    return 2 * ((gamma + _U32) * (1 + 1e-4) + 2 * dim * 2.0**-126)


def _exact_dots(emb: NDArray[np.float32], unit: NDArray[np.float64]) -> list[float]:
    """The correctly rounded exact dot product of each row of ``emb`` with the
    same row of ``unit``.

    Veltkamp's split (Dekker, Numer. Math. 1971) writes each query value as
    two halves of at most 26 bits, so each product of a half with a 24-bit
    float32 is exact in float64 unless it falls below the normal range, and
    ``math.fsum`` of the ``2 D`` products is the correctly rounded sum. A row
    whose query holds a nonzero half under ``_SAFE_HALF`` may form such a
    product, so it is summed exactly in integers instead: a float32 is an
    integer times ``2**-149`` and a float64 one times ``2**-1074``, and
    Python's integer division rounds the integer sum once, correctly.
    """
    scaled = unit * _SPLIT
    hi = scaled - (scaled - unit)
    halves = np.concatenate([hi, unit - hi], axis=1)
    sims = list(map(math.fsum, (np.tile(emb, 2) * halves).tolist()))
    exact = np.all((halves == 0) | (np.abs(halves) >= _SAFE_HALF), axis=1)
    for i in np.flatnonzero(~exact):
        total = 0
        for a, b in zip(emb[i].tolist(), unit[i].tolist()):
            num, den = b.as_integer_ratio()  # den is a power of two
            total += int(a * 2.0**149) * num * (2**1074 // den)
        sims[i] = total / 2**1223
    return sims


def _block_topp(store: Datastore, unit: NDArray[np.float64], p: int) -> list[list[tuple[str, float]]]:
    """Exact top-p of each unit query row of one block against the store."""
    screen = unit.astype(np.float32) @ store.embeddings.T  # B x N, |ŝ − s| <= b
    n = screen.shape[1]
    margin = _screen_margin(store.dim)
    candidates = []
    # Row chunk by row chunk, so the partition copies at most one chunk.
    for rows in _row_chunks(screen.shape):
        part = screen[rows]
        # Every exact top-p entry has ŝ >= ŝ_(p) − 2b; the cut is taken in
        # float64, then raised to the least float32 at or above it, which
        # float32 scores pass exactly when they pass the float64 cut.
        cut = np.partition(part, n - p, axis=1)[:, n - p].astype(np.float64) - margin
        cut32 = cut.astype(np.float32)
        cut32 = np.where(cut32 < cut, np.nextafter(cut32, np.float32(np.inf)), cut32)
        candidates.append(np.flatnonzero(part >= cut32[:, None]) + rows.start * n)
    flat = np.concatenate(candidates)  # row-major, so grouped by query row
    row, col = np.divmod(flat, n)
    sims = []
    for pairs in _row_chunks((len(flat), 2 * store.dim)):  # small float lists
        sims += _exact_dots(store.embeddings[col[pairs]], unit[row[pairs]])
    ids = [store.entry_ids[j] for j in col.tolist()]
    bounds = np.searchsorted(row, np.arange(len(unit) + 1)).tolist()
    hits = []
    for lo, hi in zip(bounds, bounds[1:]):
        # Descending similarity, ties by ascending id; negation is exact.
        ranked = sorted(zip([-s for s in sims[lo:hi]], ids[lo:hi]))[:p]
        hits.append([(entry_id, -neg) for neg, entry_id in ranked])
    return hits


def query_topp(store: Datastore, queries: NDArray[np.float64], p: int) -> list:
    """Exact top-p by cosine similarity of each row of the ``Q x D``
    ``queries``; ties break on id in code-point order.

    Returns one ranked ``[(entry_id, similarity), ...]`` list per row; a
    single D-vector query returns its one list. ``p`` larger than the store
    returns everything sorted. The rows go through in blocks whose ``B x N``
    float32 screen fits ``_SCREEN_BYTES``; each row's result is exact, so it
    does not depend on the block it shares.
    """
    q = np.asarray(queries, dtype=np.float64)
    unit = _unit_rows(store, q[None] if q.ndim == 1 else q)
    if p < 1:
        raise DataError("p must be >= 1")
    p = min(p, len(store))
    block = max(1, _SCREEN_BYTES // (4 * len(store)))
    hits = []
    for lo in range(0, len(unit), block):
        hits += _block_topp(store, unit[lo : lo + block], p)
    return hits[0] if q.ndim == 1 else hits


def segment_queries(
    segs: SegmentSet,
    xs: NDArray[np.float64],
    p_s: NDArray[np.float64],
    store: Datastore,
) -> NDArray[np.float64]:
    """The saliency-pooled query of each selected segment in temporal order,
    one row each, checked as :func:`query_topp` checks it, so that a segment
    past the frames or a query that is zero, not finite or of the wrong
    dimension fails here, with its video."""
    rows = [pool_segment_features(seg, xs, p_s) for seg in segs.selected_segments()]
    if not rows:
        return np.zeros((0, store.dim))
    queries = np.stack(rows)
    # Checked here, but returned as pooled: query_topp scales them itself,
    # and scaling an already scaled row again could change its last bits.
    _unit_rows(store, queries)
    return queries


def retrieval_vectors(
    queries: NDArray[np.float64], store: Datastore, p: int
) -> tuple[list[list[tuple[str, float]]], NDArray[np.float64]]:
    """Top-p captions of each query row, in one :func:`query_topp` call, and
    the mean of their embeddings, one row per query.

    The mean is taken in float64 over the float32 rows. The mean of unit
    vectors can have norm below one and is intentionally left
    un-normalized.
    """
    if not len(queries):
        return [], np.zeros((0, store.dim))
    neighbors = query_topp(store, queries, p)
    rows = [[store._index[entry_id] for entry_id, _ in hits] for hits in neighbors]
    return neighbors, store.embeddings[rows].astype(np.float64).mean(axis=1)


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
    ids, captions, starts = [], [], array("q")
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
    # One f32 matrix filled in row chunks from every record's 4*D embedding
    # bytes, at any alignment; the file is freed before the store is checked.
    emb = np.empty((n, dim), dtype=np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(raw, np.uint8), 4 * dim)
    for rows in _row_chunks(emb.shape):
        emb[rows] = windows[np.frombuffer(starts[rows], np.int64)].view("<f4")
    del raw, windows, starts
    return Datastore(ids, captions, emb)
