"""Caption datastore with exact cosine top-p retrieval.

On-disk format: magic ``b"SDS1"``, little-endian u64 entry count N and
dimension D, then N records of u32 id length, UTF-8 id bytes, u32 caption
length, UTF-8 caption bytes, and D little-endian f32 embedding values.
Embeddings are unit L2 norm; :func:`build_datastore` normalizes on entry.

In memory a :class:`Datastore` holds no Python object per entry. The
embeddings are one ``N x D`` float32 matrix of exactly the values a file
stores. The ids and the captions are each one UTF-8 buffer plus ``N + 1``
int64 offsets, Apache Arrow's variable-size binary layout, read through a
sequence of ``str`` that decodes one string per access; a hit names its row,
and only the ids a query returns are decoded. :func:`load_datastore` reads
the file in fixed pieces (``data.read_pieces``) and never holds it whole:
it walks the lengths of the records each piece completes, carrying a
partial record over to the next piece, and gathers their embeddings into
the preallocated ``N x D`` matrix and their ids and captions onto the two
buffers in row chunks with numpy; the constructor keeps a C-contiguous
float32 matrix as it is.

Retrieval is exact and the same on every machine. A query ``q`` is scaled to
``q̂ = q / sqrt(fsum(q_i²))`` in float64 (a query whose largest value is
below ``1/2`` is first scaled up by a power of two, exactly, so that its
squares stay in the normal range), and the similarity of a stored
embedding ``e`` is the correctly rounded value of the exact dot product
``Σ e_i q̂_i``; results rank by descending similarity, then by id in
code-point order. :func:`query_topp` answers a matrix of queries per call:
a block of queries screens the store one chunk of entries at a time, one
float32 GEMM per chunk into one reused buffer, with a proven error bound
and a running lower bound on each query's p-th screened score, and only the
entries the screen cannot rule out are rescored exactly. The running bound
is the streamed k-selection, and the rescoring the exact re-ranking step, of
a refine index (Johnson, Douze and Jégou, "Billion-scale similarity search
with GPUs", 2017), with a certified margin in place of a fixed over-fetch;
the rescoring is an error-free dot product in the sense of Ogita, Rump and
Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 2005).
"""

from __future__ import annotations

import codecs
import io
import math
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .data import read_pieces, write_file
from .errors import DataError
from .segments import SegmentSet, pool_segment_features

_MAGIC = b"SDS1"
_U32_AT = struct.Struct("<I").unpack_from
# Every N x D pass works in row chunks of at most this many bytes of f64, so
# no temporary reaches glibc's 128 KiB mmap threshold.
_CHUNK_BYTES = 64 * 1024
# Queries go through in blocks of at most _BLOCK_ROWS, and a block screens
# the store in chunks of entries whose B x c float32 scores hold at most
# _SCREEN_BYTES (at least one entry): 200 queries against 1310 entries, and
# never fewer than 1024 entries at a time for a full block.
_BLOCK_ROWS = 256
_SCREEN_BYTES = 2**20
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


class _Strings(Sequence):
    """A read-only sequence of ``str`` held as one UTF-8 buffer and the
    ``N + 1`` int64 offsets that bound its strings: string ``i`` is
    ``buf[offsets[i] : offsets[i + 1]]``, decoded when it is read. It equals
    another such sequence, or a list, with the same strings."""

    def __init__(self, buf: bytes, offsets: NDArray[np.int64]):
        self.buf = buf
        self.offsets = offsets

    @classmethod
    def of(cls, strings) -> _Strings:
        """``strings`` as they are if already a :class:`_Strings`, else encoded."""
        if isinstance(strings, _Strings):
            return strings
        try:
            parts = list(map(str.encode, strings))
        except UnicodeEncodeError as exc:
            raise DataError(f"entry ids and captions must be UTF-8 text: {exc}") from exc
        return cls(b"".join(parts), _offsets(np.fromiter(map(len, parts), np.int64, len(parts))))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return self.buf[self.offsets[i] : self.offsets[i + 1]].decode("utf-8")

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.buf[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if isinstance(other, _Strings):
            return self.buf == other.buf and np.array_equal(self.offsets, other.offsets)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def encoded(self, rows: NDArray[np.int64]) -> list[bytes]:
        """The UTF-8 bytes of the string of each row in ``rows``."""
        pairs = zip(self.offsets[rows].tolist(), self.offsets[rows + 1].tolist())
        return [self.buf[lo:hi] for lo, hi in pairs]

    def first_duplicate(self) -> int | None:
        """The first row whose string occurs again later, or ``None``.

        Exact: the strings of one byte length are read as one fixed-width
        bytes array, whose elements compare as their bytes do: in place when
        they fill one run of consecutive rows, else gathered from each run.
        An array not already in strict order is sorted once, and only if two
        neighbours are then equal does a stable argsort name the first row
        of a repeated string.
        """
        starts, counts, lengths = self._length_runs()
        by_length = np.argsort(lengths, kind="stable")  # runs of one length stay in order
        data = np.frombuffer(self.buf, np.uint8)
        first = len(self)
        for runs in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
            if counts[runs].sum() < 2:
                continue
            length = int(lengths[runs[0]])
            if length == 0:  # every empty string equals the first
                first = min(first, starts[runs[0]])
                continue
            if len(runs) == 1:
                keys = np.frombuffer(self.buf, f"S{length}", counts[runs[0]], self.offsets[starts[runs[0]]])
            else:
                rows = _runs(starts[runs], counts[runs])
                keys = sliding_window_view(data, length)[self.offsets[rows]].view(f"S{length}").ravel()
            if np.all(keys[1:] > keys[:-1]):  # in strict order already: no copy to sort
                continue
            ranked = np.sort(keys)
            if np.any(ranked[1:] == ranked[:-1]):
                order = np.argsort(keys, kind="stable")
                ranked = keys[order]
                repeated = order[:-1][ranked[1:] == ranked[:-1]].min()
                first = min(first, _runs(starts[runs], counts[runs])[repeated])
        return int(first) if first < len(self) else None

    def _length_runs(self) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64]]:
        """The first row, the number of rows and the byte length of each
        maximal run of consecutive strings of one byte length, found in row
        chunks."""
        n = len(self)
        starts = [np.zeros(min(n, 1), np.int64)]
        for rows in _row_chunks((n, 1)):
            # This chunk's lengths and the next row's, so a run that ends at
            # the chunk's end is seen.
            lengths = np.diff(self.offsets[rows.start : rows.stop + 2])
            starts.append(np.flatnonzero(lengths[1:] != lengths[:-1]) + (rows.start + 1))
        starts = np.concatenate(starts)
        counts = np.diff(starts, append=n)
        return starts, counts, self.offsets[starts + 1] - self.offsets[starts]

    def utf8_ok(self) -> bool:
        """Whether each string is valid UTF-8 on its own: the buffer
        decodes, and no non-empty string starts with a continuation byte, so
        every boundary falls between two characters. Both are checked in
        pieces of at most ``_CHUNK_BYTES`` bytes or rows."""
        if self.buf.isascii():
            return True
        decode = codecs.getincrementaldecoder("utf-8")().decode
        view = memoryview(self.buf)
        try:
            for lo in range(0, len(view), _CHUNK_BYTES):
                decode(view[lo : lo + _CHUNK_BYTES], lo + _CHUNK_BYTES >= len(view))
        except UnicodeDecodeError:
            return False
        data = np.frombuffer(self.buf, np.uint8)
        for rows in _row_chunks((len(self), 1)):
            bounds = self.offsets[rows.start : rows.stop + 1]
            heads = bounds[:-1][np.diff(bounds) > 0]
            if np.any((data[heads] & 0xC0) == 0x80):
                return False
        return True


def _offsets(lengths) -> NDArray[np.int64]:
    """The ``N + 1`` int64 offsets of strings of the given byte lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
    return offsets


class Datastore:
    """Immutable set of caption records queried by cosine similarity.

    The constructor is the one place that checks a store: unique ids, a real
    ``N x D`` embedding matrix with one row per id, and finite unit-norm rows
    (checked in float64, row chunk by row chunk). ``entry_ids`` and
    ``captions`` are read-only sequences of ``str`` over one UTF-8 buffer
    each. ``embeddings`` is a C-contiguous float32 matrix: any other input is
    rounded to float32 once, into a new matrix, and a C-contiguous float32
    input is kept without a copy, so the caller should not change it later.
    The caller's values are never changed.
    """

    def __init__(self, entry_ids: Sequence[str], captions: Sequence[str], embeddings: NDArray[np.floating]):
        ids = _Strings.of(entry_ids)
        caps = _Strings.of(captions)
        emb = _matrix(embeddings)
        if emb.ndim != 2 or len(ids) != emb.shape[0]:
            raise DataError("embeddings must be N x D matching the id list")
        if len(caps) != len(ids):
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
        dup = ids.first_duplicate()
        if dup is not None:
            raise DataError(f"duplicate entry id {ids[dup]!r}")
        self.entry_ids = ids
        self.captions = caps
        self.embeddings = emb

    def __len__(self) -> int:
        return len(self.entry_ids)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def _row_chunks(shape: tuple[int, int]):
    """Slices of at most ``_CHUNK_BYTES`` of f64 rows each, and at least one row."""
    n, dim = shape
    step = max(1, _CHUNK_BYTES // (8 * max(dim, 1)))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


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
    try:
        with np.errstate(over="ignore"):  # finite entries can still overflow the norm
            norms = np.sqrt([math.fsum(row) for row in q * q]).reshape(-1, 1)
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


def _cut32(kth: NDArray[np.float32], margin: float) -> NDArray[np.float32]:
    """The least float32 at or above ``kth − margin`` taken in float64: a
    float32 score passes it exactly when it passes the float64 cut."""
    cut = kth.astype(np.float64) - margin
    cut32 = cut.astype(np.float32)
    return np.where(cut32 < cut, np.nextafter(cut32, np.float32(np.inf)), cut32)


def _block_topp(store: Datastore, unit: NDArray[np.float64], p: int) -> list[list[tuple[int, float]]]:
    """Exact top-p ``(row, similarity)`` pairs of each unit query row of one
    block against the store.

    The store is screened one chunk of entries at a time, each chunk one
    float32 GEMM into one reused ``B x c`` buffer. Every exact top-p entry
    has ``ŝ >= ŝ_(p) − 2b``, for ``ŝ_(p)`` the p-th largest screened score of
    its query. A query holds ``best``, the scores of p distinct entries seen
    so far, whose least is a lower bound ``L <= ŝ_(p)``: the p largest of the
    first chunks seed it, and each later chunk's largest score raises it.
    Every entry with ``ŝ >= cut32(L)`` is kept, so the kept entries hold the
    p largest scores and ``ŝ_(p)`` among them, and those at or above
    ``cut32(ŝ_(p))`` are rescored exactly.
    """
    emb, n, b = store.embeddings, len(store), len(unit)
    margin = _screen_margin(store.dim)
    q32 = unit.astype(np.float32)
    width = min(n, max(1, _SCREEN_BYTES // (4 * b)))
    scores, passed = np.empty(b * width, np.float32), np.empty(b * width, bool)
    best = np.full((b, p), -np.inf, np.float32)
    kept = []
    for lo in range(0, n, width):
        screen = scores[: b * min(width, n - lo)].reshape(b, -1)  # |ŝ − s| <= b
        np.matmul(q32, emb[lo : lo + width].T, out=screen)
        c = screen.shape[1]
        k = max(1, min(c, p - lo))  # this chunk's scores that enter best
        if k == 1:
            top = screen.max(axis=1, keepdims=True)
        else:  # row chunk by row chunk, so the partition copies at most one chunk
            top = np.empty((b, k), np.float32)
            for rows in _row_chunks(screen.shape):
                top[rows] = np.partition(screen[rows], c - k, axis=1)[:, c - k :]
        best = np.partition(np.concatenate([best, top], axis=1), k, axis=1)[:, k:]
        mask = passed[: screen.size].reshape(screen.shape)
        flat = np.flatnonzero(np.greater_equal(screen, _cut32(best[:, 0], margin)[:, None], out=mask))
        row, col = np.divmod(flat, c)
        kept.append((row, col + lo, screen.reshape(-1)[flat]))
    del scores, passed, screen, mask  # before the rescoring's float lists
    row, col, score = (np.concatenate(parts) for parts in zip(*kept))
    order = np.lexsort((-score, row))  # by query row, descending score
    row, col, score = row[order], col[order], score[order]
    kth = score[np.searchsorted(row, np.arange(b)) + p - 1]
    keep = score >= _cut32(kth, margin)[row]
    row, col = row[keep], col[keep]
    sims = []
    for pairs in _row_chunks((len(row), 2 * store.dim)):  # small float lists
        sims += _exact_dots(emb[col[pairs]], unit[row[pairs]])
    # UTF-8 bytes order as their code points do.
    keys = store.entry_ids.encoded(col)
    cols = col.tolist()
    bounds = np.searchsorted(row, np.arange(b + 1)).tolist()
    hits = []
    for lo, hi in zip(bounds, bounds[1:]):
        # Descending similarity, ties by ascending id; negation is exact.
        ranked = sorted(zip([-s for s in sims[lo:hi]], keys[lo:hi], cols[lo:hi]))[:p]
        hits.append([(j, -neg) for neg, _, j in ranked])
    return hits


def query_topp(store: Datastore, queries: NDArray[np.float64], p: int, *, rows: bool = False) -> list:
    """Exact top-p by cosine similarity of each row of the ``Q x D``
    ``queries``; ties break on id in code-point order.

    Returns one ranked ``[(entry_id, similarity), ...]`` list per row, or
    with ``rows=True`` ``[(row, similarity), ...]``, naming each hit by its
    row of the store; a single D-vector query returns its one list. ``p``
    larger than the store returns everything sorted. The rows go through in
    blocks of at most ``_BLOCK_ROWS``, and each block screens the store in
    chunks of entries whose ``B x c`` float32 scores fit ``_SCREEN_BYTES``
    (one entry at least); each row's result is exact, so it depends on
    neither its block nor the chunks.
    """
    q = np.asarray(queries, dtype=np.float64)
    unit = _unit_rows(store, q[None] if q.ndim == 1 else q)
    if p < 1:
        raise DataError("p must be >= 1")
    p = min(p, len(store))
    hits = []
    for lo in range(0, len(unit), _BLOCK_ROWS):
        hits += _block_topp(store, unit[lo : lo + _BLOCK_ROWS], p)
    if not rows:
        hits = [[(store.entry_ids[j], sim) for j, sim in ranked] for ranked in hits]
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
    un-normalized. Queries that are not a matrix are a :class:`DataError`.
    """
    if np.ndim(queries) != 2:
        raise DataError("queries must be a Q x D matrix")
    if not len(queries):
        return [], np.zeros((0, store.dim))
    hits = query_topp(store, queries, p, rows=True)
    neighbors = [[(store.entry_ids[j], sim) for j, sim in ranked] for ranked in hits]
    rows = [[j for j, _ in ranked] for ranked in hits]
    return neighbors, store.embeddings[rows].astype(np.float64).mean(axis=1)


# ---------------------------------------------------------------------------
# Datastore file IO
# ---------------------------------------------------------------------------

def _layout(lengths: NDArray, pos: int, dim: int):
    """The file offsets of the ids, captions and embeddings of consecutive
    records with these ``(id, caption)`` byte lengths, the first of them at
    ``pos``, and the offset past the last."""
    id_len = lengths[:, 0].astype(np.int64)
    cap_len = lengths[:, 1].astype(np.int64)
    ends = pos + np.cumsum(id_len + cap_len + (8 + 4 * dim))
    emb_at = ends - 4 * dim
    cap_at = emb_at - cap_len
    return cap_at - 4 - id_len, cap_at, emb_at, int(ends[-1])


def _runs(starts: NDArray[np.int64], lengths) -> NDArray[np.int64]:
    """The position of every byte of the runs ``[s, s + l)``, run after run."""
    lengths = np.broadcast_to(np.asarray(lengths, dtype=np.int64), starts.shape)
    ends = np.cumsum(lengths)
    index = np.repeat(starts - ends + lengths, lengths)
    index += np.arange(len(index))
    return index


def save_datastore(store: Datastore, path: str | Path) -> None:
    """Write ``store`` as an SDS1 file, assembled row chunk by row chunk."""
    ids, caps, emb = store.entry_ids, store.captions, store.embeddings
    lengths = np.stack([np.diff(ids.offsets), np.diff(caps.offsets)], axis=1)
    out = np.empty(20 + 8 * len(store) + len(ids.buf) + len(caps.buf) + emb.nbytes, np.uint8)
    out[:20] = np.frombuffer(_MAGIC + struct.pack("<QQ", len(store), store.dim), np.uint8)
    id_bytes, cap_bytes = np.frombuffer(ids.buf, np.uint8), np.frombuffer(caps.buf, np.uint8)
    pos = 20
    for rows in _row_chunks(emb.shape):
        part = lengths[rows]
        id_at, cap_at, emb_at, pos = _layout(part, pos, store.dim)
        out[_runs(id_at - 4, 4)] = part[:, 0].astype("<u4").view(np.uint8)
        out[_runs(id_at, part[:, 0])] = id_bytes[ids.offsets[rows.start] : ids.offsets[rows.stop]]
        out[_runs(cap_at - 4, 4)] = part[:, 1].astype("<u4").view(np.uint8)
        out[_runs(cap_at, part[:, 1])] = cap_bytes[caps.offsets[rows.start] : caps.offsets[rows.stop]]
        out[_runs(emb_at, 4 * store.dim)] = emb[rows].astype("<f4").view(np.uint8).reshape(-1)
    write_file(path, memoryview(out))


def _cut_short(path, carry: bytearray, pos: int, fixed: int, size: int) -> DataError | None:
    """The error of a file of ``size`` bytes that ends inside the record at
    the start of ``carry``, file offset ``pos``: inside one of its u32
    lengths, named as struct names that read from the whole file, or past
    both. None while the lengths in hand still fit in ``size``."""
    field = pos
    if len(carry) >= 4:
        (id_len,) = _U32_AT(carry, 0)
        field = pos + 4 + id_len
        if field + 4 <= pos + len(carry):
            (cap_len,) = _U32_AT(carry, 4 + id_len)
            if pos + fixed + id_len + cap_len > size:
                return DataError(f"{path}: truncated record")
            return None
    if field + 4 <= size:
        return None
    return DataError(
        f"{path}: truncated or corrupt datastore: unpack_from requires a buffer of at least "
        f"{field + 4} bytes for unpacking 4 bytes at offset {field} (actual buffer size is {size})"
    )


def load_datastore(path: str | Path) -> Datastore:
    with read_pieces(path) as (size, pieces):
        carry = bytearray()
        for piece in pieces:
            carry += piece
            if len(carry) >= 20:
                break
        if len(carry) < 20 or carry[:4] != _MAGIC:
            raise DataError(f"{path}: bad datastore header")
        n, dim = struct.unpack_from("<QQ", carry, 4)
        # Every record holds at least its two u32 lengths and D f32 values; a
        # D past the u32 range is a corrupt header even in a store with no
        # records.
        if dim >= 2**32 or n * (8 + 4 * dim) > size - 20:
            raise DataError(f"{path}: header N={n}, D={dim} does not fit in {size} bytes")
        emb = np.empty((n, dim), dtype=np.float32)
        offsets = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
        strings = io.BytesIO(), io.BytesIO()
        # carry holds the file from offset pos on, and starts at a record; it
        # grows in place, so a record that spans many pieces is copied once.
        del carry[:20]
        fixed, pos, row = 8 + 4 * dim, 20, 0
        while True:
            # The one per-record loop reads the id and caption lengths of
            # each record that is all in hand.
            at, end, lengths = 0, len(carry), array("I")
            put = lengths.append
            try:
                for _ in range(n - row):
                    (id_len,) = _U32_AT(carry, at)
                    (cap_len,) = _U32_AT(carry, at + 4 + id_len)
                    after = at + fixed + id_len + cap_len
                    if after > end:
                        break
                    at = after
                    put(id_len)
                    put(cap_len)
            except struct.error:
                pass
            if lengths:
                row = _gather(carry, np.frombuffer(lengths, np.uint32).reshape(-1, 2),
                              row, emb, offsets, strings)
                del carry[:at]
                pos += at
            if row == n:
                # The first byte past the last record, in hand or in the next
                # piece, is one too many.
                if carry or next(pieces, None) is not None:
                    raise DataError(f"{path}: trailing bytes in datastore")
                break
            # A length that runs past the stat size fails before reading on;
            # at end of file, the size is what was read.
            if (error := _cut_short(path, carry, pos, fixed, size)) is not None:
                raise error
            piece = next(pieces, None)
            if piece is None:
                raise _cut_short(path, carry, pos, fixed, pos + len(carry))
            carry += piece
    ids = _Strings(strings[0].getvalue(), offsets[0])
    caps = _Strings(strings[1].getvalue(), offsets[1])
    del strings
    if not (ids.utf8_ok() and caps.utf8_ok()):
        try:  # the first string in file order that does not decode alone
            for _ in zip(ids, caps):
                pass
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: truncated or corrupt datastore: {exc}") from exc
    return Datastore(ids, caps, emb)


def _gather(buf: bytearray, lengths: NDArray[np.uint32], row: int, emb, offsets, strings) -> int:
    """Copy the records of these ``(id, caption)`` byte lengths, the first
    of them at the start of ``buf``, into the store from row ``row`` on: their
    lengths into the two offset arrays, and in row chunks their f32 values
    into ``emb`` (at any alignment) and their bytes onto the two string
    buffers. Returns the row after the last."""
    stop = row + len(lengths)
    for k in (0, 1):
        offsets[k][row + 1 : stop + 1] = offsets[k][row] + np.cumsum(lengths[:, k], dtype=np.int64)
    dim, pos = emb.shape[1], 0
    data = np.frombuffer(buf, np.uint8)
    windows = sliding_window_view(data, 4 * dim)
    for rows in _row_chunks((len(lengths), dim)):
        part = lengths[rows]
        id_at, cap_at, emb_at, pos = _layout(part, pos, dim)
        emb[row + rows.start : row + rows.stop] = windows[emb_at].view("<f4")
        strings[0].write(np.take(data, _runs(id_at, part[:, 0])))
        strings[1].write(np.take(data, _runs(cap_at, part[:, 1])))
    return stop
