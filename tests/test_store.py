"""Caption datastore: exact retrieval and persistence."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from saliseg.errors import DataError
from saliseg.segments import Segment, SegmentSet
from saliseg.store import (
    Datastore,
    DatastoreEntry,
    build_datastore,
    load_datastore,
    query_topp,
    retrieval_vectors,
    save_datastore,
)


def basis_store(d=3):
    return build_datastore(
        [
            DatastoreEntry(f"e{i}", f"caption {i}", np.eye(d)[i].astype(np.float32))
            for i in range(d)
        ]
    )


class TestBuildDatastore:
    def test_normalizes_on_entry(self):
        store = build_datastore(
            [DatastoreEntry("a", "x", np.array([0.0, 2.0], dtype=np.float32))]
        )
        np.testing.assert_allclose(np.linalg.norm(store.embeddings[0]), 1.0, atol=1e-6)

    def test_duplicate_id_rejected(self):
        entries = [
            DatastoreEntry("a", "x", np.array([1.0, 0.0])),
            DatastoreEntry("a", "y", np.array([0.0, 1.0])),
        ]
        with pytest.raises(DataError, match="duplicate"):
            build_datastore(entries)

    def test_dimension_mismatch_rejected(self):
        entries = [
            DatastoreEntry("a", "x", np.array([1.0, 0.0])),
            DatastoreEntry("b", "y", np.array([1.0, 0.0, 0.0])),
        ]
        with pytest.raises(DataError, match="dimension"):
            build_datastore(entries)

    def test_zero_norm_rejected(self):
        # The first zero-norm entry in entry order is named.
        entries = [DatastoreEntry(i, "", v) for i, v in
                   (("a", np.ones(3)), ("c", np.zeros(3)), ("b", np.zeros(3)))]
        with pytest.raises(DataError, match="^c: zero-norm embedding$"):
            build_datastore(entries)

    @pytest.mark.parametrize(
        "bad", [[np.inf, 0.0, 0.0], [1e200, 1e200, 0.0], [np.nan, 1.0, 0.0]], ids=["inf", "overflow", "nan"]
    )
    def test_non_finite_or_overflowing_norm_rejected(self, bad):
        # The first such entry in entry order is named, with no numpy warning.
        entries = [DatastoreEntry(i, "", np.array(v)) for i, v in
                   (("a", [1.0, 0.0, 0.0]), ("c", bad), ("b", bad))]
        with pytest.raises(DataError, match="^c: embedding and its norm must be finite$"):
            build_datastore(entries)

    @pytest.mark.parametrize(
        "ids, embeddings, message",
        [
            (["a", "b"], np.eye(2), "^one caption per id is required$"),
            (["a"], np.array([[1e200, 0.0, 0.0]]), "^embeddings must be finite and unit norm$"),
            (["a"], np.array([[-3.5e38, 0.0]]), "^embeddings must be finite and unit norm$"),
            (["a"], np.array([[np.nan, 1.0]]), "^embeddings must be finite and unit norm$"),
            (["a"], np.array([[0.5, 0.5]]), "^embeddings must be finite and unit norm$"),
            (["a"], np.array([["x", "y"]]), "^embeddings must be real numbers, not <U1$"),
            (["a"], np.array([[1 + 0j, 0]]), "^embeddings must be real numbers, not complex128$"),
            (["a"], np.array([[True, False]]), "^embeddings must be real numbers, not bool$"),
        ],
        ids=["caption_count", "past_f32_range", "past_f32_range_negative", "nan", "not_unit",
             "strings", "complex", "bool"],
    )
    def test_constructor_rejects(self, ids, embeddings, message):
        # With no numpy warning on the way, whatever the warning filter.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                Datastore(ids, ["x"], embeddings)

    def test_complex_entry_rejected(self):
        # Not cast to its real part with a numpy warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^embeddings must be real numbers, not complex128$"):
                build_datastore([DatastoreEntry("a", "c", np.array([1 + 0j, 0]))])

    def test_empty_store_valid_but_unqueryable(self):
        store = build_datastore([])
        assert len(store) == 0
        with pytest.raises(DataError, match="empty"):
            query_topp(store, np.ones(3), 1)

    def test_embedding_that_is_not_a_vector_rejected(self):
        entries = [DatastoreEntry(i, "", np.ones((2, 3))) for i in ("a", "b")]
        with pytest.raises(DataError, match="embeddings must be N x D matching the id list"):
            build_datastore(entries)

    def test_matches_per_entry_normalization(self):
        rng = np.random.default_rng(11)
        scale = rng.uniform(1e-3, 1e3, size=(2000, 1))
        entries = [DatastoreEntry(f"e{i}", "", v.astype(np.float32))
                   for i, v in enumerate(rng.normal(size=(2000, 24)) * scale)]
        # Reference: normalize each entry on its own in float64, round to float32.
        want = np.stack([
            (v / np.linalg.norm(v)).astype(np.float32)
            for v in (e.embedding.astype(np.float64) for e in entries)
        ])
        got = build_datastore(entries).embeddings
        assert np.array_equal(got, got.astype(np.float32))
        np.testing.assert_array_max_ulp(got.astype(np.float32), want, maxulp=1)
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-6)


class TestQueryTopp:
    def test_orthonormal_basis(self):
        store = basis_store()
        hits = query_topp(store, np.array([0.0, 1.0, 0.0]), 1)
        assert hits[0][0] == "e1"
        np.testing.assert_allclose(hits[0][1], 1.0, atol=1e-6)

    def test_p_larger_than_store_clamps(self):
        store = basis_store()
        hits = query_topp(store, np.array([1.0, 0.5, 0.0]), 10)
        assert len(hits) == 3
        assert [h[0] for h in hits] == ["e0", "e1", "e2"]

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(0)
        d, n = 8, 200
        vecs = rng.normal(size=(n, d))
        entries = [
            DatastoreEntry(f"id{i:04d}", f"c{i}", vecs[i].astype(np.float32))
            for i in range(n)
        ]
        store = build_datastore(entries)
        for _ in range(20):
            q = rng.normal(size=d)
            got = query_topp(store, q, 10)
            sims = store.embeddings.astype(np.float64) @ (q / np.linalg.norm(q))
            order = sorted(range(n), key=lambda i: (-sims[i], store.entry_ids[i]))
            want = [(store.entry_ids[i], float(sims[i])) for i in order[:10]]
            assert got == want

    def test_tie_break_lexicographic(self):
        v = np.array([1.0, 0.0], dtype=np.float32)
        store = build_datastore(
            [DatastoreEntry(i, i, v.copy()) for i in ("zz", "aa", "mm")]
        )
        hits = query_topp(store, np.array([1.0, 0.0]), 3)
        assert [h[0] for h in hits] == ["aa", "mm", "zz"]

    def test_zero_query_rejected(self):
        with pytest.raises(DataError, match="zero query"):
            query_topp(basis_store(), np.zeros(3), 1)

    @pytest.mark.parametrize(
        "query",
        [[np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0], [1e300, 1e300, 0.0]],
        ids=["nan", "inf", "norm_overflow"],
    )
    def test_non_finite_query_rejected(self, query):
        with pytest.raises(DataError, match="must be finite"):
            query_topp(basis_store(), np.array(query), 2)

    def test_p_below_one_rejected(self):
        with pytest.raises(DataError, match="p must be >= 1"):
            query_topp(basis_store(), np.ones(3), 0)

    def test_ties_straddling_the_cut_keep_smallest_ids(self):
        v = np.array([0.6, 0.8], dtype=np.float32)
        store = build_datastore(
            [DatastoreEntry(i, "", v.copy()) for i in ("d", "b", "c", "a")]
        )
        hits = query_topp(store, np.array([1.0, 1.0]), 2)
        assert [h[0] for h in hits] == ["a", "b"]
        assert hits[0][1] == hits[1][1]

    def test_ids_order_by_code_point(self):
        v = np.array([1.0, 0.0], dtype=np.float32)
        store = build_datastore([DatastoreEntry(i, "", v.copy()) for i in ("é", "a", "Z")])
        assert [h[0] for h in query_topp(store, np.array([1.0, 0.0]), 3)] == ["Z", "a", "é"]
        assert [h[0] for h in query_topp(store, np.array([1.0, 0.0]), 2)] == ["Z", "a"]

    def test_p_equal_to_store_returns_all_sorted(self):
        hits = query_topp(basis_store(), np.array([0.0, 0.5, 1.0]), 3)
        assert [h[0] for h in hits] == ["e2", "e1", "e0"]

    def test_duplicated_rows_match_oracle(self):
        """5k entries drawn from 50 distinct rows: every query has long runs
        of equal similarities, many of them across the cut."""
        rng = np.random.default_rng(5)
        d, n = 6, 5000
        rows = rng.normal(size=(50, d))
        ids = [f"k{i}" for i in rng.permutation(n)]
        pick = rng.integers(0, 50, n)
        store = build_datastore(
            [DatastoreEntry(ids[i], "", rows[pick[i]]) for i in range(n)]
        )
        for p in (1, 7, 100, 333):
            q = rng.normal(size=d)
            got = query_topp(store, q, p)
            sims = store.embeddings @ (q / np.linalg.norm(q))
            order = sorted(range(n), key=lambda i: (-sims[i], store.entry_ids[i]))
            assert got == [(store.entry_ids[i], float(sims[i])) for i in order[:p]]


class TestRetrievalVectors:
    def test_self_retrieval(self):
        store = basis_store()
        xs = np.tile(np.array([0.0, 0.0, 1.0]), (4, 1))
        segs = SegmentSet(segments=(Segment(0, 0, 4),), selected=(0,))
        neighbors, vectors = retrieval_vectors(segs, xs, np.ones(4), store, p=1)
        np.testing.assert_allclose(vectors[0], [0, 0, 1], atol=1e-6)
        assert neighbors[0][0][0] == "e2"

    def test_antipodal_mean_cancels(self):
        store = build_datastore(
            [
                DatastoreEntry("plus", "p", np.array([1.0, 0.0], dtype=np.float32)),
                DatastoreEntry("minus", "m", np.array([-1.0, 0.0], dtype=np.float32)),
            ]
        )
        xs = np.tile(np.array([1.0, 1e-9]), (2, 1))
        segs = SegmentSet(segments=(Segment(0, 0, 2),), selected=(0,))
        _, vectors = retrieval_vectors(segs, xs, np.ones(2), store, p=2)
        np.testing.assert_allclose(vectors[0], [0.0, 0.0], atol=1e-9)

    def test_mean_norm_at_most_one(self):
        rng = np.random.default_rng(1)
        entries = [
            DatastoreEntry(f"e{i}", "", rng.normal(size=4).astype(np.float32))
            for i in range(30)
        ]
        store = build_datastore(entries)
        xs = rng.normal(size=(10, 4))
        segs = SegmentSet(segments=(Segment(0, 0, 5), Segment(1, 5, 10)), selected=(0, 1))
        _, vectors = retrieval_vectors(segs, xs, rng.random(10), store, p=7)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)


class TestDatastoreIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        entries = [
            DatastoreEntry(f"id{i}", f"caption text {i}", rng.normal(size=5).astype(np.float32))
            for i in range(7)
        ]
        store = build_datastore(entries)
        path = tmp_path / "store.sds"
        save_datastore(store, path)
        loaded = load_datastore(path)
        assert loaded.entry_ids == store.entry_ids
        assert loaded.captions == store.captions
        assert loaded.embeddings.tobytes() == store.embeddings.tobytes()

    def test_round_trip_unaligned_embeddings(self, tmp_path):
        """Odd-length multibyte ids and captions put every embedding at an
        offset that is not a multiple of four."""
        rng = np.random.default_rng(3)
        names = [("é", "x")] + [(f"ü{i}", f"日{i}x") for i in range(1, 7)]
        store = build_datastore(
            [DatastoreEntry(i, c, rng.normal(size=3)) for i, c in names]
        )
        path = tmp_path / "store.sds"
        save_datastore(store, path)
        raw = path.read_bytes()
        offset, starts = 20, []
        for _ in names:
            for _field in ("id", "caption"):
                offset += 4 + struct.unpack_from("<I", raw, offset)[0]
            starts.append(offset)
            offset += 4 * 3
        assert all(start % 4 for start in starts), starts
        loaded = load_datastore(path)
        assert loaded.entry_ids == store.entry_ids
        assert loaded.captions == store.captions
        assert loaded.embeddings.tobytes() == store.embeddings.tobytes()

    def test_empty_store_with_dimension_loads(self, tmp_path):
        path = tmp_path / "store.sds"
        path.write_bytes(b"SDS1" + struct.pack("<QQ", 0, 5))
        store = load_datastore(path)
        assert len(store) == 0 and store.dim == 5
        assert store.embeddings.shape == (0, 5)

    def test_last_record_cut_inside_embedding(self, tmp_path):
        store = basis_store()
        path = tmp_path / "store.sds"
        save_datastore(store, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError, match="truncated record"):
            load_datastore(path)

    def test_embeddings_are_the_stored_f32_values(self):
        store = build_datastore([DatastoreEntry("a", "", np.array([1.0, 3.0]))])
        assert store.embeddings.dtype == np.float64
        np.testing.assert_array_equal(
            store.embeddings, store.embeddings.astype(np.float32).astype(np.float64)
        )

    def test_two_saves_identical(self, tmp_path):
        store = basis_store()
        save_datastore(store, tmp_path / "a.sds")
        save_datastore(store, tmp_path / "b.sds")
        assert (tmp_path / "a.sds").read_bytes() == (tmp_path / "b.sds").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        store = basis_store()
        path = tmp_path / "store.sds"
        save_datastore(store, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError):
            load_datastore(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "store.sds"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(DataError, match="header"):
            load_datastore(path)

    def test_duplicate_id_rejected_on_load(self, tmp_path):
        """A file may not hold an id twice: retrieval would map both hits to
        one row."""
        store = build_datastore(
            [
                DatastoreEntry("a", "x", np.array([1.0, 0.0])),
                DatastoreEntry("b", "y", np.array([0.6, 0.8])),
            ]
        )
        path = tmp_path / "store.sds"
        save_datastore(store, path)
        raw = bytearray(path.read_bytes())
        second_id = 20 + (4 + 1 + 4 + 1 + 4 * 2) + 4  # header, record "a", id length
        assert raw[second_id : second_id + 1] == b"b"
        raw[second_id : second_id + 1] = b"a"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="duplicate entry id 'a'"):
            load_datastore(path)


class TestHeldOnce:
    """A store holds each embedding once, and so does loading it."""

    N, D = 20_000, 32

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        rng = np.random.default_rng(19)
        vecs = rng.normal(size=(self.N, self.D))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ids = [f"d{i:06d}" for i in range(self.N)]
        store = Datastore(ids, [f"distractor {i}" for i in range(self.N)], vecs)
        path = tmp_path_factory.mktemp("wide") / "store.sds"
        save_datastore(store, path)
        return store, path

    @staticmethod
    def traced(call):
        """``call()``, with the bytes it leaves allocated and its peak, both
        over what was allocated before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, size - base, peak - base

    def test_load_peak_within_store_plus_file(self, saved):
        store, path = saved
        loaded, size, peak = self.traced(lambda: load_datastore(path))
        assert loaded.embeddings.tobytes() == store.embeddings.tobytes()
        assert size >= loaded.embeddings.nbytes
        assert peak <= size + path.stat().st_size, (peak, size)

    def test_f32_valued_matrix_is_kept_without_a_copy(self, saved):
        store, _ = saved
        emb = store.embeddings.copy()
        built, _, peak = self.traced(lambda: Datastore(store.entry_ids, store.captions, emb))
        assert peak < emb.nbytes, peak
        assert built.embeddings is emb
        assert emb.tobytes() == store.embeddings.tobytes()

    def test_caller_values_are_not_rounded_in_place(self, saved):
        store, _ = saved
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(100, self.D))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        before = vecs.copy()
        built = Datastore(store.entry_ids[:100], store.captions[:100], vecs)
        assert vecs.tobytes() == before.tobytes()
        assert built.embeddings.tobytes() == before.astype(np.float32).astype(np.float64).tobytes()
