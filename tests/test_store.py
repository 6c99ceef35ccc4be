"""Caption datastore: exact retrieval and persistence."""

import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from exact_retrieval import FIXTURE, exact_dot, exact_topp, unit
from saliseg import store as store_module
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
    segment_queries,
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
            got = query_topp(store, [q], 10)[0]
            want = exact_topp(store, q, 10, preselect=False)
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
            got = query_topp(store, [q], p)[0]
            assert got == exact_topp(store, q, p)

    def test_one_vector_is_one_row(self):
        rng = np.random.default_rng(6)
        store = build_datastore(
            [DatastoreEntry(f"e{i}", "", v) for i, v in enumerate(rng.normal(size=(40, 5)))])
        q = rng.normal(size=5)
        assert query_topp(store, q, 4) == query_topp(store, [q], 4)[0]
        assert query_topp(store, np.zeros((0, 5)), 4) == []

    @staticmethod
    def bits(hits):
        return [[(entry_id, sim.hex()) for entry_id, sim in row] for row in hits]

    def test_rows_do_not_depend_on_their_block(self, monkeypatch):
        """A query's hits are bit-identical alone and in blocks of 1, 7 or
        every query."""
        rng = np.random.default_rng(12)
        n, d = 300, 8
        store = build_datastore(
            [DatastoreEntry(f"e{i:03d}", "", v) for i, v in enumerate(rng.normal(size=(n, d)))])
        queries = rng.normal(size=(23, d))
        alone = self.bits([query_topp(store, q, 9) for q in queries])
        for rows in (1, 7, len(queries)):
            monkeypatch.setattr(store_module, "_SCREEN_BYTES", 4 * n * rows)
            assert self.bits(query_topp(store, queries, 9)) == alone
        assert alone == self.bits([exact_topp(store, q, 9) for q in queries])

    def test_margin_holds_for_rows_one_ulp_apart(self):
        """Rows one to a few float32 units apart put many entries within the
        screen's margin of the cut, where the float32 screen alone orders
        them wrong; the result is still the exact one."""
        rng = np.random.default_rng(14)
        d = 16
        base = rng.normal(size=d)
        base = (base / np.linalg.norm(base)).astype(np.float32)
        rows = []
        for k in range(240):
            row = base.copy()
            row.view(np.int32)[k % d] += k // d - 7
            rows.append(row)
        far = rng.normal(size=(60, d))
        rows += list((far / np.linalg.norm(far, axis=1, keepdims=True)).astype(np.float32))
        emb = np.stack(rows)
        ids = [f"r{i:03d}" for i in rng.permutation(len(rows))]
        store = Datastore(ids, [""] * len(ids), emb)
        margin = store_module._screen_margin(d)
        screen_differs = 0
        for _ in range(10):
            q = base + 1e-3 * rng.normal(size=d)
            want = exact_topp(store, q, 25)
            assert query_topp(store, q, 25) == want
            # Squares below float64's normal range: the query is scaled up
            # exactly first, so it keeps its unit vector and its hits.
            assert query_topp(store, q * 2.0**-600, 25) == want
            exact = np.array([exact_dot(e, unit(q)) for e in emb])
            assert np.sum(np.abs(exact - want[-1][1]) <= margin) >= 100
            screen = emb @ np.asarray(unit(q), dtype=np.float32)
            by_screen = sorted(range(len(ids)), key=lambda i: (-screen[i], ids[i]))[:25]
            screen_differs += [ids[i] for i in by_screen] != [h[0] for h in want]
        assert screen_differs

    def test_tiny_query_has_unit_norm(self):
        """A query whose squares fall below float64's normal range: scaled
        by its norm alone, (2.6e-162, 0, 0) would read 1.17 against e0."""
        assert query_topp(basis_store(), np.array([2.6e-162, 0.0, 0.0]), 1) == [("e0", 1.0)]
        q = np.array([3e-170, -4e-170, 5e-321])
        assert query_topp(basis_store(), q, 3) == exact_topp(basis_store(), q, 3, preselect=False)
        assert abs(math.fsum(x * x for x in unit(q)) - 1) < 1e-15

    def test_subnormal_products_summed_exactly(self):
        """Subnormal float32 values against tiny query values give products
        below float64's normal range; the sums still equal exact arithmetic."""
        rng = np.random.default_rng(15)
        d = 6
        a = np.float32(2.0**-140)  # a float32 subnormal
        emb = [np.array([0, 1, a, a, 0, 0], np.float32), np.array([0, 1, a, -a, a, 0], np.float32)]
        tiny = rng.normal(size=(40, d)).astype(np.float32)
        tiny[:, 1:] *= np.float32(2.0**-130)  # subnormal tails
        emb += list(tiny / np.linalg.norm(tiny, axis=1, keepdims=True).astype(np.float32))
        ids = [f"s{i:02d}" for i in range(len(emb))]
        store = Datastore(ids, [""] * len(ids), np.stack(emb))
        t = 0.6 * 2.0**-934  # a * t = 0.6 * 2**-1074, which float64 rounds up to 2**-1074
        queries = [np.array([1.0, 0, t, t, 0, 0]), np.array([-1.0, 0, t, t, t, 0])]
        queries += [np.concatenate([[v], 1e-300 * rng.normal(size=d - 1)])
                    for v in rng.normal(size=6)]
        queries += [rng.normal(size=d) * np.array([1, 3e-310, 1e-320, 1, 2e-305, 1])
                    for _ in range(6)]
        got = query_topp(store, queries, len(emb))
        assert got == [exact_topp(store, q, len(emb), preselect=False) for q in queries]
        # The first row sums to 1.2 * 2**-1074, which rounds to 2**-1074; a
        # float64 dot product that rounds each product gives twice that.
        first = dict(got[0])["s00"]
        assert first == 2.0**-1074 != float(emb[0].astype(np.float64) @ queries[0])

    def test_screen_memory_within_block_budget(self):
        """The screen holds one block of scores at a time: 300 queries against
        20k entries would take 24 MB at once, the budget allows 8 MiB."""
        rng = np.random.default_rng(16)
        n, d = 20_000, 32
        vecs = rng.normal(size=(n, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        store = Datastore([f"d{i:05d}" for i in range(n)], [""] * n, vecs)
        queries = rng.normal(size=(300, d))
        _, _, peak = TestHeldOnce.traced(lambda: query_topp(store, queries, 10))
        assert peak <= store_module._SCREEN_BYTES + 2**20, peak
        assert 4 * n * len(queries) > 2 * store_module._SCREEN_BYTES

    def test_cross_machine_fixture(self):
        """The exact similarities of a committed store and its queries, as
        float hex: every platform writes the same bits."""
        doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
        ids = [e["id"] for e in doc["store"]]
        emb = np.array([[float.fromhex(v) for v in e["embedding"]] for e in doc["store"]])
        store = Datastore(ids, [""] * len(ids), emb)
        assert np.array_equal(store.embeddings, emb)  # float32 values, kept exactly
        for case in doc["queries"]:
            q = np.array([float.fromhex(v) for v in case["query"]])
            want = [(entry_id, float.fromhex(sim)) for entry_id, sim in case["hits"]]
            assert exact_topp(store, q, case["p"], preselect=False) == want
            assert self.bits([query_topp(store, q, case["p"])]) == self.bits([want])


class TestRetrievalVectors:
    def test_self_retrieval(self):
        store = basis_store()
        xs = np.tile(np.array([0.0, 0.0, 1.0]), (4, 1))
        segs = SegmentSet(segments=(Segment(0, 0, 4),), selected=(0,))
        queries = segment_queries(segs, xs, np.ones(4), store)
        neighbors, vectors = retrieval_vectors(queries, store, p=1)
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
        _, vectors = retrieval_vectors(segment_queries(segs, xs, np.ones(2), store), store, p=2)
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
        queries = segment_queries(segs, xs, rng.random(10), store)
        _, vectors = retrieval_vectors(queries, store, p=7)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_vectors_are_float64_means_of_the_stored_rows(self):
        rng = np.random.default_rng(2)
        store = build_datastore(
            [DatastoreEntry(f"e{i:02d}", "", v) for i, v in enumerate(rng.normal(size=(50, 6)))])
        queries = rng.normal(size=(4, 6))
        neighbors, vectors = retrieval_vectors(queries, store, p=5)
        assert neighbors == query_topp(store, queries, 5)
        for hits, vector in zip(neighbors, vectors):
            rows = store.embeddings[[store.entry_ids.index(e) for e, _ in hits]]
            assert vector.tobytes() == rows.astype(np.float64).mean(axis=0).tobytes()
        neighbors, vectors = retrieval_vectors(np.zeros((0, 6)), store, p=5)
        assert neighbors == [] and vectors.shape == (0, 6)

    @pytest.mark.parametrize(
        "segment, xs, message",
        [
            (Segment(0, 0, 5), np.ones((4, 3)), "segment exceeds feature rows"),
            (Segment(0, 0, 4), np.zeros((4, 3)), "zero query vector"),
            (Segment(0, 0, 4), np.full((4, 3), np.inf), "must be finite"),
            (Segment(0, 0, 4), np.ones((4, 2)), "query must have dimension 3"),
        ],
        ids=["past_frames", "zero", "not_finite", "dimension"],
    )
    def test_segment_queries_check_each_query(self, segment, xs, message):
        segs = SegmentSet(segments=(segment,), selected=(0,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the infinite rows' pooling
            with pytest.raises(DataError, match=message):
                segment_queries(segs, xs, np.ones(len(xs)), basis_store())

    def test_segment_queries_on_an_empty_store(self):
        segs = SegmentSet(segments=(Segment(0, 0, 4),), selected=(0,))
        empty = build_datastore([])
        with pytest.raises(DataError, match="empty datastore"):
            segment_queries(segs, np.ones((4, 3)), np.ones(4), empty)
        # Nothing selected queries nothing, as before.
        none = SegmentSet(segments=(Segment(0, 0, 4),))
        assert segment_queries(none, np.ones((4, 3)), np.ones(4), empty).shape == (0, 0)


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
        assert store.embeddings.dtype == np.float32
        assert store.embeddings.flags.c_contiguous
        np.testing.assert_array_equal(
            store.embeddings, [(np.array([1.0, 3.0]) / np.sqrt(10.0)).astype(np.float32)]
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
        assert loaded.embeddings.nbytes == 4 * self.N * self.D
        assert size >= loaded.embeddings.nbytes
        assert peak <= size + path.stat().st_size, (peak, size)

    def test_f32_matrix_is_kept_without_a_copy(self, saved):
        store, _ = saved
        emb = store.embeddings.copy()
        assert emb.dtype == np.float32
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
        assert built.embeddings.tobytes() == before.astype(np.float32).tobytes()
