"""Caption datastore: exact retrieval and persistence."""

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
        with pytest.raises(DataError, match="zero-norm"):
            build_datastore([DatastoreEntry("a", "x", np.zeros(3))])

    def test_empty_store_valid_but_unqueryable(self):
        store = build_datastore([])
        assert len(store) == 0
        with pytest.raises(DataError, match="empty"):
            query_topp(store, np.ones(3), 1)


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


class TestRetrievalVectors:
    def test_self_retrieval(self):
        store = basis_store()
        xs = np.tile(np.array([0.0, 0.0, 1.0]), (4, 1))
        segs = SegmentSet(segments=(Segment(0, 0, 4),), selected=(0,))
        result = retrieval_vectors(segs, xs, np.ones(4), store, p=1)
        np.testing.assert_allclose(result.vectors[0], [0, 0, 1], atol=1e-6)
        assert result.neighbors[0][0][0] == "e2"

    def test_antipodal_mean_cancels(self):
        store = build_datastore(
            [
                DatastoreEntry("plus", "p", np.array([1.0, 0.0], dtype=np.float32)),
                DatastoreEntry("minus", "m", np.array([-1.0, 0.0], dtype=np.float32)),
            ]
        )
        xs = np.tile(np.array([1.0, 1e-9]), (2, 1))
        segs = SegmentSet(segments=(Segment(0, 0, 2),), selected=(0,))
        result = retrieval_vectors(segs, xs, np.ones(2), store, p=2)
        np.testing.assert_allclose(result.vectors[0], [0.0, 0.0], atol=1e-9)

    def test_mean_norm_at_most_one(self):
        rng = np.random.default_rng(1)
        entries = [
            DatastoreEntry(f"e{i}", "", rng.normal(size=4).astype(np.float32))
            for i in range(30)
        ]
        store = build_datastore(entries)
        xs = rng.normal(size=(10, 4))
        segs = SegmentSet(segments=(Segment(0, 0, 5), Segment(1, 5, 10)), selected=(0, 1))
        result = retrieval_vectors(segs, xs, rng.random(10), store, p=7)
        norms = np.linalg.norm(result.vectors, axis=1)
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

