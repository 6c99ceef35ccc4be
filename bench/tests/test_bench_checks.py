"""The brute-force retrieval reference against the program's query_topp."""

import numpy as np

from checks import ReferenceStore, neighbours_problem
from saliseg.store import DatastoreEntry, build_datastore, query_topp, save_datastore


def _tied_store(tmp_path):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((6, 8))
    entries = []
    # Three copies of each vector under shuffled ids: every similarity is tied
    # three ways, so only the id order separates the entries.
    ids = [f"e{i:02d}" for i in range(18)]
    rng.shuffle(ids)
    for j, entry_id in enumerate(ids):
        entries.append(DatastoreEntry(entry_id, f"caption {entry_id}", base[j % 6].astype(np.float32)))
    store = build_datastore(entries)
    save_datastore(store, tmp_path / "tied.sds")
    return store, ReferenceStore.read(tmp_path / "tied.sds")


def test_reference_matches_query_topp_with_ties(tmp_path):
    store, ref = _tied_store(tmp_path)
    rng = np.random.default_rng(4)
    for p in (1, 2, 4, 7, 18, 30):
        for _ in range(10):
            q = rng.standard_normal(8)
            hits = query_topp(store, q, p)
            expected = [ref.ids[i] for i in ref.topp(ref.sims(q), p)]
            assert [h[0] for h in hits] == expected
            assert neighbours_problem(ref, q, [list(h) for h in hits], p) is None


def test_wrong_tie_order_and_wrong_neighbours_are_caught(tmp_path):
    store, ref = _tied_store(tmp_path)
    q = np.random.default_rng(5).standard_normal(8)
    hits = [list(h) for h in query_topp(store, q, 3)]
    assert neighbours_problem(ref, q, hits[::-1], 3) is not None  # exact ties out of id order
    assert neighbours_problem(ref, q, hits[:2], 3) is not None
    far = [list(h) for h in query_topp(store, -q, 1)]
    assert neighbours_problem(ref, q, hits[:2] + far, 3) is not None


def test_run_checker_blames_the_damaged_video(tmp_path):
    import json

    from checks import RunChecker
    from saliseg.data import load_features
    from saliseg.pipeline import run_pipeline
    from workloads import WORKLOADS, tiny
    from worker import build_inputs

    w = tiny(WORKLOADS["retrieval-wide"])
    inputs, run = tmp_path / "inputs", tmp_path / "run"
    build_inputs(w, 5, inputs)
    run_pipeline(w.config(5), inputs / "features", inputs / "annotations.jsonl",
                 inputs / "datastore.sds", inputs / "head.shd", run)
    videos = {}
    for path in sorted((inputs / "features").glob("*.sfeat")):
        f = load_features(path)
        videos[f.video_id] = (f.spatial[: f.valid_len].astype(np.float64), f.valid_len)
    checker = RunChecker(inputs, w.config(5), videos)
    assert all(not p for p in checker.check(run).values())

    v0, v1, v2 = sorted(videos)
    (run / "tin" / f"{v0}.stin").unlink()
    lines = (run / "retrieval.jsonl").read_text(encoding="utf-8").splitlines()
    docs = [json.loads(line) for line in lines]
    hits = docs[1]["segments"][0]["neighbors"]
    hits[0], hits[1] = hits[1], hits[0]
    (run / "retrieval.jsonl").write_text(
        "\n".join(json.dumps(d, sort_keys=True) for d in docs) + "\n", encoding="utf-8"
    )
    problems = checker.check(run)
    assert any("decoder input" in p for p in problems[v0])
    assert any("expected" in p for p in problems[v1])
    # The rewritten retrieval file no longer matches its manifest hash,
    # which every video depends on.
    assert all(any("retrieval.jsonl hash mismatch" in p for p in ps) for ps in problems.values())
