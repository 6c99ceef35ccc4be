"""An exact-arithmetic reference for retrieval, and the cross-machine fixture
``tests/data/retrieval_exact.json`` that it writes.

The reference follows the retrieval contract with no floating-point sum: a
query is scaled to ``q̂ = q / sqrt(fsum(q_i²))``, after an exact power-of-two
scaling that brings a largest ``|q_i|`` below ``1/2`` into ``[1/2, 1)``, and
each similarity is ``Σ e_i q̂_i`` summed as fractions, then rounded to the
nearest float once.
Results rank by descending similarity, then by id.

The fixture holds a small store and its queries as float hex, with the
expected ids and similarity hex of each query's top-p. It mixes random rows,
rows one float32 unit apart across the cut, duplicated rows under shuffled
ids, and subnormal float32 values met by tiny query values, whose products
fall below float64's normal range. Regenerate it with

    PYTHONPATH=src python tests/exact_retrieval.py
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).resolve().parent / "data" / "retrieval_exact.json"
# Far above the error of a float64 scan of unit vectors (about D * 2**-53),
# so the preselection keeps every entry of the exact top-p.
PRESELECT_MARGIN = 1e-9


def unit(q) -> list[float]:
    """The query over its norm, the square root of ``fsum`` of its squares,
    after scaling a largest value below ``1/2`` up into ``[1/2, 1)``."""
    q = [float(x) for x in q]
    _, exp = math.frexp(max(abs(x) for x in q))
    q = [math.ldexp(x, -min(exp, 0)) for x in q]
    norm = math.sqrt(math.fsum(x * x for x in q))
    return [x / norm for x in q]


def exact_dot(e, qhat) -> float:
    """``Σ e_i q̂_i`` in exact rational arithmetic, rounded to nearest once."""
    return float(sum(Fraction(float(a)) * Fraction(b) for a, b in zip(e, qhat)))


def exact_topp(store, q, p: int, preselect: bool = True) -> list[tuple[str, float]]:
    """The exact top-p of query ``q``, ties by id. With ``preselect``, only
    the entries within ``PRESELECT_MARGIN`` of the p-th largest float64 scan
    value are summed exactly."""
    qhat = unit(q)
    rows = range(len(store))
    if preselect:
        scan = store.embeddings.astype(np.float64) @ np.array(qhat)
        kth = np.sort(scan)[-min(p, len(store))]
        rows = np.flatnonzero(scan >= kth - PRESELECT_MARGIN).tolist()
    sims = {i: exact_dot(store.embeddings[i], qhat) for i in rows}
    order = sorted(rows, key=lambda i: (-sims[i], store.entry_ids[i]))[:p]
    return [(store.entry_ids[i], sims[i]) for i in order]


def fixture_inputs() -> tuple[list[str], np.ndarray, list[tuple[np.ndarray, int]]]:
    """Ids and float32 embeddings of the fixture's store, and its queries,
    each with its p."""
    rng = np.random.default_rng(23)
    d = 8
    rows = rng.normal(size=(24, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    emb = [r.astype(np.float32) for r in rows]
    # Eight rows one to four float32 units from one base row, so their
    # similarities to a query near it differ in the last digits only.
    base = emb[0]
    for k in range(8):
        row = base.copy()
        row.view(np.int32)[k] += 1 + k % 4
        emb.append(row)
    # Duplicates: four equal rows, whose ties only the ids break.
    emb += [emb[3].copy() for _ in range(3)]
    # Subnormal float32 values: with q = (1, 0, t, t, 0, ...) each product
    # a * t is 0.6 of float64's smallest subnormal, so the sum of the row
    # (0, 1, a, a, ...) is right only when summed exactly.
    a = np.float32(2.0**-140)
    emb.append(np.array([0, 1, a, a, 0, 0, 0, 0], dtype=np.float32))
    emb.append(np.array([0, 1, a, 0, 0, 0, 0, 0], dtype=np.float32))
    ids = [f"x{i:03d}" for i in rng.permutation(len(emb))]
    t = 0.6 * 2.0**-934  # a * t = 0.6 * 2**-1074
    queries = [(q, 6) for q in rng.normal(size=(10, d))] + [
        (base + 1e-4 * rng.normal(size=d), 6),  # the near rows straddle the cut
        (base.astype(np.float64), 3),
        (emb[3].astype(np.float64), 2),  # two of four tied rows, by id
        (np.array([1.0, 0, t, t, 0, 0, 0, 0]), len(emb)),  # every entry, subnormal sums
        (np.array([1e-300, 1.0, 3e-310, -2e-305, 0, 0, 0, 1e-320]), 6),  # tiny query values
    ]
    return ids, np.stack(emb), queries


def build_fixture() -> dict:
    from saliseg.store import Datastore

    ids, emb, queries = fixture_inputs()
    store = Datastore(ids, [""] * len(ids), emb)
    return {
        "store": [{"id": i, "embedding": [float(v).hex() for v in row]}
                  for i, row in zip(ids, emb)],
        "queries": [
            {"query": [float(v).hex() for v in q], "p": p,
             "hits": [[entry_id, sim.hex()] for entry_id, sim in
                      exact_topp(store, q, p, preselect=False)]}
            for q, p in queries
        ],
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build_fixture(), indent=1) + "\n", encoding="utf-8")
