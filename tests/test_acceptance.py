"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; corpora and training are fully seeded
so reruns are bit-reproducible.
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from saliseg import transport
from saliseg.data import (
    FrameFeatures,
    PipelineConfig,
    derive_highlight_labels,
    load_features,
    save_features,
)
from saliseg.errors import DataError
from saliseg.metrics import iou, localization_prf, segment_quality
from saliseg.pipeline import (
    run_pipeline,
    stage_assemble,
    stage_eval,
    stage_refine,
    stage_retrieve,
    stage_score_saliency,
    stage_segment,
    train_saliency_from_files,
)
from saliseg.refine import refine_features
from saliseg.saliency import (
    SaliencyExample,
    SaliencyHead,
    saliency_forward,
    saliency_grad,
    saliency_loss,
    saliency_prior,
    softmax,
    train_saliency,
)
from saliseg.segments import (
    baseline_kmeans,
    baseline_uniform,
    decode_segments,
    pool_segment_features,
    score_segments,
    select_topk,
)
from saliseg.store import DatastoreEntry, build_datastore, query_topp
from saliseg.synth import SynthSpec, generate_corpus, write_corpus
from saliseg.transport import (
    OtProblem,
    build_problem,
    build_structure_costs,
    gw_gradient,
    gw_value,
    init_anchors,
    kl_divergence,
    solve_fugw,
)

CFG = PipelineConfig()


def announce(num, message):
    print(f"\n[criterion {num:02d}] PASS: {message}")


def prepare(spec, train_count, epochs=8, train_seed=3):
    """Generate a corpus, refine features, train the head on a prefix."""
    corpus = generate_corpus(spec)
    examples = []
    for f, ann in zip(corpus.features, corpus.annotations):
        refined = refine_features(f.encoded, CFG.windows)
        examples.append(SaliencyExample(f.video_id, refined, derive_highlight_labels(ann)))
    head = train_saliency(examples[:train_count], replace(CFG, seed=train_seed), epochs=epochs).head
    return corpus, examples, head


def trained_prior(head, example):
    return saliency_prior(saliency_forward(head, example.features))


def ot_segments(xs, p_s, video_id, cfg=CFG, gamma=None):
    anchors = init_anchors(xs, cfg.K, cfg.seed, video_id)
    prob = build_problem(
        xs, anchors, p_s, cfg.alpha, cfg.gamma if gamma is None else gamma,
        cfg.epsilon, cfg.mu,
    )
    plan = solve_fugw(prob)
    segs = select_topk(score_segments(decode_segments(plan.T), plan.T), cfg.top_k)
    return segs, plan, prob


@pytest.fixture(scope="module")
def corpus_main():
    """Criterion 8 corpus: 50 videos at sigma 0.1, trained on all."""
    spec = SynthSpec(
        n_videos=50, noise_sigma=0.1, events_per_video=(5, 7), event_len=(4, 12),
        n_caption_concepts=10, seed=11,
    )
    return prepare(spec, train_count=50)


@pytest.fixture(scope="module")
def corpus_heldout():
    """Criterion 9 corpus: background leaks event appearance; 20/10 split."""
    spec = SynthSpec(
        n_videos=30, noise_sigma=0.1, events_per_video=(6, 8), event_len=(5, 9),
        n_caption_concepts=10, background_leak=0.5, seed=21,
    )
    return prepare(spec, train_count=20)


@pytest.fixture(scope="module")
def corpus_retrieval():
    """Criterion 10 corpus: low noise for concept-exact retrieval."""
    spec = SynthSpec(
        n_videos=30, noise_sigma=0.05, events_per_video=(5, 7), event_len=(4, 12),
        n_caption_concepts=10, seed=31,
    )
    return prepare(spec, train_count=30)


def random_head(rng, dim):
    return SaliencyHead(
        w_pool=rng.normal(size=dim),
        W1=rng.normal(size=(dim, dim)) * 0.5,
        W2=rng.normal(size=(dim, dim)) * 0.5,
    )


def composed_loss(head, xp, labels, tau):
    return saliency_loss(saliency_forward(head, xp), labels, tau)


class TestCriterion01GradientCorrectness:
    def test_analytic_vs_finite_differences(self):
        start = time.monotonic()
        h = 1e-4
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            head = random_head(rng, 8)
            xp = rng.normal(size=(12, 8))
            valid_len = int(rng.integers(9, 12))
            labels = np.zeros(12)
            highlight = rng.choice(valid_len, size=3, replace=False)
            labels[highlight] = 1.0
            xp, labels = xp[:valid_len], labels[:valid_len]
            _, analytic = saliency_grad(head, xp, labels, 0.5)
            for name in ("w_pool", "W1", "W2"):
                base = getattr(head, name)
                fd = np.zeros_like(base)
                it = np.nditer(base, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    plus = head.copy()
                    getattr(plus, name)[idx] += h
                    minus = head.copy()
                    getattr(minus, name)[idx] -= h
                    fd[idx] = (
                        composed_loss(plus, xp, labels, 0.5)
                        - composed_loss(minus, xp, labels, 0.5)
                    ) / (2 * h)
                denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(fd)), 1e-6)
                worst = max(worst, float(np.max(np.abs(analytic[name] - fd) / denom)))
        elapsed = time.monotonic() - start
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"
        announce(1, f"gradients match finite differences (max rel err {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion02LossClosedForms:
    def test_closed_forms_and_mask_insensitivity(self, tmp_path):
        loss2 = saliency_loss(np.array([1.7, 1.7]), np.array([1.0, 0]), 0.9)
        assert abs(loss2 - np.log(2)) <= 1e-12
        loss3 = saliency_loss(np.zeros(3), np.array([1.0, 1, 0]), 1.0)
        assert abs(loss3 - np.log(3)) <= 1e-12
        rng = np.random.default_rng(7)
        path = tmp_path / "v.sfeat"
        for _ in range(100):
            n = int(rng.integers(4, 16))
            scores = rng.normal(size=n) * 3
            valid_len = int(rng.integers(1, n + 1))
            labels = (rng.random(n) < 0.4).astype(float)
            labels[valid_len:] = 0.0
            labels[0] = 1.0
            tau = float(rng.uniform(0.2, 2.0))
            base = saliency_loss(scores[:valid_len], labels[:valid_len], tau)
            assert 0.0 <= base < np.inf
            # Padding ends at the reader: the valid rows, written padded to n
            # frames, load back exactly, and a nonzero padding value is a
            # DataError rather than a frame.
            rows = np.stack([scores, labels], axis=1)[:valid_len].astype(np.float32)
            save_features(FrameFeatures("v", rows, 2 * rows, n_frames=n), path)
            loaded = load_features(path)
            assert (loaded.n_frames, loaded.valid_len) == (n, valid_len)
            assert loaded.spatial.tobytes() == rows.tobytes()
            assert loaded.encoded.tobytes() == (2 * rows).tobytes()
            bump = rng.normal(size=n - valid_len) * 50
            if n > valid_len:
                raw = bytearray(path.read_bytes())
                first_pad = 28 + valid_len * 2 * 4
                raw[first_pad : first_pad + 4] = np.float32(bump[0]).tobytes()
                path.write_bytes(bytes(raw))
                with pytest.raises(DataError, match="nonzero padding rows"):
                    load_features(path)
        announce(2, "ln 2 / ln 3 closed forms exact, padding checked and dropped at the reader "
                    "on 100 instances")


class TestCriterion03TemperatureInvariance:
    def test_probability_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            scores = rng.normal(size=n) * 2
            valid_len = int(rng.integers(1, n + 1))
            tau = float(rng.uniform(0.3, 1.5))
            base = softmax(scores[:valid_len], tau)
            for c in (0.1, 1.0, 10.0):
                scaled = softmax(c * scores[:valid_len], c * tau)
                assert np.max(np.abs(scaled - base)) <= 1e-12
        announce(3, "softmax probabilities invariant under (c*scores, c*tau), c in {0.1, 1, 10}")


class TestCriterion04RefineIdentity:
    def test_identity_oracle_determinism(self):
        x_const = np.full((20, 6), 3.25)
        got = refine_features(x_const, (2, 5))
        assert np.max(np.abs(got - x_const)) < 1e-6

        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2))
        acc = np.zeros_like(x)
        count = np.zeros(4)
        for i in range(3):
            seg = x[i : i + 2]
            logits = seg @ seg.T / np.sqrt(2)
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            acc[i : i + 2] += w @ seg
            count[i : i + 2] += 1
        assert np.array_equal(count, [1, 2, 2, 1])
        avg = acc / count[:, None]
        normed = (avg - avg.mean(axis=1, keepdims=True)) / np.sqrt(
            avg.var(axis=1, keepdims=True) + 1e-5
        )
        assert np.max(np.abs(refine_features(x, (2,)) - (x + normed))) < 1e-10

        y = rng.normal(size=(40, 8))
        assert refine_features(y, (4, 9)).tobytes() == refine_features(y, (4, 9)).tobytes()
        announce(4, "constant identity, 4-frame overlap oracle at 1e-10, bit-exact reruns")


class TestCriterion05BalancedOracle:
    def test_enumeration_oracle_50_instances(self, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_OUTER", 20)
        start = time.monotonic()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            cost = rng.uniform(0, 1, (6, 2))
            prob = OtProblem(C_k=cost, p_hat=np.full(6, 1 / 6), alpha=0.0, gamma=1e6, epsilon=1e-3)
            plan = solve_fugw(prob)
            got = float(np.sum(cost * plan.T))
            best = min(
                sum(cost[i, 0] for i in chosen) / 6
                + sum(cost[i, 1] for i in range(6) if i not in chosen) / 6
                for chosen in itertools.combinations(range(6), 3)
            )
            worst = max(worst, (got - best) / abs(best))
        elapsed = time.monotonic() - start
        assert worst <= 0.02, f"worst relative gap {worst:.4f}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        announce(5, f"entropic cost within 2% of enumerated optimum (worst {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion06SolverConstraints:
    def test_marginals_trace_and_kl_pull(self, corpus_main):
        corpus, examples, head = corpus_main
        worst_col = 0.0
        worst_rise = -np.inf
        for f, ex in zip(corpus.features, examples):
            xs = f.spatial.astype(np.float64)
            p_s = trained_prior(head, ex)
            _, plan, prob = ot_segments(xs, p_s, f.video_id)
            worst_col = max(worst_col, float(np.max(np.abs(plan.T.sum(axis=0) - 1 / CFG.K))))
            trace = np.array(plan.objective_trace)
            worst_rise = max(worst_rise, float(np.max(np.diff(trace))))
        assert worst_col < 1e-6, f"anchor marginal violation {worst_col:.2e}"
        assert worst_rise <= 1e-9, f"objective rose by {worst_rise:.2e}"

        monotone = True
        for f, ex in zip(corpus.features[:20], examples[:20]):
            xs = f.spatial.astype(np.float64)
            p_s = trained_prior(head, ex)
            kls = []
            for gamma in (0.0, 0.3, 3.0, 30.0):
                _, plan, prob = ot_segments(xs, p_s, f.video_id, gamma=gamma)
                kls.append(kl_divergence(plan.T.sum(axis=1), prob.p_hat))
            monotone &= all(b <= a + 1e-9 for a, b in zip(kls, kls[1:]))
        assert monotone
        announce(
            6,
            f"anchor marginals exact to {worst_col:.1e}, traces non-increasing, "
            "KL pull monotone over gamma grid on 20 videos",
        )


class TestCriterion07GwMachinery:
    def test_decomposition_vs_brute_force(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for f_v, k in ((2, 2), (3, 2), (4, 3), (5, 3)):
            c_v, c_a = build_structure_costs(f_v, k)
            for _ in range(10):
                t = rng.random((f_v, k))
                t /= t.sum()
                value = 0.0
                grad = np.zeros_like(t)
                for n in range(f_v):
                    for m in range(f_v):
                        for j in range(k):
                            for l in range(k):
                                term = (c_v[n, m] - c_a[j, l]) ** 2
                                value += term * t[n, j] * t[m, l]
                for a in range(f_v):
                    for b in range(k):
                        acc = 0.0
                        for m in range(f_v):
                            for l in range(k):
                                acc += (c_v[a, m] - c_a[b, l]) ** 2 * t[m, l]
                        grad[a, b] = 2 * acc
                worst = max(worst, abs(gw_value(t) - value))
                worst = max(worst, float(np.max(np.abs(gw_gradient(t) - grad))))
        assert worst < 1e-10, f"worst deviation {worst:.2e}"
        announce(7, f"structure value and gradient match 4-index contraction (worst {worst:.1e})")


class TestCriterion08SegmentationQuality:
    def test_ot_beats_baselines(self, corpus_main):
        start = time.monotonic()
        corpus, examples, head = corpus_main
        miou = {"ot": [], "kmeans": [], "uniform": []}
        r05 = {"ot": [], "kmeans": [], "uniform": []}
        for f, ex, ann in zip(corpus.features, examples, corpus.annotations):
            n = f.valid_len
            xs = f.spatial.astype(np.float64)
            p_s = trained_prior(head, ex)
            gt = list(ann.events)
            segs, _, _ = ot_segments(xs, p_s, f.video_id)
            for name, segset in (
                ("ot", segs),
                ("kmeans", select_topk(baseline_kmeans(xs, CFG.K, CFG.seed, f.video_id), CFG.top_k)),
                ("uniform", baseline_uniform(n, CFG.top_k)),
            ):
                pred = [(s.start, s.end) for s in segset.selected_segments()]
                r, m, _ = segment_quality(pred, gt)
                miou[name].append(m)
                r05[name].append(r)
        elapsed = time.monotonic() - start
        m_ot = float(np.mean(miou["ot"]))
        m_km = float(np.mean(miou["kmeans"]))
        m_un = float(np.mean(miou["uniform"]))
        r_ot = float(np.mean(r05["ot"]))
        r_km = float(np.mean(r05["kmeans"]))
        r_un = float(np.mean(r05["uniform"]))
        assert m_ot >= m_km + 0.05, f"OT {m_ot:.3f} vs kmeans {m_km:.3f}"
        assert m_ot >= m_un + 0.05, f"OT {m_ot:.3f} vs uniform {m_un:.3f}"
        assert r_ot > r_km and r_ot > r_un
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        announce(
            8,
            f"Mean IoU OT {m_ot:.3f} vs kmeans {m_km:.3f} / uniform {m_un:.3f}; "
            f"Recall@0.5 {r_ot:.3f} > {r_km:.3f}, {r_un:.3f} ({elapsed:.0f}s)",
        )


class TestCriterion09SaliencyTraining:
    def test_heldout_separation_and_prior_value(self, corpus_heldout):
        corpus, examples, head = corpus_heldout
        held = range(20, 30)
        inside, outside = [], []
        for i in held:
            ex = examples[i]
            scores = saliency_forward(head, ex.features)
            labels = ex.labels
            inside.extend(scores[labels > 0])
            outside.extend(scores[labels == 0])
        inside = np.array(inside)
        outside = np.array(outside)
        se = np.sqrt(inside.var(ddof=1) / len(inside) + outside.var(ddof=1) / len(outside))
        z = (inside.mean() - outside.mean()) / se
        assert z >= 3.0, f"separation z = {z:.2f}"

        def mean_iou_for(prior_mode):
            out = []
            for i in held:
                f, ex, ann = corpus.features[i], examples[i], corpus.annotations[i]
                n = f.valid_len
                xs = f.spatial.astype(np.float64)
                p_s = trained_prior(head, ex) if prior_mode == "trained" else np.full(n, 0.5)
                segs, _, _ = ot_segments(xs, p_s, f.video_id)
                pred = [(s.start, s.end) for s in segs.selected_segments()]
                out.append(segment_quality(pred, list(ann.events))[1])
            return float(np.mean(out))

        m_trained = mean_iou_for("trained")
        m_uniform = mean_iou_for("uniform")
        assert m_trained > m_uniform, f"{m_trained:.4f} vs {m_uniform:.4f}"
        announce(
            9,
            f"held-out saliency gap {z:.0f} standard errors; trained prior Mean IoU "
            f"{m_trained:.4f} > uniform prior {m_uniform:.4f}",
        )


class TestCriterion10RetrievalExactness:
    def test_linear_scan_oracle_10k(self):
        rng = np.random.default_rng(77)
        n, d = 10_000, 8
        vecs = rng.normal(size=(n, d))
        entries = [
            DatastoreEntry(f"id{i:05d}", "", vecs[i].astype(np.float32)) for i in range(n)
        ]
        store = build_datastore(entries)
        # Ids ascend with the row index, so a stable sort on descending
        # similarity breaks ties by id.
        assert store.entry_ids == sorted(store.entry_ids)
        emb = store.embeddings.astype(np.float64)
        for _ in range(1000):
            q = rng.normal(size=d)
            got = query_topp(store, q, 10)
            sims = emb @ (q / np.linalg.norm(q))
            order = np.argsort(-sims, kind="stable")
            want = [(store.entry_ids[i], float(sims[i])) for i in order[:10]]
            assert got == want
        announce(10, "exact against linear scan on 1000 queries x 10000 entries")

    def test_synthetic_concept_match(self, corpus_retrieval):
        corpus, examples, head = corpus_retrieval
        match = total = 0
        for f, ex, ann in zip(corpus.features, examples, corpus.annotations):
            xs = f.spatial.astype(np.float64)
            p_s = trained_prior(head, ex)
            segs, _, _ = ot_segments(xs, p_s, f.video_id)
            for seg in segs.selected_segments():
                overlaps: dict[str, int] = {}
                for (s, e), cid in zip(ann.events, corpus.truth[f.video_id]):
                    ov = max(0, min(e, seg.end) - max(s, seg.start))
                    if ov > 0:
                        overlaps[cid] = overlaps.get(cid, 0) + ov
                generating = max(overlaps, key=lambda c: overlaps[c]) if overlaps else None
                pooled = pool_segment_features(seg, xs, p_s)
                top1 = query_topp(corpus.datastore, pooled, 1)[0][0]
                total += 1
                match += int(top1 == generating)
        rate = match / total
        assert rate >= 0.90, f"concept match rate {rate:.3f}"
        announce(10, f"top-1 retrieved concept matches generator for {rate:.1%} of selected segments")


class TestCriterion11MetricsOracle:
    def test_hand_cases_and_brute_force(self):
        rep = localization_prf([(0, 5), (9, 14)], [(0, 5), (9, 14)])
        assert rep.precision == rep.recall == rep.f1 == 1.0
        rep = localization_prf([(0, 10)], [(5, 15)])
        assert abs(rep.precision - 0.25) < 1e-12 and abs(rep.recall - 0.25) < 1e-12

        rng = np.random.default_rng(13)
        for _ in range(200):
            horizon = 30
            def intervals(count):
                out = []
                for _ in range(count):
                    s = int(rng.integers(0, horizon - 1))
                    e = int(rng.integers(s + 1, min(s + 10, horizon) + 1))
                    out.append((s, e))
                return out

            pred = intervals(int(rng.integers(1, 6)))
            gt = intervals(int(rng.integers(1, 5)))
            rep = localization_prf(pred, gt)
            for t in (0.3, 0.5, 0.7, 0.9):
                p_ref = sum(max(iou(p, g) for g in gt) >= t for p in pred) / len(pred)
                r_ref = sum(max(iou(p, g) for p in pred) >= t for g in gt) / len(gt)
                assert rep.per_threshold[t]["precision"] == p_ref
                assert rep.per_threshold[t]["recall"] == r_ref
            r05, miou, matched = segment_quality(pred, gt)
            assert r05 == sum(max(iou(p, g) for p in pred) >= 0.5 for g in gt) / len(gt)
            assert abs(miou - np.mean([max(iou(p, g) for p in pred) for g in gt])) < 1e-12
            assert matched <= min(len(pred), len(gt))
        announce(11, "localization metrics exact vs double-loop reference on 200 instances")


class TestCriterion12PipelineDeterminism:
    def test_byte_identity_and_stage_chaining(self, tmp_path):
        cfg = PipelineConfig(windows=(4, 8), K=4, top_k=3, top_p=2, seed=17)
        spec = SynthSpec(
            n_videos=4, F=40, D=12, events_per_video=(2, 3), event_len=(5, 8),
            noise_sigma=0.05, n_caption_concepts=6, seed=17,
        )
        data = tmp_path / "data"
        write_corpus(generate_corpus(spec), data)
        head = tmp_path / "head.shd"
        train_saliency_from_files(
            data / "features", data / "annotations.jsonl", cfg, head, epochs=3
        )

        def tree(root: Path):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        runs = []
        for name in ("one", "two"):
            out = tmp_path / name
            run_pipeline(
                cfg, data / "features", data / "annotations.jsonl",
                data / "datastore.sds", head, out,
            )
            runs.append(tree(out))
        assert runs[0] == runs[1]

        chained = tmp_path / "chained"
        chained.mkdir()
        stage_refine(data / "features", chained / "refined", cfg)
        stage_score_saliency(chained / "refined", head, cfg, chained / "saliency.jsonl")
        stage_segment(data / "features", chained / "saliency.jsonl", cfg, chained / "segments.jsonl")
        stage_retrieve(
            data / "features", chained / "saliency.jsonl", chained / "segments.jsonl",
            data / "datastore.sds", cfg, chained / "retrieval.jsonl",
        )
        stage_assemble(
            chained / "refined", chained / "saliency.jsonl", chained / "retrieval.jsonl",
            cfg, chained / "tin",
        )
        stage_eval(
            chained / "segments.jsonl", data / "annotations.jsonl",
            chained / "report.json", chained / "report.txt",
        )
        mono = dict(runs[0])
        mono.pop("manifest.json")
        assert mono == tree(chained)
        announce(12, "reruns byte-identical; chained stages equal monolithic run byte-for-byte")
