"""Temporal localization metrics on half-open frame intervals.

Precision at a threshold counts predictions whose best IoU against any
ground-truth event reaches the threshold; recall counts ground-truth events
covered likewise (many-to-one matching on both sides). The headline F1 is
the harmonic mean of threshold-averaged precision and recall; each
per-threshold F1, reported alongside, is the harmonic mean of that
threshold's precision and recall. Matched Segments uses a greedy one-to-one
matching instead: candidate pairs sorted by IoU descending, each side used
at most once, pairs below IoU 0.5 ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import write_file
from .errors import DataError

THRESHOLDS = (0.3, 0.5, 0.7, 0.9)

Interval = tuple[int, int]


def iou(a: Interval, b: Interval) -> float:
    """Intersection over union of two half-open intervals; 0 when disjoint."""
    (a_s, a_e), (b_s, b_e) = a, b
    if a_s >= a_e or b_s >= b_e:
        raise DataError("empty interval")
    inter = max(0, min(a_e, b_e) - max(a_s, b_s))
    union = (a_e - a_s) + (b_e - b_s) - inter
    return inter / union


@dataclass
class LocalizationReport:
    """Threshold-averaged precision/recall/F1 plus segment-quality indicators."""

    precision: float
    recall: float
    f1: float
    per_threshold: dict[float, dict[str, float]]
    recall_at_05: float
    mean_iou: float
    matched_segments: float
    flags: list[str] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "per_threshold": {str(t): v for t, v in sorted(self.per_threshold.items())},
            "recall_at_05": self.recall_at_05,
            "mean_iou": self.mean_iou,
            "matched_segments": self.matched_segments,
            "flags": self.flags,
        }


def _f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def _max_ious(sources: list[Interval], targets: list[Interval]) -> list[float]:
    return [max((iou(s, t) for t in targets), default=0.0) for s in sources]


def localization_prf(pred: list[Interval], gt: list[Interval]) -> LocalizationReport:
    """Precision/recall/F1 averaged over the IoU ``THRESHOLDS`` for one video.

    Empty predictions give precision 0 with a flag rather than being
    skipped, so degraded runs are penalized. Empty ground truth is flagged
    and yields zero recall.
    """
    flags: list[str] = []
    if not gt:
        flags.append("empty_gt")
    if not pred:
        flags.append("empty_pred")
    pred_best = _max_ious(pred, gt)
    gt_best = _max_ious(gt, pred)
    per_threshold: dict[float, dict[str, float]] = {}
    p_sum = r_sum = 0.0
    for t in THRESHOLDS:
        p_t = sum(v >= t for v in pred_best) / len(pred) if pred else 0.0
        r_t = sum(v >= t for v in gt_best) / len(gt) if gt else 0.0
        per_threshold[t] = {"precision": p_t, "recall": r_t, "f1": _f1(p_t, r_t)}
        p_sum += p_t
        r_sum += r_t
    precision = p_sum / len(THRESHOLDS)
    recall = r_sum / len(THRESHOLDS)
    r05, miou, matched = segment_quality(pred, gt) if gt else (0.0, 0.0, 0)
    return LocalizationReport(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        per_threshold=per_threshold,
        recall_at_05=r05,
        mean_iou=miou,
        matched_segments=float(matched),
        flags=flags,
    )


def segment_quality(pred: list[Interval], gt: list[Interval]) -> tuple[float, float, int]:
    """(Recall@0.5, mean best IoU over ground truth, greedy matched count)."""
    if not gt:
        raise DataError("segment quality needs nonempty ground truth")
    gt_best = _max_ious(gt, pred)
    recall_at_05 = sum(v >= 0.5 for v in gt_best) / len(gt)
    mean_iou = sum(gt_best) / len(gt)
    # Candidate pairs by IoU descending, then pred and gt index.
    pairs = sorted(
        (-v, i, j) for i, p in enumerate(pred) for j, g in enumerate(gt) if (v := iou(p, g)) >= 0.5
    )
    used_p: set[int] = set()
    used_g: set[int] = set()
    for _, i, j in pairs:
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
    return recall_at_05, mean_iou, len(used_p)


def evaluate_corpus(
    per_video: dict[str, tuple[list[Interval], list[Interval]]],
) -> tuple[LocalizationReport, dict[str, LocalizationReport]]:
    """Unweighted per-video mean of every metric, in sorted video order, except
    F1: at each threshold and overall it is the harmonic mean of the corpus
    precision and recall, so every row of a report obeys one F1 rule."""
    if not per_video:
        raise DataError("empty corpus")
    reports = {
        vid: localization_prf(pred, gt)
        for vid, (pred, gt) in sorted(per_video.items())
    }
    n = len(reports)
    mean = lambda key: sum(getattr(r, key) for r in reports.values()) / n  # noqa: E731
    per_threshold: dict[float, dict[str, float]] = {}
    for t in THRESHOLDS:
        p_t = sum(r.per_threshold[t]["precision"] for r in reports.values()) / n
        r_t = sum(r.per_threshold[t]["recall"] for r in reports.values()) / n
        per_threshold[t] = {"precision": p_t, "recall": r_t, "f1": _f1(p_t, r_t)}
    precision = mean("precision")
    recall = mean("recall")
    corpus = LocalizationReport(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        per_threshold=per_threshold,
        recall_at_05=mean("recall_at_05"),
        mean_iou=mean("mean_iou"),
        matched_segments=mean("matched_segments"),
        flags=sorted({f"{vid}:{fl}" for vid, r in reports.items() for fl in r.flags}),
    )
    return corpus, reports


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def report_to_json(corpus: LocalizationReport, per_video: dict[str, LocalizationReport]) -> str:
    doc = {
        "corpus": corpus.to_doc(),
        "videos": {vid: r.to_doc() for vid, r in sorted(per_video.items())},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _report_rows(corpus: LocalizationReport) -> list[tuple[str, float]]:
    """(name, value) of the six corpus scalars, then each threshold's triplet."""
    rows = [
        (key, getattr(corpus, key))
        for key in ("precision", "recall", "f1", "recall_at_05", "mean_iou", "matched_segments")
    ]
    for t, vals in sorted(corpus.per_threshold.items()):
        rows += [(f"{k}@{t}", vals[k]) for k in ("precision", "recall", "f1")]
    return rows


def report_to_table(corpus: LocalizationReport) -> str:
    rows = [("metric", "value")] + [(name, f"{v:.4f}") for name, v in _report_rows(corpus)]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"


def report_to_csv(corpus: LocalizationReport) -> str:
    lines = ["metric,value"] + [f"{name},{v}" for name, v in _report_rows(corpus)]
    return "\n".join(lines) + "\n"


def save_report(
    corpus: LocalizationReport,
    per_video: dict[str, LocalizationReport],
    json_path: str | Path,
    table_path: str | Path | None = None,
    csv_path: str | Path | None = None,
) -> None:
    write_file(json_path, report_to_json(corpus, per_video))
    if table_path is not None:
        write_file(table_path, report_to_table(corpus))
    if csv_path is not None:
        write_file(csv_path, report_to_csv(corpus))
