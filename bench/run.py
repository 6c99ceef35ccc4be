"""Benchmark of the saliseg pipeline on seeded synthetic corpora.

    python3 bench/run.py --workload short-many --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``saliseg`` from its
``src`` directory; nothing needs building or installing. One process, one
caller, closed loop: each timed repeat is one call of the public
``saliseg.pipeline.run_pipeline`` with default arguments over the whole
corpus, and the next starts when it returns.

A run has three steps, each in its own process:

1. set-up, ``SETUP_REPS`` times, each in a fresh process: import the
   package, synthesize the corpus from the seed and write it, build and save
   the datastore, train the saliency head with the command line's default
   epochs;
2. measurement: a warm-up run on the first video alone, then timed repeats
   of the whole corpus until ``--seconds`` have passed;
3. here, outside any timed region: check every run's outputs (see
   ``checks.py``) and report.

With ``--trace 0`` the end-to-end metrics are reported:

* ``videos_per_s`` (1/s): videos per wall second, median over repeats;
* ``setup_s`` (s): median time of a set-up process, from its start until
  the inputs are written (the one-video warm-up is recorded apart);
* ``peak_rss_mb`` (MB): peak resident memory of the measuring process;
* ``f1``, ``mean_iou``: corpus localization quality from ``report.json``;
* ``ok_ratio``: share of video runs that pass every output check, i.e.
  1 - failed_ratio (a ratio that is never 0, so a relative bound applies).

With ``--trace 1`` untraced and traced repeats alternate and the per-layer
metrics of ``spans.py`` are reported, with ``trace.overhead_ratio``, the
traced median over the untraced one. Names the tracer could not find are
listed as missing and reported as 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count video runs over the timed repeats. A full record of the
run (environment, quality fingerprint, every repeat) is written to
``.bench_work/results/BENCH_<tag>.json``, and a traced run's spans to
``TRACE_<tag>.jsonl`` beside it. The benchmark's own tests:
``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, tiny  # noqa: E402

SETUP_REPS = 3
TIME_LIMIT_S = 170.0
# One BLAS thread: the pipeline's matrices are small, and extra threads only
# add scheduling noise on a shared machine.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "videos_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "f1": "ratio", "mean_iou": "ratio", "ok_ratio": "ratio",
}


class BenchError(Exception):
    pass


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny corpora, for the benchmark's own tests")
    return p.parse_args(argv)


def run_child(mode: str, request: dict, work: Path, deadline: float) -> dict:
    """Run ``worker.py <mode>`` to completion and return its result."""
    request_path, result_path = work / f"{mode}-request.json", work / f"{mode}-result.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, str(request_path), str(result_path)]
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, **PINNED_ENV}, cwd=ROOT, stdout=2,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} step exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} step failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def check_outputs(w, seed: int, inputs: Path, measure: dict) -> dict:
    """Run the output checks on every timed repeat; all must equal the first."""
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from saliseg.data import load_features

    videos = {}
    for path in sorted((inputs / "features").glob("*.sfeat")):
        f = load_features(path)
        videos[f.video_id] = (f.spatial[: f.valid_len].astype("float64"), f.valid_len)
    checker = checks.RunChecker(inputs, w.config(seed), videos)

    first = Path(measure["repeats"][0]["dir"])
    fingerprint = {name: _sha256(first / name) for name in ("segments.jsonl", "retrieval.jsonl")}
    report_digest = _sha256(first / "report.json")
    attempted = failed = 0
    notes = []
    for i, rep in enumerate(measure["repeats"]):
        run_dir = Path(rep["dir"])
        for v, ps in checker.check(run_dir).items():
            attempted += 1
            failed += bool(ps)
            notes += [f"repeat {i} {v}: {p}" for p in ps]
        for name, digest in {**fingerprint, "report.json": report_digest}.items():
            if _sha256(run_dir / name) != digest:
                notes.append(f"repeat {i}: {name} differs from the first repeat")
    report = json.loads((first / "report.json").read_text(encoding="utf-8"))["corpus"]
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "fingerprint": {**fingerprint, "f1": report["f1"], "mean_iou": report["mean_iou"]},
    }


def end_to_end(w, setups: list[dict], measure: dict, checked: dict) -> dict:
    plain = [r["seconds"] for r in measure["repeats"] if not r["traced"]]
    values = {
        "videos_per_s": w.n_videos / statistics.median(plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": measure["peak_rss_mb"],
        "f1": checked["fingerprint"]["f1"],
        "mean_iou": checked["fingerprint"]["mean_iou"],
        "ok_ratio": 1.0 - checked["failed"] / checked["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(setups: list[dict], measure: dict) -> tuple[dict, dict]:
    metrics = dict(measure["per_layer"])
    for name, m in setups[0]["per_layer"].items():
        metrics[name] = {
            "value": statistics.median(s["per_layer"][name]["value"] for s in setups),
            "unit": m["unit"],
        }
    plain = [r["seconds"] for r in measure["repeats"] if not r["traced"]]
    traced = [r["seconds"] for r in measure["repeats"] if r["traced"]]
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(plain), "unit": "ratio",
    }
    missing = {**measure["missing"], **setups[0]["missing"]}
    for part in (measure, setups[0]):
        for span, err in part["hook_errors"].items():
            missing[f"{span} counters"] = f"counter hook failed: {err}"
    return metrics, missing


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "saliseg" / "__init__.py").is_file():
        print(f"error: no saliseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    tag = f"{args.workload}_seed{args.seed}"
    tag += ("_trace" if args.trace else "") + ("_tiny" if args.tiny else "")
    work = WORK_ROOT / tag
    inputs = work / "inputs"
    results = WORK_ROOT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    base = {"workload": args.workload, "tiny": args.tiny, "seed": args.seed,
            "trace": args.trace, "work_dir": str(work)}
    try:
        setups = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(inputs, ignore_errors=True)
            setups.append(run_child("setup", {**base, "inputs_dir": str(inputs)}, work, deadline))
        measure = run_child(
            "measure",
            {**base, "inputs_dir": str(inputs), "seconds": args.seconds,
             "trace_path": str(results / f"TRACE_{tag}.jsonl")},
            work, deadline,
        )
        checked = check_outputs(w, args.seed, inputs, measure)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(s["digests"] != setups[0]["digests"] for s in setups):
        checked["notes"].append("set-up repetitions produced different inputs")

    missing = {}
    if args.trace:
        metrics, missing = per_layer(setups, measure)
    else:
        metrics = end_to_end(w, setups, measure, checked)
    correct = not checked["notes"]
    record = {
        "workload": args.workload, "why": w.why, "seed": args.seed, "trace": args.trace,
        "videos": w.n_videos, "correct": correct, "attempted": checked["attempted"],
        "failed": checked["failed"], "metrics": metrics, "missing": missing,
        "fingerprint": checked["fingerprint"], "environment": measure["environment"],
        "setup_s": [s["setup_s"] for s in setups], "warmup_s": measure["warmup_s"],
        "repeats": [{k: v for k, v in r.items() if k != "dir"} for r in measure["repeats"]],
        "problems": checked["notes"][:50],
    }
    (results / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    n_rep = len(measure["repeats"])
    print(f"workload {args.workload} (seed {args.seed}): {w.n_videos} videos, "
          f"{n_rep} timed repeats, closed loop, one caller")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':36s} {checked['failed'] / checked['attempted']:.6g} ratio "
          f"({checked['failed']} of {checked['attempted']} video runs)")
    for name, why in sorted(missing.items()):
        print(f"  missing {name}: {why}")
    print("fingerprint " + json.dumps(checked["fingerprint"], sort_keys=True))
    print("environment " + json.dumps(measure["environment"], sort_keys=True))
    for note in checked["notes"][:20]:
        print(f"problem: {note}")
    print(json.dumps({"correct": correct, "attempted": checked["attempted"],
                      "failed": checked["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
