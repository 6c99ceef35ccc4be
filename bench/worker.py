"""Child processes of the benchmark: set-up, and the timed repeats.

``python3 bench/worker.py setup|measure <request.json> <result.json>``

Set-up and measurement run in separate processes so that the peak resident
memory of the measuring process does not include corpus synthesis, the
datastore build or head training. Both import ``saliseg`` from the
checkout's ``src`` and refuse any other copy.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, Workload, tiny  # noqa: E402

def import_saliseg():
    """Import the package from ``<checkout>/src``; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "saliseg" / "__init__.py").is_file():
        raise SystemExit(f"saliseg sources not found under {src}")
    sys.path.insert(0, str(src))
    import saliseg

    if Path(saliseg.__file__).resolve().parent != (src / "saliseg").resolve():
        raise SystemExit(f"imported saliseg from {saliseg.__file__}, expected {src}")
    return saliseg


def workload_from(request: dict) -> Workload:
    w = WORKLOADS[request["workload"]]
    return tiny(w) if request.get("tiny") else w


def cli_training_defaults() -> tuple[int, float]:
    """Epochs and learning rate that ``saliseg train-saliency`` uses by default."""
    from saliseg.cli import build_parser

    args = build_parser().parse_args(
        ["train-saliency", "--features-dir", ".", "--annotations", ".", "--out-head", "."]
    )
    return args.epochs, args.lr


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_inputs(w: Workload, seed: int, out: Path) -> None:
    """Synthesize the corpus, the datastore and the trained head under ``out``."""
    import numpy as np
    from saliseg import pipeline, store, synth
    from saliseg.rng import substream

    corpus = synth.generate_corpus(w.synth_spec(seed))
    synth.write_corpus(corpus, out)
    if w.datastore_size is not None:
        n_extra = w.datastore_size - len(corpus.datastore)
        rng = substream(seed, "bench", "distractors")
        vecs = rng.standard_normal((n_extra, corpus.datastore.dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        entries = [
            store.DatastoreEntry(e, c, v)
            for e, c, v in zip(
                corpus.datastore.entry_ids, corpus.datastore.captions, corpus.datastore.embeddings
            )
        ]
        entries += [
            store.DatastoreEntry(f"d{i:06d}", f"distractor {i}", v.astype(np.float32))
            for i, v in enumerate(vecs)
        ]
        store.save_datastore(store.build_datastore(entries), out / "datastore.sds")
    epochs, lr = cli_training_defaults()
    pipeline.train_saliency_from_files(
        out / "features", out / "annotations.jsonl", w.config(seed), out / "head.shd",
        epochs=epochs, learning_rate=lr,
    )


def run_setup(request: dict) -> dict:
    """One set-up repetition, timed from the start of this process."""
    import_saliseg()
    from spans import SETUP_METRICS, Tracer, evaluate

    out = Path(request["inputs_dir"])
    out.mkdir(parents=True)
    tracer = Tracer()
    with tracer if request["trace"] else contextlib.nullcontext():
        build_inputs(workload_from(request), request["seed"], out)
        setup_s = time.perf_counter() - _PROCESS_START
    result = {
        "setup_s": setup_s,
        "digests": {str(p.relative_to(out)): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()},
    }
    if request["trace"]:
        metrics, missing = evaluate(SETUP_METRICS, [tracer.spans], tracer.missing(tracer.spans))
        result.update(per_layer=metrics, missing=missing, hook_errors=tracer.hook_errors)
    return result


def environment(seed: int) -> dict:
    """Machine and library versions that the figures depend on."""
    import ctypes

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.rsplit("/", 1)[-1].lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def run_measure(request: dict) -> dict:
    """Warm up once, then run the pipeline repeatedly for ``seconds``.

    In trace mode untraced and traced repeats alternate, so the overhead of
    tracing is measured against repeats made at the same time.
    """
    saliseg = import_saliseg()
    from saliseg import pipeline
    from spans import REPEAT_METRICS, Tracer, evaluate

    w = workload_from(request)
    seed = request["seed"]
    inputs = Path(request["inputs_dir"])
    runs = Path(request["work_dir"]) / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    cfg = w.config(seed)

    def run(out: Path, features=inputs / "features", annotations=inputs / "annotations.jsonl"):
        t0 = time.perf_counter()
        pipeline.run_pipeline(
            cfg, features, annotations, inputs / "datastore.sds", inputs / "head.shd", out
        )
        return time.perf_counter() - t0

    # The warm-up runs every stage on the first video alone: it does what a
    # process does only once at the cost of one video, not of a whole corpus.
    first = sorted((inputs / "features").glob("*.sfeat"))[0]
    warm = runs / "warmup-inputs"
    (warm / "features").mkdir(parents=True)
    shutil.copy(first, warm / "features" / first.name)
    annotations = (inputs / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
    (warm / "annotations.jsonl").write_text(
        "".join(line + "\n" for line in annotations if json.loads(line)["video_id"] == first.stem),
        encoding="utf-8",
    )
    warmup_s = run(runs / "warmup", warm / "features", warm / "annotations.jsonl")

    tracer = Tracer() if request["trace"] else None
    repeats, groups = [], []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(repeats) % 2 == 1
        out = runs / f"r{len(repeats):03d}"
        if traced:
            tracer.spans = []
            with tracer:
                seconds = run(out)
            groups.append(tracer.spans)
        else:
            seconds = run(out)
        repeats.append({"dir": str(out), "seconds": seconds, "traced": traced})
        enough = tracer is None or len(repeats) >= 2
        if enough and time.perf_counter() - begin >= request["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "warmup_s": warmup_s,
        "repeats": repeats,
        "peak_rss_mb": peak_rss_mb,
        "environment": {**environment(seed), "saliseg": saliseg.__version__},
    }
    if tracer is not None:
        all_spans = [s for g in groups for s in g]
        missing = tracer.missing(all_spans)
        metrics, missing_metrics = evaluate(REPEAT_METRICS, groups, missing)
        result.update(per_layer=metrics, missing=missing_metrics, hook_errors=tracer.hook_errors)
        with open(request["trace_path"], "w", encoding="utf-8") as fh:
            for rep, group in enumerate(groups):
                for s in group:
                    fh.write(json.dumps([rep, s.name, s.start, s.end, s.parent, s.video, s.counters]))
                    fh.write("\n")
    return result


def main(argv: list[str]) -> int:
    mode, request_path, result_path = argv
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    result = {"setup": run_setup, "measure": run_measure}[mode](request)
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
