"""Command-line front end.

Subcommands: synth, refine, train-saliency, score-saliency, segment,
retrieve, assemble, eval, pipeline. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .data import PipelineConfig, dataclass_from_json, load_config, read_text
from .errors import ConfigError, DataError, NumericalError
from .pipeline import (
    BASELINES,
    run_pipeline,
    stage_assemble,
    stage_eval,
    stage_refine,
    stage_retrieve,
    stage_score_saliency,
    stage_segment,
    train_saliency_from_files,
)
from .saliency import EPOCHS, LEARNING_RATE
from .synth import SynthSpec, generate_corpus, write_corpus

logger = logging.getLogger("saliseg")


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _synth(args: argparse.Namespace) -> None:
    spec = dataclass_from_json(SynthSpec, read_text(args.spec))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    write_corpus(generate_corpus(spec), args.out_dir)


def _train_saliency(args: argparse.Namespace) -> None:
    result = train_saliency_from_files(
        args.features_dir, args.annotations, _load_cfg(args), args.out_head,
        epochs=args.epochs, learning_rate=args.lr, fail_fast=args.fail_fast,
    )
    if result.loss_curve:
        logger.info("final mean loss %.6f", result.loss_curve[-1])


def _eval(args: argparse.Namespace) -> None:
    out = Path(args.out)
    if out.suffix in (".txt", ".csv"):  # the tables' own suffixes
        raise ConfigError(f"--out {out}: the report table would overwrite it")
    csv = out.with_suffix(".csv") if args.csv else None
    corpus = stage_eval(args.pred, args.gt, out, out.with_suffix(".txt"), csv)
    sys.stdout.write(
        f"precision={corpus.precision:.4f} recall={corpus.recall:.4f} f1={corpus.f1:.4f}\n"
    )


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, carrying its handler as ``run``. The
    per-video ones read a :class:`PipelineConfig`, so only they take
    ``--config``, ``--seed`` and ``--fail-fast``."""
    parser = argparse.ArgumentParser(prog="saliseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    logs = argparse.ArgumentParser(add_help=False)
    logs.add_argument("--log-level", default="warning",
                      choices=["debug", "info", "warning", "error"])

    def command(name: str, help: str, run, per_video: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[logs])
        if per_video:
            p.add_argument("--config", type=Path, default=None, help="pipeline config JSON")
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
            p.add_argument("--fail-fast", action="store_true",
                           help="abort on the first failing video instead of skipping it")
        p.set_defaults(run=run)
        return p

    p = command("synth", "generate a synthetic corpus", _synth, per_video=False)
    p.add_argument("--spec", type=Path, required=True, help="synth spec JSON")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = command("refine", "sliding-window self-attention refinement",
                lambda a: stage_refine(a.features_dir, a.out_dir, _load_cfg(a), a.fail_fast))
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)

    p = command("train-saliency", "train the saliency head", _train_saliency)
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--out-head", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=EPOCHS)
    p.add_argument("--lr", type=float, default=LEARNING_RATE)

    p = command("score-saliency", "score refined features with a head",
                lambda a: stage_score_saliency(a.features_dir, a.head, _load_cfg(a), a.out,
                                               a.fail_fast))
    p.add_argument("--features-dir", type=Path, required=True, help="refined features")
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = command("segment", "transport-based segmentation", lambda a: stage_segment(
        a.features_dir, a.saliency, _load_cfg(a), a.out,
        baseline=a.baseline, dump_plan_dir=a.dump_plan, fail_fast=a.fail_fast))
    p.add_argument("--features-dir", type=Path, required=True, help="original features")
    p.add_argument("--saliency", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--baseline", choices=BASELINES, default="none")
    p.add_argument("--dump-plan", type=Path, default=None, help="directory for plan dumps")

    p = command("retrieve", "top-p caption retrieval per segment", lambda a: stage_retrieve(
        a.features_dir, a.saliency, a.segments, a.datastore, _load_cfg(a), a.out, a.fail_fast))
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--saliency", type=Path, required=True)
    p.add_argument("--segments", type=Path, required=True)
    p.add_argument("--datastore", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = command("assemble", "assemble decoder-input sequences", lambda a: stage_assemble(
        a.features_dir, a.saliency, a.retrieval, _load_cfg(a), a.out_dir, a.fail_fast))
    p.add_argument("--features-dir", type=Path, required=True, help="refined features")
    p.add_argument("--saliency", type=Path, required=True)
    p.add_argument("--retrieval", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)

    p = command("eval", "localization metrics", _eval, per_video=False)
    p.add_argument("--pred", type=Path, required=True, help="segments JSONL")
    p.add_argument("--gt", type=Path, required=True, help="annotations JSONL")
    p.add_argument("--out", type=Path, required=True, help="report JSON path")
    p.add_argument("--csv", action="store_true", help="also write a CSV table")

    p = command("pipeline", "run every stage end to end", lambda a: run_pipeline(
        _load_cfg(a), a.features_dir, a.annotations, a.datastore, a.head, a.out_dir,
        baseline=a.baseline, dump_plan=a.dump_plan, fail_fast=a.fail_fast))
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--datastore", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--baseline", choices=BASELINES, default="none")
    p.add_argument("--dump-plan", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    try:
        args.run(args)
        return 0
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except DataError as exc:
        logger.error("data error: %s", exc)
        return 3
    except NumericalError as exc:
        logger.error("numerical failure: %s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
