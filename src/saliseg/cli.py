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
from .synth import SynthSpec, generate_corpus, write_corpus

logger = logging.getLogger("saliseg")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort on the first failing video instead of skipping it")
    p.add_argument("--log-level", default="warning", choices=["debug", "info", "warning", "error"])


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="saliseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", type=Path, required=True, help="synth spec JSON")
    p.add_argument("--out-dir", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("refine", help="sliding-window self-attention refinement")
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("train-saliency", help="train the saliency head")
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--out-head", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    _add_common(p)

    p = sub.add_parser("score-saliency", help="score refined features with a head")
    p.add_argument("--features-dir", type=Path, required=True, help="refined features")
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("segment", help="transport-based segmentation")
    p.add_argument("--features-dir", type=Path, required=True, help="original features")
    p.add_argument("--saliency", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--baseline", choices=BASELINES, default="none")
    p.add_argument("--dump-plan", type=Path, default=None, help="directory for plan dumps")
    _add_common(p)

    p = sub.add_parser("retrieve", help="top-p caption retrieval per segment")
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--saliency", type=Path, required=True)
    p.add_argument("--segments", type=Path, required=True)
    p.add_argument("--datastore", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("assemble", help="assemble decoder-input sequences")
    p.add_argument("--features-dir", type=Path, required=True, help="refined features")
    p.add_argument("--saliency", type=Path, required=True)
    p.add_argument("--retrieval", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--text-dir", type=Path, default=None)
    _add_common(p)

    p = sub.add_parser("eval", help="localization metrics")
    p.add_argument("--pred", type=Path, required=True, help="segments JSONL")
    p.add_argument("--gt", type=Path, required=True, help="annotations JSONL")
    p.add_argument("--out", type=Path, required=True, help="report JSON path")
    p.add_argument("--csv", action="store_true", help="also write a CSV table")
    _add_common(p)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--features-dir", type=Path, required=True)
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--datastore", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--baseline", choices=BASELINES, default="none")
    p.add_argument("--dump-plan", action="store_true")
    p.add_argument("--text-dir", type=Path, default=None)
    _add_common(p)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "synth":
        spec = dataclass_from_json(SynthSpec, read_text(args.spec))
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        write_corpus(generate_corpus(spec), args.out_dir)
        return 0

    cfg = _load_cfg(args)
    if args.command == "refine":
        stage_refine(args.features_dir, args.out_dir, cfg, args.fail_fast)
    elif args.command == "train-saliency":
        result = train_saliency_from_files(
            args.features_dir, args.annotations, cfg, args.out_head,
            epochs=args.epochs, learning_rate=args.lr, fail_fast=args.fail_fast,
        )
        if result.loss_curve:
            logger.info("final mean loss %.6f", result.loss_curve[-1])
    elif args.command == "score-saliency":
        stage_score_saliency(args.features_dir, args.head, cfg, args.out, args.fail_fast)
    elif args.command == "segment":
        stage_segment(
            args.features_dir, args.saliency, cfg, args.out,
            baseline=args.baseline, dump_plan_dir=args.dump_plan, fail_fast=args.fail_fast,
        )
    elif args.command == "retrieve":
        stage_retrieve(
            args.features_dir, args.saliency, args.segments, args.datastore,
            cfg, args.out, args.fail_fast,
        )
    elif args.command == "assemble":
        stage_assemble(
            args.features_dir, args.saliency, args.retrieval, cfg, args.out_dir,
            text_dir=args.text_dir, fail_fast=args.fail_fast,
        )
    elif args.command == "eval":
        out = Path(args.out)
        table = out.with_suffix(".txt")
        csv = out.with_suffix(".csv") if args.csv else None
        corpus = stage_eval(args.pred, args.gt, out, table, csv)
        sys.stdout.write(
            f"precision={corpus.precision:.4f} recall={corpus.recall:.4f} f1={corpus.f1:.4f}\n"
        )
    elif args.command == "pipeline":
        run_pipeline(
            cfg, args.features_dir, args.annotations, args.datastore, args.head,
            args.out_dir, baseline=args.baseline, dump_plan=args.dump_plan,
            text_dir=args.text_dir, fail_fast=args.fail_fast,
        )
    else:  # pragma: no cover - argparse enforces choices
        raise ConfigError(f"unknown command {args.command!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    try:
        return _dispatch(args)
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
