"""Command-line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 data error.
The WSOD_SEED environment variable overrides any configured seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from wsodkit import synth
from wsodkit.data import (
    ClassVocabulary,
    extract_labels,
    load_dataset,
    load_depth_maps,
    save_dataset,
)
from wsodkit.errors import ConfigError, DataError, WsodkitError
from wsodkit.evaluate import (
    evaluate,
    format_table,
    load_detections,
    save_detections,
)
from wsodkit.fusion import FusionMode
from wsodkit.model import ModelParams
from wsodkit.priors import FrozenPriors, estimate_priors
from wsodkit.train import RunConfig, infer, run_ablation, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsodkit",
        description="Weakly-supervised detection on precomputed proposals "
        "with depth-aware training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True, help="dataset JSONL to write")
    p.add_argument("--vocab-out", required=True, help="vocabulary JSON to write")
    p.add_argument("--images", type=int, default=500)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--proposals", type=int, default=20)
    p.add_argument("--feat-dim", type=int, default=32)
    p.add_argument("--image-size", type=int, default=128)
    p.add_argument("--max-objects", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--confuser-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0, help="overridden by WSOD_SEED")

    p = sub.add_parser(
        "extract-labels", help="materialize caption-derived labels into a dataset"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "estimate-priors", help="fit per-class depth ranges from detections"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--predictions", required=True, help="detections JSONL")
    p.add_argument("--out", required=True, help="priors JSON to write")
    p.add_argument("--depth-maps", default=None, help="optional depth-map JSONL")
    p.add_argument("--score-threshold", type=float, default=0.5)
    p.add_argument("--min-count-word", type=int, default=2)

    p = sub.add_parser("train", help="train a detector")
    _add_training_args(p)
    p.add_argument("--checkpoint-out", default=None)
    p.add_argument("--report-out", default=None)

    p = sub.add_parser("infer", help="run a trained detector over a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="detections JSONL to write")
    p.add_argument(
        "--inference-mode",
        choices=["rgb", "fused", "depth"],
        default="rgb",
    )
    p.add_argument("--min-score", type=float, default=0.05)
    p.add_argument("--nms-thresh", type=float, default=0.5)

    p = sub.add_parser("evaluate", help="score stored detections against a dataset")
    p.add_argument("--detections", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--report-out", default=None)
    p.add_argument("--nms-thresh", type=float, default=0.5)
    p.add_argument("--eleven-point", action="store_true")

    p = sub.add_parser("ablation", help="train the component ladder and tabulate")
    _add_training_args(p)
    p.add_argument("--out", default=None, help="table JSON to write")
    return parser


def _add_training_args(p: argparse.ArgumentParser) -> None:
    """Inputs and config options shared by train and ablation."""
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--priors", default=None)
    p.add_argument("--eval-data", default=None)
    p.add_argument("--depth-maps", default=None)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def _load_data(args):
    """Vocabulary, records of ``--data`` and the optional depth-map sidecar."""
    vocab = ClassVocabulary.from_file(args.vocab)
    sidecar = getattr(args, "depth_maps", None)
    depth_maps = load_depth_maps(sidecar) if sidecar else None
    return vocab, load_dataset(args.data, vocab, depth_maps), depth_maps


def _cmd_gen_data(args) -> int:
    config = synth.SyntheticConfig(
        num_images=args.images,
        num_classes=args.classes,
        proposals_per_image=args.proposals,
        feat_dim=args.feat_dim,
        image_size=args.image_size,
        max_objects=args.max_objects,
        noise=args.noise,
        label_noise=args.label_noise,
        confuser_rate=args.confuser_rate,
    )
    seed_config = RunConfig(seed=args.seed)
    seed_config.validate()
    seed = seed_config.resolved_seed()
    records, vocab = synth.generate_synthetic(config, seed)
    vocab.save(args.vocab_out)
    save_dataset(records, args.out)
    n_boxes = sum(len(r.gt_boxes or []) for r in records)
    print(
        f"wrote {len(records)} images ({n_boxes} true boxes, "
        f"{len(vocab)} classes) to {args.out}"
    )
    return 0


def _cmd_extract_labels(args) -> int:
    vocab, records, _ = _load_data(args)
    missing = 0
    out = []
    for rec in records:
        if rec.caption is None:
            missing += 1
            labels = set()
        else:
            labels = extract_labels(rec.caption, vocab)
        out.append(dataclasses.replace(rec, labels=labels))
    save_dataset(out, args.out)
    note = f" ({missing} without captions)" if missing else ""
    print(f"labeled {len(out)} images{note} -> {args.out}")
    return 0


def _cmd_estimate_priors(args) -> int:
    vocab, records, _ = _load_data(args)
    predictions = load_detections(args.predictions)
    stats, _, coverage = estimate_priors(
        records,
        predictions,
        score_threshold=args.score_threshold,
        min_count_word=args.min_count_word,
    )
    stats.save(args.out)
    print(coverage.to_text(vocab))
    print(f"priors -> {args.out}")
    return 0


def _load_training(args):
    """Config, vocabulary, records, priors and eval records for train/ablation.

    Eval records are read with the same depth-map sidecar as the training
    records, so they get their proposal depths from it too.
    """
    config = RunConfig.from_sources(args.config, args.overrides)
    vocab, records, depth_maps = _load_data(args)
    priors = FrozenPriors.load(args.priors) if args.priors else None
    eval_records = None
    if args.eval_data:
        eval_records = load_dataset(args.eval_data, vocab, depth_maps)
    return config, vocab, records, priors, eval_records


def _cmd_train(args) -> int:
    config, vocab, records, priors, eval_records = _load_training(args)
    log = None if args.quiet else print
    model, report = train(
        config, records, vocab, priors=priors, eval_records=eval_records, log=log
    )
    if args.checkpoint_out:
        model.save(args.checkpoint_out)
        print(f"checkpoint -> {args.checkpoint_out}")
    if args.report_out:
        report.save(args.report_out)
        print(f"report -> {args.report_out}")
    if report.eval_report is not None:
        print(format_table([("trained", report.eval_report)]))
    print(f"trained {config.epochs} epochs in {report.wall_time_s:.1f}s")
    return 0


def _cmd_infer(args) -> int:
    vocab, records, _ = _load_data(args)
    model = ModelParams.load(args.checkpoint)
    model.check_against(records[0].rgb_features.shape[1], len(vocab))
    dets = infer(
        model,
        records,
        mode=FusionMode.parse(args.inference_mode),
        min_score=args.min_score,
        nms_thresh=args.nms_thresh,
    )
    save_detections(dets, args.out)
    print(f"{len(dets)} detections -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    vocab, records, _ = _load_data(args)
    dets = load_detections(args.detections)
    report = evaluate(
        dets, records, nms_thresh=args.nms_thresh, eleven_point=args.eleven_point
    )
    print(format_table([("detections", report)]))
    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report -> {args.report_out}")
    return 0


def _cmd_ablation(args) -> int:
    config, vocab, records, priors, eval_records = _load_training(args)
    log = None if args.quiet else print
    result = run_ablation(
        config, records, vocab, priors=priors, eval_records=eval_records, log=log
    )
    print(result.to_text())
    if args.out:
        result.save(args.out)
        print(f"table -> {args.out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "extract-labels": _cmd_extract_labels,
    "estimate-priors": _cmd_estimate_priors,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "evaluate": _cmd_evaluate,
    "ablation": _cmd_ablation,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except WsodkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
