"""Command-line entry point for data generation, training and evaluation.

Commands
--------
  gen-data     --spec FILE --out DIR
  train        --data DIR --out DIR [--config FILE] [overrides]
  eval         --ckpt FILE --data DIR --report FILE [--kfold K]
               [--dump-scores] [--head H]
  gradcheck
  compare-loss --data DIR --out FILE [--config FILE] [overrides]

A dataset directory is one produced by gen-data: feature files plus
train_manifest.json / test_manifest.json. Config files are JSON with
"hyper" and "train" sections; command-line overrides take precedence
over the file, which takes precedence over built-in defaults.

Exit codes: 0 success, 1 usage or validation failure (including failed
gradient checks), 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import HEADS, LOSSES, RunConfig, SCHEDULES
from .data.manifest import load_dataset, merge_datasets
from .data.synthetic import SynthSpec, synthesize_dataset
from .errors import MilvadError
from .evaluation import dump_scores, evaluate, kfold
from .gradient_checks import TOLERANCE, run_all
from .model import AnomalyScorer
from .training import train

_LOSS_FLAGS = {name.replace("_", "-"): name for name in LOSSES}


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.default_desk_scale()
    overrides = {}
    for flag, key in (("steps", "steps"), ("seed", "seed"), ("lr", "learning_rate"),
                      ("schedule", "schedule"), ("head", "head")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "loss", None) is not None:
        overrides["loss"] = _LOSS_FLAGS[args.loss]
    if getattr(args, "sls_only", False):
        overrides["use_video_selection"] = False
    cfg = RunConfig(hyper=cfg.hyper, train=replace(cfg.train, **overrides))
    cfg.hyper.validate()
    cfg.train.validate()
    return cfg


def _manifest(data_dir: Path, split: str) -> Path:
    path = data_dir / f"{split}_manifest.json"
    if not path.exists():
        raise MilvadError(f"{data_dir}: no {path.name} found")
    return path


def cmd_gen_data(args) -> int:
    spec = SynthSpec.from_file(args.spec)
    manifests = synthesize_dataset(spec, args.out)
    for split, path in sorted(manifests.items()):
        print(f"{split}: {path}")
    return 0


def _run_training(cfg: RunConfig, data_dir: Path):
    dataset = load_dataset(_manifest(data_dir, "train"))
    model = AnomalyScorer(cfg.hyper, seed=cfg.train.seed)
    result = train(model, dataset, cfg.train)
    return model, result


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    model, result = _run_training(cfg, data_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = model.save(out_dir / "checkpoint.json", extra={"train": cfg.as_dict()["train"]})
    log_lines = [f"config {json.dumps(cfg.as_dict(), sort_keys=True)}"] + result.log_lines
    (out_dir / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    print(f"checkpoint: {ckpt}")
    print(f"final loss: {result.losses[-1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    ckpt_path = Path(args.ckpt)
    model, doc = AnomalyScorer.load(ckpt_path)
    cfg = RunConfig.from_dict({"hyper": doc["hyper"], "train": doc.get("train", {})},
                              source=str(ckpt_path))
    head = args.head or cfg.train.head
    use_vls = cfg.train.use_video_selection
    data_dir = Path(args.data)
    test_ds = load_dataset(_manifest(data_dir, "test"))
    report = evaluate(model, test_ds, head=head, use_video_selection=use_vls)
    if args.kfold:
        train_ds = load_dataset(_manifest(data_dir, "train"))
        pooled = merge_datasets(train_ds, test_ds)
        fold_report = kfold(pooled, cfg.hyper, cfg.train, k=args.kfold,
                            seed=cfg.train.seed, head=head)
        report.fold_aucs = fold_report.fold_aucs
        report.mean_fold_auc = fold_report.mean_fold_auc
    report.save(args.report)
    if args.dump_scores:
        score_dir = Path(args.report).parent / (Path(args.report).stem + "_scores")
        dump_scores(model, test_ds, score_dir, head=head, use_video_selection=use_vls)
        print(f"scores: {score_dir}")
    print(f"overall AUC: {report.overall_auc:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_all()
    failed = 0
    for name, err in results:
        status = "PASS" if err < TOLERANCE else "FAIL"
        failed += status == "FAIL"
        print(f"{name:32s} max_rel_err={err:.3e} {status}")
    print(f"{len(results) - failed}/{len(results)} checks passed (tolerance {TOLERANCE:g})")
    return 1 if failed else 0


def cmd_compare_loss(args) -> int:
    cfg = _load_run_config(args)
    data_dir = Path(args.data)
    test_ds = load_dataset(_manifest(data_dir, "test"))
    aucs = {}
    for loss in LOSSES:
        run_cfg = RunConfig(hyper=cfg.hyper, train=replace(cfg.train, loss=loss))
        model, _ = _run_training(run_cfg, data_dir)
        aucs[loss] = evaluate(model, test_ds, head=cfg.train.head,
                              use_video_selection=cfg.train.use_video_selection).overall_auc
    delta = aucs["self_rectifying"] - aucs["classical_ranking"]
    doc = {
        "self_rectifying_auc": aucs["self_rectifying"],
        "classical_ranking_auc": aucs["classical_ranking"],
        "delta": delta,
        "config": cfg.as_dict(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"self-rectifying AUC:    {aucs['self_rectifying']:.4f}")
    print(f"classical-ranking AUC:  {aucs['classical_ranking']:.4f}")
    print(f"delta:                  {delta:+.4f}")
    return 0


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (hyper + train sections)")
    parser.add_argument("--steps", type=int, help="total pair steps")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--loss", choices=sorted(_LOSS_FLAGS), help="training loss")
    parser.add_argument("--schedule", choices=SCHEDULES, help="training schedule")
    parser.add_argument("--head", choices=HEADS, help="score head")
    parser.add_argument("--sls-only", action="store_true",
                        help="disable video-level selection in the coupler")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="milvad", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a feature dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_override_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--kfold", type=int, default=0)
    p.add_argument("--dump-scores", action="store_true")
    p.add_argument("--head", choices=HEADS)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all adjoints")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("compare-loss", help="train twin models, one per loss, and report both AUCs")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_override_flags(p)
    p.set_defaults(fn=cmd_compare_loss)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (MilvadError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
