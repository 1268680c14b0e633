"""Command-line entry point: gen-data, pretrain, finetune, sweep, report.

Everything a run writes is deterministic given its flags: re-running a
command with the same seed overwrites its outputs byte-for-byte, and
`sweep --parallel N` produces identical files for every N. Relative --out
paths are resolved under $FINEDROP_OUTPUT_ROOT when that variable is set.

Exit codes: 0 success, 2 usage or validation error, 3 run failure.

The sweep command also accepts a flat key=value config file (# comments,
blank lines allowed); explicit flags override file values. Recognized keys
and defaults match the corresponding flags: data, start, out,
recipes=erm,dropout90, lrs=1e-3,5e-4, wds=1e-4,5e-5,1e-5, seeds=0,1,2,
splits=all, iterations=1000, batch_size=32, checkpoint_interval (T//33),
holdout=0.2, head_lr_mult=1, parallel=1, pool_seeds=false. Unknown keys,
values that do not parse, split indices out of range and repeated splits,
seeds or recipes are rejected (exit 2) before any training starts.

Recipes (see protocol.Recipe) are tokens joined by '+': "erm" means
dropout 0, "dropoutNN" sets the rate in percent and "headlrN" the head
learning-rate multiplier. A recipe without a headlrN token trains with the
--head-lr-mult value (sweep) or flag (finetune). `finetune` labels its run
with the recipe its --dropout and --head-lr-mult flags spell out, and
trains at exactly those values. It starts from --start or --scratch, not
both, and its architecture flags apply only with --scratch.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from .datasets import (
    gen_multienv_task,
    gen_pretrain_corpus,
    gen_redundant_features,
    gen_xor_task,
    leave_one_out_splits,
    load_dataset,
    make_missing_feature_env,
    save_dataset,
    EnvDataset,
    EnvSplit,
)
from .errors import FinedropError, RunError, ValidationError
from .models import checkpoint_from_model, load_checkpoint, new_residual_model, write_checkpoint
from .protocol import FineTuneConfig, OptimizerSettings, Recipe, pretrain, run_sweep
from .report import build_report, load_results, write_report


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return value in ("1", "true", "yes")


_CONFIG_KEYS = {
    "data": str,
    "start": str,
    "out": str,
    "recipes": str,
    "lrs": str,
    "wds": str,
    "seeds": str,
    "splits": str,
    "iterations": int,
    "batch_size": int,
    "checkpoint_interval": int,
    "holdout": float,
    "head_lr_mult": float,
    "parallel": int,
    "pool_seeds": _parse_bool,
}


def _resolve_out(path: str) -> str:
    root = os.environ.get("FINEDROP_OUTPUT_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parse_list(text: str, convert, what: str) -> list:
    try:
        return [convert(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(
            f"{what} must be a comma list of {convert.__name__} values, got {text!r}"
        ) from None


def parse_config_file(path: str) -> dict:
    """Flat key=value file; unknown keys are a validation error."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValidationError(
                    f"{path}:{line_no}: unknown key {key!r} (known: {sorted(_CONFIG_KEYS)})"
                )
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ValidationError(f"{path}:{line_no}: bad value {value!r} for {key!r}") from None
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    out = _resolve_out(args.out)
    if args.task == "redundant":
        ds = gen_redundant_features(args.n_features, args.n_samples, args.label_noise, args.seed)
        if args.missing:
            ood = make_missing_feature_env(ds, _parse_list(args.missing, int, "--missing"))
            ds = EnvDataset(
                np.vstack([ds.features, ood.features]),
                np.concatenate([ds.labels, ood.labels]),
                np.concatenate([ds.env_ids, ood.env_ids]),
                ood.manifest,
            )
    elif args.task == "multienv":
        ds = gen_multienv_task(
            args.envs, args.n_core, args.n_spurious, args.flip, args.n_per_env, args.seed,
            n_inert=args.n_inert,
        )
    elif args.task == "pretrain":
        ds = gen_pretrain_corpus(args.rich, args.size, args.seed)
    elif args.task == "xor":
        ds = gen_xor_task(args.envs, args.n_per_env, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown task {args.task!r}")
    save_dataset(ds, out)
    manifest_path = os.path.join(out, "manifest.json")
    print(f"manifest sha256={_sha256(manifest_path)} {manifest_path}")
    return 0


def cmd_pretrain(args) -> int:
    corpus = load_dataset(args.data)
    arch = {
        "input_dim": corpus.n_features,
        "width": args.width,
        "depth": args.depth,
        "block_hidden": args.block_hidden,
    }
    opt = OptimizerSettings(
        lr=args.lr,
        weight_decay=args.weight_decay,
        momentum=args.momentum,
        iterations=args.iterations,
        batch_size=args.batch_size,
    )
    ckpt = pretrain(arch, corpus, opt, seed=args.seed)
    out = _resolve_out(args.out)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    write_checkpoint(ckpt, out)
    print(f"checkpoint sha256={_sha256(out)} {out}")
    return 0


def _load_start(args, dataset) -> "object":
    """The --start checkpoint, or under --scratch a fresh model the architecture flags size."""
    if args.scratch == bool(args.start):
        raise ValidationError("finetune needs exactly one of --start CKPT and --scratch")
    if args.scratch:
        model = new_residual_model(
            dataset.n_features, 16 if args.width is None else args.width,
            2 if args.depth is None else args.depth, dataset.num_classes, seed=args.seed,
            block_hidden=args.block_hidden,
        )
        return checkpoint_from_model(model, 0, f"scratch-seed{args.seed}")
    if (args.width, args.depth, args.block_hidden) != (None, None, None):
        raise ValidationError("--width, --depth and --block-hidden apply only with --scratch")
    return load_checkpoint(args.start)


def cmd_finetune(args) -> int:
    dataset = load_dataset(args.data)
    start = _load_start(args, dataset)
    split = EnvSplit(
        dataset,
        tuple(e for e in dataset.environment_ids if e != args.test_env),
        args.test_env,
        args.holdout,
    )
    cfg = FineTuneConfig(head_lr_mult=args.head_lr_mult, total_iterations=args.iterations,
                         batch_size=args.batch_size, checkpoint_interval=args.checkpoint_interval)
    # the label carries a headlr token only when the multiplier is not the default 1
    recipe = Recipe(args.dropout, None if args.head_lr_mult == 1.0 else args.head_lr_mult)
    result = run_sweep(start, [split], [(args.lr, args.weight_decay)], [recipe.name], [args.seed],
                       base_cfg=cfg)
    out = _resolve_out(args.out)
    result.save(out)
    best = result.runs[0].best.checkpoint
    write_checkpoint(best, os.path.join(out, "best.ckpt"))
    print(f"recipe={recipe.name} iid={result.runs[0].best_iid_val_acc:.4f} "
          f"ood={result.runs[0].ood_acc:.4f} out={out}")
    return 0


def cmd_sweep(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}

    def pick(name, default):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        return file_values.get(name, default)

    data = pick("data", None)
    start_path = pick("start", None)
    out = pick("out", None)
    if not data or not start_path or not out:
        raise ValidationError("sweep needs data, start, and out (flags or config file)")

    dataset = load_dataset(data)
    start = load_checkpoint(start_path)
    recipes = [r.strip() for r in pick("recipes", "erm,dropout90").split(",") if r.strip()]
    lrs = _parse_list(pick("lrs", "1e-3,5e-4"), float, "lrs")
    wds = _parse_list(pick("wds", "1e-4,5e-5,1e-5"), float, "wds")
    seeds = _parse_list(pick("seeds", "0,1,2"), int, "seeds")
    grid = [(lr, wd) for lr in lrs for wd in wds]

    splits_spec = pick("splits", "all")
    all_splits = leave_one_out_splits(dataset, pick("holdout", 0.20))
    if splits_spec == "all":
        splits = all_splits
    else:
        wanted = _parse_list(splits_spec, int, "splits")
        bad = [i for i in wanted if not 0 <= i < len(all_splits)]
        if bad:
            raise ValidationError(
                f"split indices {bad} out of range; the dataset has {len(all_splits)} splits"
            )
        splits = [all_splits[i] for i in wanted]

    base_cfg = FineTuneConfig(total_iterations=pick("iterations", 1000), batch_size=pick("batch_size", 32),
                              checkpoint_interval=pick("checkpoint_interval", None),
                              head_lr_mult=pick("head_lr_mult", 1.0))
    result = run_sweep(start, splits, grid, recipes, seeds, base_cfg=base_cfg,
                       parallel=pick("parallel", 1), pool_seeds=pick("pool_seeds", False))
    out = _resolve_out(out)
    result.save(out)
    for recipe in result.meta["recipes"]:
        print(f"{recipe}: mean_ood={result.aggregate_ood[recipe]:.4f}")
    print(f"runs={len(result.runs)} out={out}")
    return 0


def cmd_report(args) -> int:
    sweeps = load_results(args.results)
    bundle = build_report(sweeps)
    out = _resolve_out(args.out)
    written = write_report(bundle, out)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finedrop",
        description="Fine-tuning with very large penultimate dropout: data, runs, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    g.add_argument("--task", required=True, choices=["redundant", "multienv", "pretrain", "xor"])
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n-features", type=int, default=8, help="redundant: feature count")
    g.add_argument("--n-samples", type=int, default=2000, help="redundant: sample count")
    g.add_argument("--label-noise", type=float, default=0.0, help="redundant: flip fraction")
    g.add_argument("--missing", default="", help="redundant: also emit an env with these features zeroed")
    g.add_argument("--envs", type=int, default=4, help="multienv/xor: environment count")
    g.add_argument("--n-core", type=int, default=12, help="multienv: invariant feature count")
    g.add_argument("--n-inert", type=int, default=2, help="multienv: label-free columns")
    g.add_argument("--n-spurious", type=int, default=4, help="multienv: shortcut feature count")
    g.add_argument("--flip", type=float, default=1.0, help="multienv: spurious reversal in last env")
    g.add_argument("--n-per-env", type=int, default=2000)
    g.add_argument("--rich", action="store_true", help="pretrain: apply erasing augmentation")
    g.add_argument("--size", type=int, default=50_000, help="pretrain: corpus size")
    g.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train a trunk on a pretraining corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--block-hidden", type=int, default=None)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--iterations", type=int, default=3000)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pretrain)

    f = sub.add_parser("finetune", help="fine-tune one split under one recipe")
    f.add_argument("--data", required=True)
    f.add_argument("--start", default=None, help="checkpoint to start from")
    f.add_argument("--scratch", action="store_true", help="start from random initialization")
    f.add_argument("--width", type=int, default=None, help="scratch: trunk width (default 16)")
    f.add_argument("--depth", type=int, default=None, help="scratch: residual blocks (default 2)")
    f.add_argument("--block-hidden", type=int, default=None, help="scratch: block hidden units "
                   "(default: the width)")
    f.add_argument("--test-env", type=int, required=True)
    f.add_argument("--holdout", type=float, default=0.20)
    f.add_argument("--dropout", type=float, default=0.9)
    f.add_argument("--lr", type=float, default=1e-3)
    f.add_argument("--weight-decay", type=float, default=1e-4)
    f.add_argument("--head-lr-mult", type=float, default=1.0)
    f.add_argument("--iterations", type=int, default=1000)
    f.add_argument("--batch-size", type=int, default=32)
    f.add_argument("--checkpoint-interval", type=int, default=None)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_finetune)

    s = sub.add_parser("sweep", help="run the (split x recipe x grid x seed) product")
    s.add_argument("--config", default=None, help="flat key=value config file")
    s.add_argument("--data", default=None)
    s.add_argument("--start", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--recipes", default=None, help="comma list, e.g. erm,dropout90")
    s.add_argument("--lrs", default=None, help="comma list of learning rates")
    s.add_argument("--wds", default=None, help="comma list of weight decays")
    s.add_argument("--seeds", default=None, help="comma list of integer seeds")
    s.add_argument("--splits", default=None, help="'all' or comma list of split indices")
    s.add_argument("--iterations", type=int, default=None)
    s.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    s.add_argument("--checkpoint-interval", dest="checkpoint_interval", type=int, default=None)
    s.add_argument("--holdout", type=float, default=None)
    s.add_argument("--head-lr-mult", dest="head_lr_mult", type=float, default=None)
    s.add_argument("--parallel", type=int, default=None)
    s.add_argument("--pool-seeds", dest="pool_seeds", action="store_const", const=True, default=None)
    s.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="render tables from sweep results")
    r.add_argument("--results", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    except (FinedropError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
