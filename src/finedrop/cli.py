"""Command-line entry point: gen-data, pretrain, finetune, sweep, report.

Everything a run writes is deterministic given its flags: re-running a
command with the same seed overwrites its outputs byte-for-byte, and
`sweep --parallel N` produces identical files for every N. Relative --out
paths are resolved under $FINEDROP_OUTPUT_ROOT when that variable is set.

Exit codes: 0 success, 2 usage or validation error, 3 run failure.

`finetune --help` and `sweep --help` list each option's default. The sweep
command also accepts a flat key=value config file (# comments, blank lines
allowed). Its keys are the names of the sweep options other than --config,
with underscores for dashes (batch_size for --batch-size); pool_seeds takes
true or false. A file value replaces its option's default, so an explicit
flag still overrides it. Unknown keys, values that do not parse, split
indices out of range and repeated splits, seeds or recipes are rejected
(exit 2) before any training starts. gen-data likewise refuses a flag that
its --task does not read.

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

from .datasets import (
    HOLDOUT_FRACTION,
    N_CORE,
    N_GIVEAWAY,
    N_SPURIOUS,
    gen_multienv_task,
    gen_pretrain_corpus,
    gen_redundant_features,
    gen_xor_task,
    leave_one_out_splits,
    load_dataset,
    make_missing_feature_env,
    save_dataset,
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


def _run_options() -> argparse.ArgumentParser:
    """Parent parser of the run options finetune and sweep share; a new one per command, since
    argparse shares a parent's actions and a config file's sweep defaults must not reach finetune."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--iterations", type=int, default=1000, help="fine-tuning steps per run")
    p.add_argument("--batch-size", type=int, default=32, help="rows per step")
    p.add_argument("--checkpoint-interval", type=int, default=None,
                   help="steps between trail checkpoints; None means iterations // 33")
    p.add_argument("--holdout", type=float, default=HOLDOUT_FRACTION,
                   help="iid validation share of each training environment")
    p.add_argument("--head-lr-mult", type=float, default=1.0,
                   help="head learning-rate multiplier of recipes without a headlrN token")
    return p


def _sweep_options() -> argparse.ArgumentParser:
    """Parent parser of every sweep option; their dests, config aside, are the config file's keys."""
    p = argparse.ArgumentParser(add_help=False, parents=[_run_options()])
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--data", default=None, help="dataset directory; required as a flag or config key")
    p.add_argument("--start", default=None, help="checkpoint to start from; required as a flag or config key")
    p.add_argument("--out", default=None, help="results directory; required as a flag or config key")
    p.add_argument("--recipes", default="erm,dropout90", help="comma list of recipes")
    p.add_argument("--lrs", default="1e-3,5e-4", help="comma list of learning rates")
    p.add_argument("--wds", default="1e-4,5e-5,1e-5", help="comma list of weight decays")
    p.add_argument("--seeds", default="0,1,2", help="comma list of integer seeds")
    p.add_argument("--splits", default="all", help="'all' or comma list of split indices")
    p.add_argument("--parallel", type=int, default=1, help="processes, this one included")
    p.add_argument("--pool-seeds", action="store_true", help="multi-run arms pool the seeds too")
    return p


def parse_config_file(path: str) -> dict:
    """Flat key=value file whose keys are the sweep options' dests, config aside; each value is
    converted by its option's type (_parse_bool for --pool-seeds). Unknown keys are refused."""
    options = {a.dest: a for a in _sweep_options()._actions if a.dest != "config"}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in options:
                raise ValidationError(f"{path}:{line_no}: unknown key {key!r} (known: {sorted(options)})")
            convert = _parse_bool if options[key].nargs == 0 else options[key].type or str
            try:
                values[key] = convert(value)
            except ValueError:
                raise ValidationError(f"{path}:{line_no}: bad value {value!r} for {key!r}") from None
    return values


# gen-data's task flags: flag -> (the tasks that read it, default, help, argparse keywords).
# A flag given with any other --task is refused rather than ignored.
_GEN_DATA_FLAGS = {
    "--n-features": (("redundant",), 8, "feature count", {"type": int}),
    "--n-samples": (("redundant",), 2000, "sample count", {"type": int}),
    "--label-noise": (("redundant",), 0.0, "flip fraction", {"type": float}),
    "--missing": (("redundant",), "", "also emit an env with these features zeroed", {}),
    "--envs": (("multienv", "xor"), 4, "environment count", {"type": int}),
    # the layout defaults are the pretraining corpus's: the inert columns sit at its giveaway columns
    "--n-core": (("multienv",), N_CORE, "invariant feature count", {"type": int}),
    "--n-inert": (("multienv",), N_GIVEAWAY, "label-free columns", {"type": int}),
    "--n-spurious": (("multienv",), N_SPURIOUS, "shortcut feature count", {"type": int}),
    "--flip": (("multienv",), 1.0, "spurious reversal in last env", {"type": float}),
    "--n-per-env": (("multienv", "xor"), 2000, "rows per environment", {"type": int}),
    "--rich": (("pretrain",), False, "apply erasing augmentation", {"action": "store_true"}),
    "--size": (("pretrain",), 50_000, "corpus size", {"type": int}),
}


# The architecture flags of pretrain and finetune --scratch: flag -> (default, help).
_ARCH_FLAGS = {
    "--width": (16, "trunk width"),
    "--depth": (2, "residual blocks"),
    "--block-hidden": (None, "block hidden units; None means the width"),
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    for flag, (tasks, default, _, _) in _GEN_DATA_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if hasattr(args, dest) and args.task not in tasks:
            raise ValidationError(f"--task {args.task} does not read {flag} (a {'/'.join(tasks)} flag)")
        setattr(args, dest, getattr(args, dest, default))
    out = _resolve_out(args.out)
    if args.task == "redundant":
        ds = gen_redundant_features(args.n_features, args.n_samples, args.label_noise, args.seed)
        if args.missing:
            ds = make_missing_feature_env(ds, _parse_list(args.missing, int, "--missing"))
    elif args.task == "multienv":
        ds = gen_multienv_task(args.envs, args.n_core, args.n_spurious, args.flip, args.n_per_env,
                               args.seed, n_inert=args.n_inert)
    elif args.task == "pretrain":
        ds = gen_pretrain_corpus(args.rich, args.size, args.seed)
    else:  # xor: argparse restricts the choices
        ds = gen_xor_task(args.envs, args.n_per_env, args.seed)
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
    arch = {flag[2:].replace("-", "_"): default for flag, (default, _) in _ARCH_FLAGS.items()}
    given = {dest: getattr(args, dest) for dest in arch if hasattr(args, dest)}
    if args.scratch:
        arch.update(given)
        model = new_residual_model(dataset.n_features, arch["width"], arch["depth"], dataset.num_classes,
                                   seed=args.seed, block_hidden=arch["block_hidden"])
        return checkpoint_from_model(model, 0, f"scratch-seed{args.seed}")
    if given:
        raise ValidationError("--width, --depth and --block-hidden apply only with --scratch")
    return load_checkpoint(args.start)


def _base_config(args) -> FineTuneConfig:
    """The FineTuneConfig the run options spell out; recipes and the grid set the rest."""
    return FineTuneConfig(head_lr_mult=args.head_lr_mult, total_iterations=args.iterations,
                          batch_size=args.batch_size, checkpoint_interval=args.checkpoint_interval)


def cmd_finetune(args) -> int:
    dataset = load_dataset(args.data)
    start = _load_start(args, dataset)
    split = EnvSplit(
        dataset,
        tuple(e for e in dataset.environment_ids if e != args.test_env),
        args.test_env,
        args.holdout,
    )
    # the label carries a headlr token only when the multiplier is not the default 1
    recipe = Recipe(args.dropout, None if args.head_lr_mult == 1.0 else args.head_lr_mult)
    result = run_sweep(start, [split], [(args.lr, args.weight_decay)], [recipe.name], [args.seed],
                       base_cfg=_base_config(args))
    out = _resolve_out(args.out)
    result.save(out)
    best = result.runs[0].best.checkpoint
    write_checkpoint(best, os.path.join(out, "best.ckpt"))
    print(f"recipe={recipe.name} iid={result.runs[0].best_iid_val_acc:.4f} "
          f"ood={result.runs[0].ood_acc:.4f} out={out}")
    return 0


def cmd_sweep(args) -> int:
    if not (args.data and args.start and args.out):
        raise ValidationError("sweep needs data, start, and out (flags or config file)")

    dataset = load_dataset(args.data)
    start = load_checkpoint(args.start)
    recipes = [r.strip() for r in args.recipes.split(",") if r.strip()]
    lrs = _parse_list(args.lrs, float, "lrs")
    wds = _parse_list(args.wds, float, "wds")
    seeds = _parse_list(args.seeds, int, "seeds")
    grid = [(lr, wd) for lr in lrs for wd in wds]

    all_splits = leave_one_out_splits(dataset, args.holdout)
    if args.splits == "all":
        splits = all_splits
    else:
        wanted = _parse_list(args.splits, int, "splits")
        bad = [i for i in wanted if not 0 <= i < len(all_splits)]
        if bad:
            raise ValidationError(
                f"split indices {bad} out of range; the dataset has {len(all_splits)} splits"
            )
        splits = [all_splits[i] for i in wanted]

    result = run_sweep(start, splits, grid, recipes, seeds, base_cfg=_base_config(args),
                       parallel=args.parallel, pool_seeds=args.pool_seeds)
    out = _resolve_out(args.out)
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


def build_parser(sweep_defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; sweep_defaults, a parsed config file, replace sweep option defaults."""
    parser = argparse.ArgumentParser(
        prog="finedrop",
        description="Fine-tuning with very large penultimate dropout: data, runs, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    with_defaults = argparse.ArgumentDefaultsHelpFormatter

    g = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    g.add_argument("--task", required=True, choices=["redundant", "multienv", "pretrain", "xor"])
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    for flag, (tasks, default, text, kwargs) in _GEN_DATA_FLAGS.items():
        # no argparse default: cmd_gen_data tells a given flag by its presence
        g.add_argument(flag, default=argparse.SUPPRESS,
                       help=f"{'/'.join(tasks)}: {text} (default: {default!r})", **kwargs)
    g.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train a trunk on a pretraining corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    for flag, (default, text) in _ARCH_FLAGS.items():
        p.add_argument(flag, type=int, default=default, help=text)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--iterations", type=int, default=3000)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pretrain)

    f = sub.add_parser("finetune", parents=[_run_options()], formatter_class=with_defaults,
                       help="fine-tune one split under one recipe")
    f.add_argument("--data", required=True)
    f.add_argument("--start", default=None, help="checkpoint to start from")
    f.add_argument("--scratch", action="store_true", help="start from random initialization")
    for flag, (default, text) in _ARCH_FLAGS.items():
        # no argparse default: _load_start tells a given flag by its presence
        f.add_argument(flag, type=int, default=argparse.SUPPRESS,
                       help=f"scratch: {text} (default: {default})")
    f.add_argument("--test-env", type=int, required=True)
    f.add_argument("--dropout", type=float, default=0.9, help="penultimate dropout rate")
    f.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    f.add_argument("--weight-decay", type=float, default=1e-4, help="weight decay")
    f.add_argument("--seed", type=int, default=0, help="run seed")
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_finetune)

    s = sub.add_parser("sweep", parents=[_sweep_options()], formatter_class=with_defaults,
                       help="run the (split x recipe x grid x seed) product")
    s.set_defaults(func=cmd_sweep, **(sweep_defaults or {}))

    r = sub.add_parser("report", help="render tables from sweep results")
    r.add_argument("--results", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):  # the file's values become defaults: flags still win
            args = build_parser(parse_config_file(args.config)).parse_args(argv)
        return args.func(args)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    except (FinedropError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
