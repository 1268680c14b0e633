"""The three-stage pipeline: pretrain, fine-tune under a recipe, compare arms.

A recipe is a named fine-tuning variant: plain training ("erm"), very large
penultimate dropout ("dropout90", "dropout95", ...), a faster head
("headlr10"), or compositions like "dropout90+headlr10". A recipe always
sets the dropout rate ("erm" means 0); it sets the head learning-rate
multiplier only through a headlrN token, and otherwise the base config's
multiplier is kept. `Recipe` is the one place that parses and formats
these names. Fine-tuning always reinitializes the head, trains on the
union of the split's training environments minus a held-out iid
validation fraction, collects a checkpoint trail, retains the best-iid
checkpoint (ties go to the earliest, so training is never silently
extended), and reports eval-mode accuracy on the held-out environment.

Comparison arms are derived from completed runs: single-run weight average
and ensemble over one trail, multi-run weight average and ensemble over the
best checkpoints of a hyperparameter grid. `run_sweep` executes the full
(split x grid x seed x recipe) product, optionally in parallel worker
processes; runs own their rng streams, so results are byte-identical no
matter the worker count.

Random streams are split by purpose (holdout / head init / batching /
dropout masks) and derived only from the run seed and the split, never from
the recipe or grid point. Two consequences worth relying on: recipes are
exactly paired at a given seed, and a rate-0 dropout run is bit-equivalent
to a run with no dropout code path at all, because the mask stream is
never consumed at rate 0.
"""

from __future__ import annotations

import json
import math
import time
from decimal import Decimal, InvalidOperation
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .datasets import EnvDataset, EnvSplit
from .errors import RunError, ValidationError
from .models import (
    Checkpoint,
    ResidualModel,
    check_labels,
    checkpoint_from_model,
    fused_backward,
    fused_forward,
    model_from_checkpoint,
    new_residual_model,
    reinit_head,
)
from .optim import SgdOptimizer
from .regularizers import DropoutSpec
from .stats import five_number_summary

__all__ = [
    "FineTuneConfig",
    "OptimizerSettings",
    "TrailPoint",
    "RunRecord",
    "SweepResult",
    "EnsemblePredictor",
    "Recipe",
    "split_holdout",
    "pretrain",
    "pretrain_trajectory",
    "finetune",
    "evaluate",
    "ensemble_predict",
    "weight_average",
    "build_variants",
    "select_best",
    "run_sweep",
]

_STREAM_ROOT = 0x1C3B00DA  # fixed entropy root for every derived stream


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class OptimizerSettings:
    """Optimizer hyperparameters for a pretraining run."""

    lr: float = 1e-2
    weight_decay: float = 0.0
    momentum: float = 0.9
    iterations: int = 3000
    batch_size: int = 64


@dataclass
class FineTuneConfig:
    dropout_rate: float = 0.9
    lr: float = 1e-2
    weight_decay: float = 1e-4
    head_lr_mult: float = 1.0
    total_iterations: int = 2000
    batch_size: int = 32
    checkpoint_interval: int | None = None  # defaults to total_iterations // 33
    patience: int | None = None  # checkpoints without iid improvement before halting
    seed: int = 0
    momentum: float = 0.9
    freeze_trunk: bool = False
    run_id: str = ""

    def __post_init__(self):
        # the optimizer checks these too, but only once a run starts; a sweep
        # builds every config first, so a bad value is rejected before training
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValidationError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.total_iterations < 0:
            raise ValidationError(f"total_iterations must be >= 0, got {self.total_iterations}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.head_lr_mult) and self.head_lr_mult > 0):
            raise ValidationError(f"head_lr_mult must be positive and finite, got {self.head_lr_mult}")
        interval = self.effective_interval()
        if self.total_iterations > 0 and self.total_iterations < 2 * interval:
            raise ValidationError(
                f"total_iterations {self.total_iterations} must be >= 2x the "
                f"checkpoint interval {interval}"
            )

    def effective_interval(self) -> int:
        if self.checkpoint_interval is not None:
            if self.checkpoint_interval < 1:
                raise ValidationError(f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}")
            return self.checkpoint_interval
        return max(1, self.total_iterations // 33)


def _token_number(token: str, prefix: str) -> Decimal:
    try:
        value = Decimal(token[len(prefix) :])
    except InvalidOperation:
        raise ValidationError(f"bad recipe token {token!r}") from None
    if not value.is_finite():
        raise ValidationError(f"recipe token {token!r} is not a finite number")
    return value


def _plain(value: Decimal) -> str:
    return format(value.normalize(), "f")


@dataclass(frozen=True)
class Recipe:
    """A fine-tuning recipe: a dropout rate and an optional head lr multiplier.

    Names are tokens joined by '+': "erm" (dropout 0), "dropoutNN" (NN
    percent) and "headlrN". The rate is always applied; head_lr_mult is None
    unless a headlrN token sets it, and then `apply` keeps the base config's
    multiplier. Numbers convert by shifting the decimal point, not by float
    arithmetic, so `name` is exact: `Recipe.parse(r.name) == r` for every
    valid rate and multiplier.
    """

    dropout_rate: float = 0.0
    head_lr_mult: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if self.head_lr_mult is not None and not (
            math.isfinite(self.head_lr_mult) and self.head_lr_mult > 0
        ):
            raise ValidationError(f"head lr multiplier must be positive and finite, got {self.head_lr_mult}")

    @classmethod
    def parse(cls, name: str) -> "Recipe":
        fields: dict = {}
        for token in name.split("+"):
            token = token.strip()
            if token == "erm":
                key, value = "dropout_rate", 0.0
            elif token.startswith("dropout"):
                pct = _token_number(token, "dropout")
                if not 0.0 <= pct < 100.0:
                    raise ValidationError(f"dropout percentage must be in [0, 100), got {pct}")
                key, value = "dropout_rate", float(pct.scaleb(-2))
            elif token.startswith("headlr"):
                key, value = "head_lr_mult", float(_token_number(token, "headlr"))
            else:
                raise ValidationError(f"unknown recipe token {token!r} in {name!r}")
            if key in fields:
                raise ValidationError(f"recipe {name!r} sets {key} twice")
            fields[key] = value
        return cls(**fields)

    @property
    def name(self) -> str:
        parts = []
        if self.dropout_rate > 0:
            parts.append("dropout" + _plain(Decimal(repr(float(self.dropout_rate))).scaleb(2)))
        if self.head_lr_mult is not None:
            parts.append("headlr" + _plain(Decimal(repr(float(self.head_lr_mult)))))
        return "+".join(parts) or "erm"

    def apply(self, cfg: FineTuneConfig, **changes) -> FineTuneConfig:
        """cfg with this recipe's settings and `changes` replaced."""
        if self.head_lr_mult is not None:
            changes["head_lr_mult"] = self.head_lr_mult
        return replace(cfg, dropout_rate=self.dropout_rate, **changes)


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


@dataclass
class TrailPoint:
    checkpoint: Checkpoint
    iteration: int
    iid_val_acc: float


@dataclass
class RunRecord:
    config: FineTuneConfig
    recipe: str
    split_index: int
    test_env: int
    train_envs: tuple[int, ...]
    grid_index: int
    seed: int
    trail: list[TrailPoint] = field(default_factory=list)
    best_index: int = 0
    ood_acc: float = 0.0
    status: str = "ok"
    error: str | None = None
    error_iteration: int | None = None
    wall_clock: float = 0.0  # in-memory only; never serialized
    run_id: str = ""
    variants: dict = field(default_factory=dict)

    @property
    def best(self) -> TrailPoint:
        return self.trail[self.best_index]

    @property
    def best_iid_val_acc(self) -> float:
        return self.best.iid_val_acc

    def to_json_dict(self) -> dict:
        """Serializable record; wall clock and raw parameters are omitted."""
        return {
            "schema_version": 1,
            "run_id": self.run_id,
            "recipe": self.recipe,
            "split_index": self.split_index,
            "test_env": self.test_env,
            "train_envs": list(self.train_envs),
            "grid_index": self.grid_index,
            "lr": self.config.lr,
            "weight_decay": self.config.weight_decay,
            "dropout_rate": self.config.dropout_rate,
            "head_lr_mult": self.config.head_lr_mult,
            "iterations": self.config.total_iterations,
            "batch_size": self.config.batch_size,
            "checkpoint_interval": self.config.effective_interval(),
            "seed": self.seed,
            "status": self.status,
            "error": self.error,
            "error_iteration": self.error_iteration,
            "trail": [
                {"iteration": p.iteration, "iid_val_acc": p.iid_val_acc} for p in self.trail
            ],
            "best_iteration": self.trail[self.best_index].iteration if self.trail else None,
            "best_iid_val_acc": self.best_iid_val_acc if self.trail else None,
            "ood_acc": self.ood_acc if self.status == "ok" else None,
            "variants": self.variants,
        }


# ---------------------------------------------------------------------------
# Stream derivation
# ---------------------------------------------------------------------------


def _streams(seed: int, test_env: int):
    """Purpose-split rng streams for one run.

    Derived from (seed, test env) only, so every recipe and grid point at a
    given seed sees the same holdout, head init, and batch order, and the
    mask stream is independent of all of them.
    """
    base = np.random.SeedSequence(entropy=[_STREAM_ROOT, int(seed), int(test_env)])
    holdout_ss, head_ss, batch_ss, mask_ss = base.spawn(4)
    return {
        "holdout": np.random.default_rng(holdout_ss),
        "head_seed": int(head_ss.generate_state(1)[0]),
        "batch": np.random.default_rng(batch_ss),
        "mask": np.random.default_rng(mask_ss),
    }


def split_holdout(split: EnvSplit, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (train_idx, val_idx) for a split at a seed.

    The holdout fraction is taken per training environment; the same
    (split, seed) always yields the same partition regardless of recipe or
    grid point, which keeps arm comparisons exactly paired.
    """
    rng = _streams(seed, split.test_env)["holdout"]
    train_parts, val_parts = [], []
    for env in split.train_envs:
        idx = split.dataset.env_indices(env)
        perm = rng.permutation(idx)
        n_val = int(len(idx) * split.holdout_fraction)
        if n_val == 0 and len(idx) > 1:
            n_val = 1
        val_parts.append(perm[:n_val])
        train_parts.append(perm[n_val:])
    train_idx = np.concatenate(train_parts)
    val_idx = np.concatenate(val_parts)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValidationError("holdout left an empty train or validation pool")
    return train_idx, val_idx


# ---------------------------------------------------------------------------
# Evaluation and arm construction
# ---------------------------------------------------------------------------


def evaluate(model, data, labels=None) -> float:
    """Eval-mode argmax accuracy; ties resolve to the lowest class index.

    `model` is anything with predict_proba (a ResidualModel or an
    EnsemblePredictor). `data` is an EnvDataset or a feature matrix with
    `labels` passed separately.
    """
    if labels is None:
        if not isinstance(data, EnvDataset):
            raise ValidationError("evaluate needs an EnvDataset or (features, labels)")
        features, labels = data.features, data.labels
    else:
        features = np.asarray(data, dtype=np.float64)
        labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    probs = model.predict_proba(features)
    preds = np.argmax(probs, axis=1)
    return float(np.mean(preds == labels))


@dataclass
class EnsemblePredictor:
    """Averages member class probabilities; prediction is argmax of the mean."""

    models: list

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return ensemble_predict(self.models, features)


def ensemble_predict(models, features: np.ndarray) -> np.ndarray:
    """Mean of member softmax probabilities for a batch."""
    models = list(models)
    if not models:
        raise ValidationError("ensemble needs at least one member")
    classes = {m.num_classes for m in models}
    if len(classes) != 1:
        raise ValidationError(f"ensemble members disagree on class count: {sorted(classes)}")
    probs = np.stack([m.predict_proba(features) for m in models])
    return probs.mean(axis=0)


def weight_average(checkpoints) -> ResidualModel:
    """Model whose parameter vector is the arithmetic mean of the checkpoints'.

    All checkpoints must share the architecture manifest. The mean is a
    pairwise-summation reduction, so reordering inputs moves the result by
    at most accumulation noise.
    """
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ValidationError("weight_average needs at least one checkpoint")
    first = checkpoints[0]
    for other in checkpoints[1:]:
        if other.manifest["arch"] != first.manifest["arch"] or (
            other.manifest["param_shapes"] != first.manifest["param_shapes"]
        ):
            raise ValidationError(
                f"checkpoint manifests disagree: {first.manifest['arch']} vs {other.manifest['arch']}"
            )
    mean = np.mean(np.stack([c.params for c in checkpoints]), axis=0)
    return model_from_checkpoint(Checkpoint(mean, first.manifest, 0, "weight_average"))


def build_variants(records) -> dict:
    """Comparison arms from finished runs.

    One RunRecord: {"wa_single", "ensemble_single"} over its checkpoint
    trail (a single-point trail degenerates to that checkpoint). A list of
    two or more RunRecords: {"wa_multi", "ensemble_multi"} over each run's
    best-iid checkpoint.
    """
    if isinstance(records, RunRecord):
        trail = [p.checkpoint for p in records.trail]
        if not trail:
            raise ValidationError("single-run variants need a non-empty checkpoint trail")
        return {
            "wa_single": weight_average(trail),
            "ensemble_single": EnsemblePredictor([model_from_checkpoint(c) for c in trail]),
        }
    records = list(records)
    if len(records) < 2:
        raise ValidationError(f"multi-run variants need >= 2 runs, got {len(records)}")
    best = [r.best.checkpoint for r in records]
    return {
        "wa_multi": weight_average(best),
        "ensemble_multi": EnsemblePredictor([model_from_checkpoint(c) for c in best]),
    }


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train(model, opt, x, y, iterations, batch_size, batch_rng, dropout, every, on_checkpoint) -> None:
    """The one training loop: batch, fused forward and loss, backward, SGD step.

    Each step's loss is a single tape node whose parents are the model's
    parameters and whose backward is `fused_backward`, so `ad.backward`
    fills every `.grad` for the optimizer as the op-by-op graph would.
    Labels are checked once, on the whole of y. After every `every`-th step
    and after the last one, on_checkpoint(steps done) runs; a true return
    ends training. every=None never calls back. A non-finite loss raises
    RunError at its iteration.
    """
    n = x.shape[0]
    check_labels(y, n, model.num_classes)
    params = tuple(model.parameters())
    for it in range(iterations):
        idx = batch_rng.integers(0, n, size=batch_size)
        act = fused_forward(model, x[idx], dropout, y[idx])
        loss = ad.make_node(act.loss, "fused_step", params, partial(fused_backward, model, act))
        if not np.isfinite(loss.item()):
            raise RunError("loss is not finite", iteration=it)
        ad.backward(loss)
        opt.step()
        ad.reset_grads(params)
        done = it + 1
        if every and (done % every == 0 or done == iterations) and on_checkpoint(done):
            break


def pretrain(arch: dict, corpus: EnvDataset, opt_cfg: OptimizerSettings, seed: int) -> Checkpoint:
    """Train a fresh model on the pretraining corpus; no dropout is applied.

    Very large dropout is a fine-tuning device; from a random representation
    it only starves learning, so pretraining always runs clean. The returned
    checkpoint is tagged pretrained-rich or pretrained-plain from the corpus
    manifest.
    """
    ckpt, _ = pretrain_trajectory(arch, corpus, opt_cfg, seed, snapshot_every=None)
    return ckpt


def pretrain_trajectory(
    arch: dict,
    corpus: EnvDataset,
    opt_cfg: OptimizerSettings,
    seed: int,
    snapshot_every: int | None = None,
    probe_size: int = 2048,
) -> tuple[Checkpoint, list[tuple[int, float]]]:
    """pretrain plus an accuracy trace on a fixed probe subset of the corpus.

    Returns (final checkpoint, [(iteration, probe accuracy), ...]) with one
    entry per multiple of snapshot_every; the trace is empty when
    snapshot_every is None.
    """
    if corpus.features.shape[0] == 0:
        raise ValidationError("pretraining corpus is empty")
    if arch.get("input_dim", corpus.n_features) != corpus.n_features:
        raise ValidationError(
            f"arch input_dim {arch.get('input_dim')} does not match corpus features {corpus.n_features}"
        )
    rich = bool(corpus.manifest.get("params", {}).get("rich", False))
    provenance = "pretrained-rich" if rich else "pretrained-plain"
    model = new_residual_model(corpus.n_features, arch["width"], arch["depth"], corpus.num_classes,
                               seed=seed, block_hidden=arch.get("block_hidden"), provenance=provenance)
    opt = SgdOptimizer({"trunk": model.trunk_parameters(), "head": model.head_parameters()},
                       lr=opt_cfg.lr, total_iterations=opt_cfg.iterations,
                       momentum=opt_cfg.momentum, weight_decay=opt_cfg.weight_decay)
    probe = slice(0, min(probe_size, corpus.features.shape[0]))
    trace: list[tuple[int, float]] = []

    def snapshot(done: int) -> bool:
        if done % snapshot_every == 0:  # the last step is not a snapshot point
            trace.append((done, evaluate(model, corpus.features[probe], corpus.labels[probe])))
        return False

    batch_rng = np.random.default_rng(np.random.SeedSequence(entropy=[_STREAM_ROOT, int(seed), 0xB00]))
    _train(model, opt, corpus.features, corpus.labels, opt_cfg.iterations, opt_cfg.batch_size,
           batch_rng, None, snapshot_every, snapshot)
    return checkpoint_from_model(model, opt_cfg.iterations, f"pretrain-{provenance}-seed{seed}"), trace


def finetune(start: Checkpoint, split: EnvSplit, cfg: FineTuneConfig, holdout=None) -> RunRecord:
    """Fine-tune from a checkpoint on one split under one config.

    Reinitializes the head for the split's label set, trains on the pooled
    training environments minus the iid holdout, applies inverted dropout to
    the penultimate representation in train mode only, checkpoints at the
    configured interval, and evaluates the best-iid checkpoint on the held
    out environment with dropout off. holdout is the (train, validation)
    index pair split_holdout(split, cfg.seed) returns, for a caller that
    already has it; None computes it.
    """
    t0 = time.perf_counter()
    ds = split.dataset
    model = model_from_checkpoint(start)
    if model.input_dim != ds.n_features:
        raise ValidationError(
            f"checkpoint expects {model.input_dim} input features, dataset has {ds.n_features}"
        )
    streams = _streams(cfg.seed, split.test_env)
    train_idx, val_idx = split_holdout(split, cfg.seed) if holdout is None else holdout
    x_val, y_val = ds.features[val_idx], ds.labels[val_idx]

    model = reinit_head(model, ds.num_classes, streams["head_seed"])
    groups = {"head": model.head_parameters()}
    multipliers = {"head": cfg.head_lr_mult}
    if not cfg.freeze_trunk:
        groups["trunk"] = model.trunk_parameters()
        multipliers["trunk"] = 1.0
    opt = SgdOptimizer(groups, lr=cfg.lr, total_iterations=cfg.total_iterations, momentum=cfg.momentum,
                       weight_decay=cfg.weight_decay, group_multipliers=multipliers)
    spec = DropoutSpec(cfg.dropout_rate, "train", streams["mask"]) if cfg.dropout_rate > 0.0 else None

    run_id = cfg.run_id or f"ft-env{split.test_env}-seed{cfg.seed}"
    trail: list[TrailPoint] = []
    best_acc, since_best = -1.0, 0

    def checkpoint(done: int) -> bool:
        nonlocal best_acc, since_best
        acc = evaluate(model, x_val, y_val)
        trail.append(TrailPoint(checkpoint_from_model(model, done, run_id), done, acc))
        if acc > best_acc:
            best_acc, since_best = acc, 0
        else:
            since_best += 1
        return cfg.patience is not None and since_best > cfg.patience

    _train(model, opt, ds.features[train_idx], ds.labels[train_idx], cfg.total_iterations,
           cfg.batch_size, streams["batch"], spec, cfg.effective_interval(), checkpoint)
    if not trail:  # zero iterations: the fresh head is the only checkpoint
        checkpoint(0)

    best_index = int(np.argmax([p.iid_val_acc for p in trail]))  # earliest checkpoint wins ties
    ood_acc = evaluate(model_from_checkpoint(trail[best_index].checkpoint), *ds.env_arrays(split.test_env))
    return RunRecord(cfg, recipe="", split_index=-1, test_env=split.test_env, train_envs=split.train_envs,
                     grid_index=-1, seed=cfg.seed, trail=trail, best_index=best_index, ood_acc=ood_acc,
                     wall_clock=time.perf_counter() - t0, run_id=run_id)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """Everything a report needs: per-run records plus the derived summary."""

    runs: list[RunRecord]
    selected: dict  # recipe -> split_index(str) -> summary of the chosen run
    aggregate_ood: dict  # recipe -> mean over splits of the selected runs' ood
    quartiles: dict  # recipe -> five-number summary over grid-point means
    multi_run: dict  # recipe -> split -> seed -> {"wa": {...}, "ensemble": {...}}
    meta: dict

    def to_jsonl_lines(self) -> list[str]:
        return [
            json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":")) for r in self.runs
        ]

    def summary_dict(self) -> dict:
        return {
            "schema_version": 1,
            "meta": self.meta,
            "selected": self.selected,
            "aggregate_ood": self.aggregate_ood,
            "quartiles": self.quartiles,
            "multi_run": self.multi_run,
        }

    def save(self, directory) -> None:
        import os

        os.makedirs(directory, exist_ok=True)
        with open(f"{directory}/runs.jsonl", "w", encoding="utf-8", newline="\n") as fh:
            for line in self.to_jsonl_lines():
                fh.write(line + "\n")
        with open(f"{directory}/summary.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.summary_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _score_arms(arms: dict, split: EnvSplit, val_idx: np.ndarray) -> dict:
    """{arm name: {"iid": holdout accuracy, "ood": held-out environment accuracy}}."""
    ds = split.dataset
    x_val, y_val = ds.features[val_idx], ds.labels[val_idx]
    x_test, y_test = ds.env_arrays(split.test_env)
    return {
        name: {"iid": evaluate(arm, x_val, y_val), "ood": evaluate(arm, x_test, y_test)}
        for name, arm in sorted(arms.items())
    }


def _execute_sweep_run(args) -> RunRecord:
    start, split, cfg, recipe, split_index, grid_index = args
    holdout = split_holdout(split, cfg.seed)  # the run and its single-run arms share it
    try:
        record = finetune(start, split, cfg, holdout)
    except RunError as exc:
        return RunRecord(cfg, recipe=recipe, split_index=split_index, test_env=split.test_env,
                         train_envs=split.train_envs, grid_index=grid_index, seed=cfg.seed,
                         status="failed", error=str(exc), error_iteration=exc.iteration, run_id=cfg.run_id)
    record.recipe, record.split_index, record.grid_index = recipe, split_index, grid_index
    record.variants = _score_arms(build_variants(record), split, holdout[1])
    return record


def run_sweep(
    start: Checkpoint,
    splits: list[EnvSplit],
    grid: list[tuple[float, float]],
    recipes: list[str],
    seeds: list[int],
    base_cfg: FineTuneConfig | None = None,
    parallel: int = 1,
    pool_seeds: bool = False,
) -> SweepResult:
    """Execute the full (split x recipe x grid x seed) product and summarize.

    grid entries are (learning rate, weight decay) pairs. Each run's config
    is its recipe applied to base_cfg, and runs are labelled with canonical
    recipe names (Recipe.name). Per (split, recipe) the selected run
    maximizes iid validation accuracy, ties broken by lowest grid index
    then lowest seed. Individual run failures are recorded, not fatal; the
    sweep raises only if some (split, recipe) has no successful run at all.
    Multi-run arms pool the grid's best checkpoints at a fixed seed, or
    across seeds too when pool_seeds is set.
    """
    if not splits or not grid or not recipes or not seeds:
        raise ValidationError("splits, grid, recipes, and seeds must all be nonempty")
    if parallel < 1:
        raise ValidationError(f"parallel must be >= 1, got {parallel}")
    recipes = [Recipe.parse(r) for r in recipes]
    labels = [r.name for r in recipes]
    for what, values in (("recipes", labels), ("seeds", list(seeds)),
                         ("split test environments", [s.test_env for s in splits])):
        if len(set(values)) != len(values):
            raise ValidationError(f"{what} repeat: {values}")
    base_cfg = base_cfg or FineTuneConfig()

    jobs = [
        (start, split, recipe.apply(base_cfg, lr=lr, weight_decay=wd, seed=seed,
                                    run_id=f"s{split_index}-{label}-g{grid_index}-seed{seed}"),
         label, split_index, grid_index)
        for split_index, split in enumerate(splits)
        for recipe, label in zip(recipes, labels)
        for grid_index, (lr, wd) in enumerate(grid)
        for seed in seeds
    ]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            runs = list(pool.map(_execute_sweep_run, jobs))
    else:
        runs = [_execute_sweep_run(job) for job in jobs]

    return _summarize(runs, splits, grid, labels, seeds, start, pool_seeds)


def select_best(records):
    """The iid-selection rule: maximal validation accuracy, ties broken by
    lowest grid index, then lowest seed. Invariant under any strictly
    monotone rescaling of the accuracies."""
    records = list(records)
    if not records:
        raise ValidationError("cannot select from zero runs")
    return max(records, key=lambda r: (r.best_iid_val_acc, -r.grid_index, -r.seed))


def _summarize(runs, splits, grid, recipes, seeds, start, pool_seeds) -> SweepResult:
    selected, aggregate, quartiles, multi_run = {}, {}, {}, {}
    holdouts: dict = {}  # (split index, seed) -> validation indices, shared by recipes
    seed_groups = [("pooled", list(seeds))] if pool_seeds else [(str(s), [s]) for s in seeds]

    for recipe in recipes:
        ok = [r for r in runs if r.recipe == recipe and r.status == "ok"]
        selected[recipe] = {}
        for split_index in range(len(splits)):
            candidates = [r for r in ok if r.split_index == split_index]
            if not candidates:
                raise RunError(f"no successful runs for recipe {recipe!r} on split {split_index}")
            chosen = select_best(candidates)
            selected[recipe][str(split_index)] = {
                "run_id": chosen.run_id,
                "iid": chosen.best_iid_val_acc,
                "ood": chosen.ood_acc,
                "variants": chosen.variants,
            }
        aggregate[recipe] = float(np.mean([entry["ood"] for entry in selected[recipe].values()]))

        # Quartile summary over grid points (each grid point averaged over
        # splits and seeds), the box-plot analog.
        grid_values, grid_run_ids = [], []
        for grid_index in range(len(grid)):
            members = [r for r in ok if r.grid_index == grid_index]
            if members:
                grid_values.append(float(np.mean([r.ood_acc for r in members])))
                grid_run_ids.extend(r.run_id for r in members)
        summary = five_number_summary(grid_values)
        summary["grid_values"] = grid_values
        summary["run_ids"] = sorted(grid_run_ids)
        quartiles[recipe] = summary

        # Multi-run arms need at least two grid points.
        multi_run[recipe] = {}
        if len(grid) >= 2 or (pool_seeds and len(grid) * len(seeds) >= 2):
            for split_index, split in enumerate(splits):
                per_split = multi_run[recipe][str(split_index)] = {}
                for tag, group in seed_groups:
                    members = [r for r in ok if r.split_index == split_index and r.seed in group]
                    if len(members) < 2:
                        continue
                    key = (split_index, group[0])
                    if key not in holdouts:
                        holdouts[key] = split_holdout(split, group[0])[1]
                    scores = _score_arms(build_variants(members), split, holdouts[key])
                    per_split[tag] = {"wa": scores["wa_multi"], "ensemble": scores["ensemble_multi"]}

    meta = {
        "schema_version": 1,
        "provenance": start.provenance,
        "recipes": list(recipes),
        "grid": [[lr, wd] for lr, wd in grid],
        "seeds": [int(s) for s in seeds],
        "pool_seeds": bool(pool_seeds),
        "splits": [
            {"index": i, "test_env": s.test_env, "train_envs": list(s.train_envs)}
            for i, s in enumerate(splits)
        ],
        "base_config": {
            "total_iterations": (runs[0].config.total_iterations if runs else None),
            "batch_size": (runs[0].config.batch_size if runs else None),
            "holdout_fraction": splits[0].holdout_fraction,
        },
    }
    return SweepResult(runs, selected, aggregate, quartiles, multi_run, meta)
