"""The three-stage pipeline: pretrain, fine-tune under a recipe, compare arms.

A recipe is a named fine-tuning variant: plain training ("erm"), very large
penultimate dropout ("dropout90", "dropout95", ...), a faster head
("headlr10"), or compositions like "dropout90+headlr10". A recipe always
sets the dropout rate ("erm" means 0); it sets the head learning-rate
multiplier only through a headlrN token, and otherwise the base config's
multiplier is kept. `Recipe` is the one place that parses and formats
these names. Fine-tuning always reinitializes the head, trains on the
union of the split's training environments minus a held-out iid
validation fraction, records each checkpoint's iid accuracy, keeps only the
best-iid checkpoint (ties go to the earliest, so training is never silently
extended), and reports eval-mode accuracy on the held-out environment.

Each comparison arm is the weight average or the ensemble of some member
checkpoints: one run's trail (single-run arms, scored from sums a sweep
group adds each checkpoint into as it is taken) or the best checkpoints of
a hyperparameter grid (multi-run arms). `run_sweep`
executes the full (split x grid x seed x recipe) product on one process or
several, the calling one included. The grid points of one (split, recipe,
seed) train in lockstep as one stacked step (`_finetune_group` over
`_train`) on one feed, so each step's batch is drawn and gathered once.
Each run keeps its own mask stream, tape node and optimizer, so results are
byte-identical to training each run alone, whatever the process count. Every run,
standalone or in a sweep group, is scored on the held-out environment by
`evaluate` at its best checkpoint, in `finetune`. `_train` is the
one training loop: a generator that yields the steps done at each
checkpoint, so pretraining and fine-tuning checkpoint in their own loop
bodies, and what it steps is plain data (`_Run`, `_Feed`).

Random streams are split by purpose (holdout / head init / batching /
dropout masks) and derived only from the run seed and the split, never from
the recipe or grid point. Two consequences worth relying on: recipes are
exactly paired at a given seed, and a rate-0 dropout run is bit-equivalent
to a run with no dropout code path at all, because the mask stream is
never consumed at rate 0.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
from decimal import Decimal, InvalidOperation
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .datasets import EnvDataset, EnvSplit
from .errors import RunError, ValidationError
from .models import (
    Checkpoint,
    ResidualModel,
    StackedStep,
    check_labels,
    checkpoint_from_model,
    model_from_checkpoint,
    new_residual_model,
    reinit_head,
)
from .optim import SgdOptimizer, check_settings
from .regularizers import batch_dropout_mask
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
_INDEX_BLOCK = 16384  # batch indices `_batches` draws per call: 128 KiB of int64
_PROBE_ROWS = 2048  # the corpus rows `pretrain_trajectory` scores its trace on


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

    def __post_init__(self):
        # the optimizer checks these too, but only once its run has started
        check_settings(self.lr, self.iterations, self.weight_decay, self.momentum, "iterations")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class FineTuneConfig:
    dropout_rate: float = 0.9
    lr: float = 1e-2
    weight_decay: float = 1e-4
    head_lr_mult: float = 1.0
    total_iterations: int = 2000
    batch_size: int = 32
    checkpoint_interval: int | None = None  # defaults to total_iterations // 33
    seed: int = 0
    freeze_trunk: bool = False
    run_id: str = ""

    def __post_init__(self):
        # the optimizer checks these too, but only once a run starts; a sweep
        # builds every config first, so a bad value is rejected before training
        check_settings(self.lr, self.total_iterations, self.weight_decay)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
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
    """One checkpoint of a fine-tune (None unless it is the run's best) and its iid holdout accuracy."""

    checkpoint: Checkpoint | None
    iteration: int
    iid_val_acc: float


@dataclass
class RunRecord:
    """One fine-tune's JSON line and trail, whose best point holds the record's only checkpoint."""

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
    run_id: str = ""
    variants: dict = field(default_factory=dict)

    @property
    def best(self) -> TrailPoint:
        return self.trail[self.best_index]

    @property
    def best_iid_val_acc(self) -> float:
        return self.best.iid_val_acc

    def to_json_dict(self) -> dict:
        """Serializable record; raw parameters are omitted."""
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


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax class is the label; ties go to the lowest index."""
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def evaluate(model, data, labels) -> float:
    """Eval-mode argmax accuracy on features `data`; ties resolve to the lowest class index.
    `model` is anything with predict_proba (a ResidualModel or an EnsemblePredictor)."""
    features, labels = np.asarray(data, dtype=np.float64), np.asarray(labels)
    if features.shape[0] == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    if labels.shape != features.shape[:1]:
        raise ValidationError(f"labels must have shape ({features.shape[0]},), got {labels.shape}")
    return _accuracy(model.predict_proba(features), labels)


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


def _mean_params(checkpoints: list) -> np.ndarray:
    """The mean of the checkpoints' parameter vectors, once their manifests are checked to agree.
    The vectors are added one after another in checkpoint order, then divided by their count."""
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
    return np.mean(np.stack([c.params for c in checkpoints]), axis=0)


def weight_average(checkpoints) -> ResidualModel:
    """Model whose parameter vector is the mean of the checkpoints' (`_mean_params`)."""
    checkpoints = list(checkpoints)
    mean = _mean_params(checkpoints)
    return model_from_checkpoint(Checkpoint(mean, checkpoints[0].manifest, 0, "weight_average"))


def build_variants(checkpoints) -> dict:
    """{"wa", "ensemble"}: the members' weight average and their ensemble, as
    models; `_score_arms` scores the same arms from the same member list.

    The members are, say, a grid's best checkpoints (multi-run arms). A
    record's trail is not a member list: it keeps only its best checkpoint,
    so a None member is refused by its index. A run's single-run arms are
    its sweep record's `variants`.
    """
    checkpoints = list(checkpoints)
    for index, ckpt in enumerate(checkpoints):
        if ckpt is None:
            raise ValidationError(f"member {index} is None: a record keeps only its best checkpoint")
    return {
        "wa": weight_average(checkpoints),
        "ensemble": EnsemblePredictor([model_from_checkpoint(c) for c in checkpoints]),
    }


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _batches(batch_rng, n: int, batch_size: int, iterations: int):
    """The batch indices of each step, as `batch_rng.integers(0, n, size=batch_size)`
    per step would draw them, but drawn a block of steps per call.

    A block's rows are those per-step draws, bit for bit, and a block never
    reaches past the last step, so after a full run the generator is where
    per-step draws leave it. A run that fails with RunError has also drawn
    the rest of its last block, which no step uses.
    """
    rows = max(1, _INDEX_BLOCK // batch_size)
    for start in range(0, iterations, rows):
        yield from batch_rng.integers(0, n, size=(min(rows, iterations - start), batch_size))


@dataclass
class _Run:
    """One run as `_train` steps it: its model, its optimizer and its dropout-mask
    stream (never read at rate 0). error is the RunError that took it off the stack, if one did."""

    model: ResidualModel
    opt: SgdOptimizer
    mask_rng: np.random.Generator | None = None
    error: RunError | None = None


@dataclass
class _Feed:
    """The batches all runs of one `_train` call read: the dataset's feature and
    label arrays, uncopied, the rows it trains on (None: all) and one batch stream."""

    x: np.ndarray
    y: np.ndarray
    rows: np.ndarray | None
    batch_rng: np.random.Generator

    def load(self, step: StackedStep, draw: np.ndarray) -> None:
        """Gathers the rows a `_batches` draw picks into the step's first input row, then copies it into the rest."""
        idx = draw if self.rows is None else self.rows.take(draw)
        self.x.take(idx, 0, step.x[0], "clip")  # mode "raise" would buffer out
        self.y.take(idx, None, step.labels[0], "clip")
        if len(step.x) > 1:  # an empty copy still costs about a microsecond a step
            step.x[1:], step.labels[1:] = step.x[0], step.labels[0]


def _train(runs: list, feed: _Feed, iterations: int, batch_size: int, rate: float, every: int | None):
    """The one training loop: K runs of one architecture, stepped in lockstep at one dropout rate on one feed.

    A generator: it yields the steps done after every `every`-th step and
    after the last one (every=None yields nothing), so its caller takes
    checkpoints in its own loop body, and the caller runs it to the end.
    Each step draws one batch from the feed (`_batches`, blocks of indices
    into its rows), loads it into every run's row of one `StackedStep`
    (`_Feed.load`) and draws each run's dropout mask from its own stream.
    The step computes the K forwards and backwards as [K, ...] arithmetic.
    Then, run by run, the loss enters the tape as one node whose parents
    are the run's parameters and whose backward hands back the run's row of
    the stacked gradients, `ad.backward` fills the `.grad`s, the run's
    optimizer steps and its gradients are reset. So each run's parameters,
    mask stream and checkpoints equal those of training it alone (K = 1) on
    the same feed, bit for bit. The feed's features are made float64 and
    its labels intp in place, once their shapes are checked. A run whose
    loss is not finite leaves the stack with RunError at that iteration in
    its `error`, and the others go on; the caller raises or records it.
    """
    model = runs[0].model
    feed.x = np.ascontiguousarray(feed.x, dtype=np.float64)
    if feed.x.ndim != 2 or feed.x.shape[1] != model.input_dim:
        raise ValidationError(f"input must be [batch, {model.input_dim}], got shape {feed.x.shape}")
    check_labels(np.asarray(feed.y), feed.x.shape[0], model.num_classes)
    feed.y = np.asarray(feed.y).astype(np.intp, copy=False)
    if iterations == 0:
        return
    n = feed.x.shape[0] if feed.rows is None else feed.rows.shape[0]
    draws = _batches(feed.batch_rng, n, batch_size, iterations)
    params = [tuple(run.model.parameters()) for run in runs]
    step = StackedStep([run.model for run in runs], batch_size, rate)
    width = model.width
    for it in range(iterations):
        feed.load(step, next(draws))
        if rate:
            for run, mask in zip(runs, step.mask):
                batch_dropout_mask(batch_size, width, rate, run.mask_rng, out=mask)
        losses = step.forward()
        if not np.isfinite(losses).all():
            for run, loss in zip(runs, losses):
                if not np.isfinite(loss):
                    run.error = RunError("loss is not finite", iteration=it)
            keep = [k for k, run in enumerate(runs) if run.error is None]
            if not keep:
                return
            runs, params = [runs[k] for k in keep], [params[k] for k in keep]
            step = step.rows(keep)
            losses = step.forward()
        step.backward()
        for run, leaves, grads, loss in zip(runs, params, step.grads, losses):
            # the stacked backward took the seed ad.backward gives a scalar root, 1
            ad.backward(ad.make_node(loss, "fused_step", leaves, lambda g, grads=grads: grads))
            run.opt.step()
            ad.reset_grads(leaves)
        done = it + 1
        if every and (done % every == 0 or done == iterations):
            yield done


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
) -> tuple[Checkpoint, list[tuple[int, float]]]:
    """pretrain plus an accuracy trace on the corpus' first _PROBE_ROWS rows.

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
    probe = slice(0, _PROBE_ROWS)
    trace: list[tuple[int, float]] = []
    batch_rng = np.random.default_rng(np.random.SeedSequence(entropy=[_STREAM_ROOT, int(seed), 0xB00]))
    run, feed = _Run(model, opt), _Feed(corpus.features, corpus.labels, None, batch_rng)
    for done in _train([run], feed, opt_cfg.iterations, opt_cfg.batch_size, 0.0, snapshot_every):
        if done % snapshot_every == 0:  # the last step is not a snapshot point
            trace.append((done, evaluate(model, corpus.features[probe], corpus.labels[probe])))
    if run.error is not None:
        raise run.error
    return checkpoint_from_model(model, opt_cfg.iterations, f"pretrain-{provenance}-seed{seed}"), trace


@dataclass
class _FineTune:
    """A fine-tune as `_finetune_group` leaves it: its config, the `_Run`
    `_train` stepped, its run id, its holdout rows (val_idx), its trail, whose
    point best_index (the first of highest accuracy) holds its only checkpoint,
    and zero-started sums over the trail of the holdout class probabilities and,
    with arms, of the parameter vectors and the held-out environment's probabilities."""

    cfg: FineTuneConfig
    run: _Run
    run_id: str
    val_idx: np.ndarray
    trail: list[TrailPoint]
    best_index: int
    holdout_sum: np.ndarray
    param_sum: np.ndarray | None
    test_sum: np.ndarray | None


def _finetune_group(start: Checkpoint, split: EnvSplit, cfgs: list, arms: bool = False) -> list[_FineTune]:
    """Fine-tunes from start on split under configs that differ at most in
    lr, weight decay and run id (else ValidationError, naming the field),
    trained in lockstep by one `_train` on one feed, the training rows and
    batch stream of split_holdout(split, seed) at their common seed, and
    checkpointed at their interval on its validation rows. A checkpoint's
    parameters are copied only while it is its run's best; with arms, each
    is also added into the run's param_sum and test_sum. A run whose loss
    went non-finite keeps the trail it had and its error; at zero iterations
    the fresh head is the only checkpoint."""
    cfg = cfgs[0]
    for other in cfgs[1:]:
        for name, value in vars(other).items():
            if name not in ("lr", "weight_decay", "run_id") and value != getattr(cfg, name):
                raise ValidationError(f"a fine-tune group's configs must share {name}: got {getattr(cfg, name)!r} "
                                      f"and {value!r}")
    ds, (train_idx, val_idx) = split.dataset, split_holdout(split, cfg.seed)
    x_val, y_val = ds.features[val_idx], ds.labels[val_idx]
    x_test = ds.env_arrays(split.test_env)[0] if arms else None
    streams = _streams(cfg.seed, split.test_env)
    feed = _Feed(ds.features, ds.labels, train_idx, streams["batch"])
    group = []
    for member in cfgs:
        model = model_from_checkpoint(start)
        if model.input_dim != ds.n_features:
            raise ValidationError(
                f"checkpoint expects {model.input_dim} input features, dataset has {ds.n_features}"
            )
        model = reinit_head(model, ds.num_classes, streams["head_seed"])
        groups = {"head": model.head_parameters()}
        multipliers = {"head": member.head_lr_mult}
        if not member.freeze_trunk:
            groups["trunk"] = model.trunk_parameters()
            multipliers["trunk"] = 1.0
        opt = SgdOptimizer(groups, lr=member.lr, total_iterations=member.total_iterations,
                           weight_decay=member.weight_decay, group_multipliers=multipliers)
        run = _Run(model, opt, _streams(member.seed, split.test_env)["mask"])
        group.append(_FineTune(member, run, member.run_id or f"ft-env{split.test_env}-seed{member.seed}", val_idx,
                               [], 0, np.zeros((y_val.shape[0], model.num_classes)),
                               np.zeros_like(model.params) if arms else None,
                               np.zeros((x_test.shape[0], model.num_classes)) if arms else None))

    def checkpoint(done: int) -> None:
        for ft in group:
            if ft.run.error is None:
                model = ft.run.model
                probs = model.predict_proba(x_val)
                point = TrailPoint(None, done, _accuracy(probs, y_val))
                ft.trail.append(point)
                best = ft.trail[ft.best_index]
                if best.checkpoint is None or point.iid_val_acc > best.iid_val_acc:  # ties keep the earliest
                    best.checkpoint, ft.best_index = None, len(ft.trail) - 1
                    point.checkpoint = checkpoint_from_model(model, done, ft.run_id)
                np.add(ft.holdout_sum, probs, out=ft.holdout_sum)
                if arms:
                    np.add(ft.param_sum, model.params, out=ft.param_sum)
                    np.add(ft.test_sum, model.predict_proba(x_test), out=ft.test_sum)

    for done in _train([ft.run for ft in group], feed, cfg.total_iterations, cfg.batch_size, cfg.dropout_rate,
                       cfg.effective_interval()):
        checkpoint(done)
    if cfg.total_iterations == 0:
        checkpoint(0)
    return group


def finetune(start: Checkpoint, split: EnvSplit, cfg: FineTuneConfig,
             trained: _FineTune | None = None) -> RunRecord:
    """Fine-tune from a checkpoint on one split under one config.

    Reinitializes the head for the split's label set, trains on the pooled
    training environments minus the iid holdout split_holdout(split,
    cfg.seed), applies inverted dropout to the penultimate representation in
    train mode only, checkpoints at the configured interval, and evaluates
    the best-iid checkpoint on the held out environment with dropout off.
    Its trail keeps the parameters of the best checkpoint only; a sweep
    scores single-run arms (`RunRecord.variants`).

    trained is this run already trained by `_finetune_group` in lockstep
    with the other grid points of its sweep group (`_execute_sweep_group`):
    finetune then skips training and scores it as it scores a standalone
    run, or raises the RunError that stopped it. It exists so that every
    run, grouped or not, is one `finetune` call: perfbench's traced run
    reconciles one `protocol.finetune` call per run.
    """
    ft = trained
    if ft is None:
        (ft,) = _finetune_group(start, split, [cfg])
    if ft.run.error is not None:
        raise ft.run.error
    model = ft.run.model
    model.params[...] = ft.trail[ft.best_index].checkpoint.params
    return RunRecord(cfg, recipe="", split_index=-1, test_env=split.test_env, train_envs=split.train_envs,
                     grid_index=-1, seed=cfg.seed, trail=ft.trail, best_index=ft.best_index,
                     ood_acc=evaluate(model, *split.dataset.env_arrays(split.test_env)), run_id=ft.run_id)


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
        os.makedirs(directory, exist_ok=True)
        with _replacing(f"{directory}/runs.jsonl") as fh:
            for line in self.to_jsonl_lines():
                fh.write(line + "\n")
        with _replacing(f"{directory}/summary.json") as fh:
            json.dump(self.summary_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


@contextlib.contextmanager
def _replacing(path):
    """A text file that replaces path once the block ends without an error.

    It is written under path's name plus ".tmp" and moved onto path with
    os.replace, so path holds either its old bytes or all the new ones; on an
    error the temporary file is removed. There is no fsync: this guards
    against a failed or killed writer, not against a crash of the machine.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _score_arms(checkpoints: list, split: EnvSplit, val_idx: np.ndarray) -> dict:
    """`_arm_scores` of the members' weight average and ensemble (multi-run arms).

    One model makes every prediction, holding each member's vector in turn
    and then their mean. The members' probabilities are summed as they
    come, from zero and in member order, and divided by their count: the
    bits of the `np.stack(...).mean(axis=0)` that ensemble_predict takes,
    which adds the stacked arrays one after another (probabilities are
    never -0.0, so the zero start changes no bit). So the scores equal
    those of build_variants' arms.
    """
    ds = split.dataset
    val, test = (ds.features[val_idx], ds.labels[val_idx]), ds.env_arrays(split.test_env)
    mean = _mean_params(checkpoints)  # first: it refuses members of another architecture
    model = model_from_checkpoint(checkpoints[0])
    means = []
    for x, _ in (val, test):
        total = np.zeros((x.shape[0], model.num_classes))
        for ckpt in checkpoints:
            model.params[...] = ckpt.params
            total += model.predict_proba(x)
        means.append(total / len(checkpoints))
    model.params[...] = mean
    return _arm_scores(model, *means, val, test)


def _arm_scores(wa_model, val_mean: np.ndarray, test_mean: np.ndarray, val: tuple, test: tuple) -> dict:
    """{"wa", "ensemble"}: accuracy on the holdout's (features, labels) val ("iid") and the held-out
    environment's test ("ood") of wa_model and of the ensemble with those mean probabilities."""
    return {
        "wa": {"iid": evaluate(wa_model, *val), "ood": evaluate(wa_model, *test)},
        "ensemble": {"iid": _accuracy(val_mean, val[1]), "ood": _accuracy(test_mean, test[1])},
    }


def _execute_sweep_group(start: Checkpoint, split: EnvSplit, cfgs: list, recipe: str,
                         split_index: int) -> list[RunRecord]:
    """The records of one sweep group, the grid points of one (split, recipe,
    seed), trained in lockstep, in grid order.

    Each member's record is its `finetune(..., trained=...)`, scored as a
    standalone run is. Its single-run arms are scored from the sums its
    group added its n trail checkpoints into, divided by n: the bits of
    build_variants' arms over the trail, as `_mean_params`' np.mean adds the
    stacked vectors one after another from +0.0 too. A member whose loss
    went non-finite gets a failed record with the iteration a solo run
    would have stopped at.
    """
    ds, records = split.dataset, []
    test = ds.env_arrays(split.test_env)
    for grid_index, (cfg, ft) in enumerate(zip(cfgs, _finetune_group(start, split, cfgs, arms=True))):
        try:
            record = finetune(start, split, cfg, trained=ft)
        except RunError as exc:
            records.append(RunRecord(cfg, recipe=recipe, split_index=split_index, test_env=split.test_env,
                                     train_envs=split.train_envs, grid_index=grid_index, seed=cfg.seed,
                                     status="failed", error=str(exc), error_iteration=exc.iteration,
                                     run_id=cfg.run_id))
            continue
        record.recipe, record.split_index, record.grid_index = recipe, split_index, grid_index
        n, model = len(ft.trail), ft.run.model
        model.params[...] = ft.param_sum / n
        arms = _arm_scores(model, ft.holdout_sum / n, ft.test_sum / n,
                           (ds.features[ft.val_idx], ds.labels[ft.val_idx]), test)
        record.variants = {"wa_single": arms["wa"], "ensemble_single": arms["ensemble"]}
        records.append(record)
    return records


_POOL_INPUTS: dict = {}  # in a sweep pool worker: `_execute_claimed`'s arguments but `front`


def _init_pool_worker(start: Checkpoint, splits: list, jobs: list, unclaimed) -> None:
    """Hand a sweep pool worker the start, the splits, the jobs and the shared unclaimed range once."""
    _POOL_INPUTS.update(start=start, splits=splits, jobs=jobs, unclaimed=unclaimed)


def _claim(unclaimed, front: bool) -> int | None:
    """Claim the first (front) or last job of the shared [first, stop) range of
    unclaimed job indices; None once every job is claimed."""
    with unclaimed.get_lock():
        first, stop = unclaimed
        if first == stop:
            return None
        if front:
            unclaimed[0] = first + 1
            return first
        unclaimed[1] = stop - 1
        return stop - 1


def _execute_claimed(start: Checkpoint, splits: list, jobs: list, unclaimed, front: bool) -> dict:
    """Claim and run groups one at a time until none is left: each claimed
    job's index to its records, or to the exception its group raised."""
    done = {}
    while (index := _claim(unclaimed, front)) is not None:
        cfgs, label, split_index = jobs[index]
        try:
            done[index] = _execute_sweep_group(start, splits[split_index], cfgs, label, split_index)
        except Exception as exc:
            done[index] = exc
    return done


def _execute_pooled_groups() -> dict:
    """A pool worker's groups, claimed from the front of the job list."""
    return _execute_claimed(front=True, **_POOL_INPUTS)


def _execute_jobs(start: Checkpoint, splits: list, jobs: list, parallel: int) -> list[list[RunRecord]]:
    """Each sweep group's records, in job order, on `parallel` processes, this one included.

    Beside this process, a pool of min(parallel - 1, len(jobs) - 1) forked
    workers claims groups from the front of the job list while this process
    claims them from the back. Each process claims its next group only when
    it has finished the last one, so no group is held for a busy process
    while another one idles. One group, or parallel 1, forks no worker. A
    group that raises, in either process, raises here; of several, the
    first in job order. A worker that dies raises RunError.
    """
    workers = min(parallel - 1, len(jobs) - 1)
    if not workers:
        return [_execute_sweep_group(start, splits[split_index], cfgs, label, split_index)
                for cfgs, label, split_index in jobs]
    # a group's random streams need numpy.random: loaded before the fork, it is shared with the
    # workers instead of loaded again by each of them (16 modules, about 1.8 MiB per worker)
    import numpy.random  # noqa: F401
    unclaimed = multiprocessing.Array("l", [0, len(jobs)])
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_pool_worker,
                               initargs=(start, splits, jobs, unclaimed))
    try:
        shares = [pool.submit(_execute_pooled_groups) for _ in range(workers)]
        done = _execute_claimed(start, splits, jobs, unclaimed, front=False)
        for share in shares:
            done.update(share.result())
    except BrokenProcessPool as exc:
        raise RunError(f"a sweep pool worker died: {exc}") from exc
    finally:
        with unclaimed.get_lock():  # on an interrupt, no process claims another group
            unclaimed[0] = unclaimed[1]
        pool.shutdown()
    groups = [done[index] for index in range(len(jobs))]
    for group in groups:
        if isinstance(group, Exception):
            raise group
    return groups


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
    recipe names (Recipe.name). Every config is built before any training.
    The grid points of one (split, recipe, seed) train in lockstep
    (`_execute_sweep_group`), and the groups run on `parallel` processes,
    this one included (`_execute_jobs`): at most one process per group, so
    this one and min(parallel - 1, groups - 1) forked workers, which get the
    start and the splits once each. The groups do not depend on parallel, so
    neither do the records, which come back in (split, recipe, grid point,
    seed) order, each holding only its best checkpoint.
    Per (split, recipe) the selected run maximizes iid validation accuracy,
    ties broken by lowest grid index then lowest seed. Individual run
    failures are recorded, not fatal; the sweep raises only if some (split,
    recipe) has no successful run at all. Multi-run arms pool the grid's
    best checkpoints at a fixed seed, or across seeds too when pool_seeds is
    set. Their iid score is taken on the holdout of the first seed they
    pool, so a pooled arm's holdout overlaps its other seeds' training rows.
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

    # one job per group: the grid points of a (split, recipe, seed), trained in lockstep
    jobs = [
        ([recipe.apply(base_cfg, lr=lr, weight_decay=wd, seed=seed,
                       run_id=f"s{split_index}-{label}-g{grid_index}-seed{seed}")
          for grid_index, (lr, wd) in enumerate(grid)], label, split_index)
        for split_index in range(len(splits))
        for recipe, label in zip(recipes, labels)
        for seed in seeds
    ]
    groups = _execute_jobs(start, splits, jobs, parallel)
    # in (split, recipe, grid point, seed) order: the seeds of a (split, recipe) are consecutive groups
    runs = [record
            for first in range(0, len(groups), len(seeds))
            for point in zip(*groups[first : first + len(seeds)])
            for record in point]

    return _summarize(runs, splits, grid, labels, seeds, start, pool_seeds)


def _selection_key(iid: float, grid_index: int, seed: int) -> tuple:
    """The order iid selection maximizes: validation accuracy, ties broken by
    lowest grid index, then lowest seed. `select_best` and the report's
    single-run arm columns both select by it."""
    return iid, -grid_index, -seed


def select_best(records):
    """The iid-selection rule: the run of maximal `_selection_key`. Invariant
    under any strictly monotone rescaling of the accuracies."""
    records = list(records)
    if not records:
        raise ValidationError("cannot select from zero runs")
    return max(records, key=lambda r: _selection_key(r.best_iid_val_acc, r.grid_index, r.seed))


def _summarize(runs, splits, grid, recipes, seeds, start, pool_seeds) -> SweepResult:
    selected, aggregate, quartiles, multi_run = {}, {}, {}, {}
    seed_groups = [("pooled", list(seeds))] if pool_seeds else [(str(s), [s]) for s in seeds]

    for recipe in recipes:
        ok = [r for r in runs if r.recipe == recipe and r.status == "ok"]
        selected[recipe] = {}
        for split_index in range(len(splits)):
            candidates = [r for r in ok if r.split_index == split_index]
            if not candidates:
                failed = [r for r in runs if r.recipe == recipe and r.split_index == split_index]
                cause = f"; first failed run {failed[0].run_id}: {failed[0].error}" if failed else ""
                raise RunError(f"no successful runs for recipe {recipe!r} on split {split_index}{cause}")
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

        # Multi-run arms need at least two members: two grid points, or two seeds pooled.
        multi_run[recipe] = {}
        if len(grid) >= 2 or (pool_seeds and len(grid) * len(seeds) >= 2):
            for split_index, split in enumerate(splits):
                per_split = multi_run[recipe][str(split_index)] = {}
                for tag, group in seed_groups:
                    members = [r for r in ok if r.split_index == split_index and r.seed in group]
                    if len(members) < 2:
                        continue
                    per_split[tag] = _score_arms([r.best.checkpoint for r in members], split,
                                                 split_holdout(split, group[0])[1])

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
