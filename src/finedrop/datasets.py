"""Seedable synthetic multi-environment classification tasks, plus persistence.

Three generators cover the three roles data plays here:

* `gen_redundant_features`: one environment where every feature alone
  predicts the binary label perfectly, but with different scales, so plain
  gradient training latches onto the strongest feature and starves the
  rest. Pairs with `make_missing_feature_env`, which zeroes columns to
  produce the shifted test environment.

* `gen_multienv_task`: several environments sharing invariant "core"
  features and easier "spurious" features whose label correlation carries
  an environment-dependent sign: positive everywhere except the last
  environment, where it is reversed. Leaving that environment out makes
  the spurious group a perfectly consistent bait during training that
  betrays the model under test; the other leave-one-out choices are mild
  shifts, the way real multi-domain benchmarks mix near and far domains.

* `gen_pretrain_corpus`: a large corpus over the same feature space with a
  different class partition (eight classes from three sign latents: one on
  even core columns, one on odd core columns, one on the spurious columns).
  Pretraining therefore builds detectors for core and spurious structure
  alike, the way a generic pretrained backbone encodes both object and
  background features. Two giveaway columns repeat the core latents at
  high signal-to-noise: the shortcut a plainly trained trunk rides,
  starving its core detectors. The rich variant randomly masks core and
  giveaway columns per example, an erasing-style augmentation under which
  no shortcut survives every example, so the trunk has to encode every
  core feature. Downstream tasks treat the giveaway positions as inert
  noise; whether a trunk kept redundant core detectors is then exactly
  what separates rich from plain pretraining.

* `gen_xor_task`: a parity task (label = product of two sign latents, each
  carried redundantly by a column block) that no linear readout of the
  inputs can solve. Training from scratch has to create feature
  combinations, which is the regime where very large dropout turns from a
  regularizer into an obstacle. The last environment carries extra input
  noise as the shifted test distribution.

The generators' fixed values are the module constants below; each
generator's docstring names the ones it uses, and each manifest records
them. N_CORE, N_GIVEAWAY and N_SPURIOUS are the feature layout the corpus
and the multienv task share; HOLDOUT_FRACTION is a split's default iid
validation share.

Datasets persist as one CSV per environment plus a JSON manifest; floats
are written with 17 significant digits so round trips are exact. A large
dataset's row blocks are formatted across the process's CPUs and written in
block order, so the files are the same bytes on any number of CPUs. Loading
counts the rows first and parses them in blocks into preallocated arrays,
so it peaks at about one copy of the data.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, RunError, ValidationError

__all__ = [
    "N_CORE",
    "N_GIVEAWAY",
    "N_SPURIOUS",
    "HOLDOUT_FRACTION",
    "EnvDataset",
    "EnvSplit",
    "leave_one_out_splits",
    "gen_redundant_features",
    "make_missing_feature_env",
    "gen_multienv_task",
    "gen_pretrain_corpus",
    "gen_xor_task",
    "save_dataset",
    "load_dataset",
]

# The feature layout the pretraining corpus and the multienv task share.
N_CORE = 12  # core columns, split over two sign latents (even and odd columns)
N_GIVEAWAY = 2  # one giveaway column per core latent; the task's inert columns
N_SPURIOUS = 4
HOLDOUT_FRACTION = 0.20

CORE_SCALE = 1.0
CORE_NOISE = 1.2  # relative to CORE_SCALE
SPURIOUS_SCALE = 3.0
SPURIOUS_JITTER = 0.3  # relative to SPURIOUS_SCALE
GIVEAWAY_SCALE = 3.0
GIVEAWAY_NOISE = 0.2  # relative to GIVEAWAY_SCALE
MASK_PROB = 0.5
REDUNDANT_STRONG_SCALE = 4.0  # feature 0; every other redundant feature has scale 1
REDUNDANT_JITTER = 0.3  # relative to the scale; below 1 keeps every feature's sign
XOR_PAIRS = 6
XOR_NOISE = 0.5
XOR_SHIFT_NOISE_MULT = 1.6


@dataclass
class EnvDataset:
    """Labeled feature vectors partitioned into environments.

    features is [n, d] float64, labels and env_ids are length-n int64, and
    every env id appearing in env_ids must be declared in the manifest.
    """

    features: np.ndarray
    labels: np.ndarray
    env_ids: np.ndarray
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.env_ids = np.asarray(self.env_ids, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValidationError(f"features must be [n, d], got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.env_ids.shape != (n,):
            raise ValidationError(
                f"labels/env_ids must be length {n}, got {self.labels.shape} and {self.env_ids.shape}"
            )
        declared = [env["id"] for env in self.manifest.get("environments", [])]
        stray = ~np.isin(self.env_ids, declared)  # not np.unique, whose first call imports numpy.ma
        if stray.any():
            raise ValidationError(f"env ids {sorted(set(self.env_ids[stray].tolist()))} missing from manifest")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.manifest.get("num_classes", int(self.labels.max()) + 1))

    @property
    def environment_ids(self) -> list[int]:
        return [env["id"] for env in self.manifest["environments"]]

    def env_indices(self, env_id: int) -> np.ndarray:
        return np.flatnonzero(self.env_ids == env_id)

    def env_arrays(self, env_id: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.env_indices(env_id)
        return self.features[idx], self.labels[idx]

    def counts_per_env(self) -> dict[int, int]:
        return {e: int(self.env_indices(e).size) for e in self.environment_ids}


@dataclass
class EnvSplit:
    """One leave-one-environment-out choice over a dataset.

    Training draws from train_envs minus a held-out iid validation fraction;
    the test environment supplies the shifted evaluation data.
    """

    dataset: EnvDataset
    train_envs: tuple[int, ...]
    test_env: int
    holdout_fraction: float = HOLDOUT_FRACTION

    def __post_init__(self):
        self.train_envs = tuple(int(e) for e in self.train_envs)
        self.test_env = int(self.test_env)
        known = set(self.dataset.environment_ids)
        if not set(self.train_envs) <= known or self.test_env not in known:
            raise ValidationError(
                f"split references unknown environments (have {sorted(known)}, "
                f"got train={self.train_envs} test={self.test_env})"
            )
        if not self.train_envs:
            raise ValidationError("at least one fine-tune environment is required")
        if self.dataset.env_indices(self.test_env).size == 0:
            raise ValidationError(f"test env {self.test_env} has no rows")
        if self.test_env in self.train_envs:
            raise ValidationError(f"test env {self.test_env} must not appear in train envs")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValidationError(f"holdout fraction must be in (0, 1), got {self.holdout_fraction}")


def leave_one_out_splits(dataset: EnvDataset, holdout_fraction: float = HOLDOUT_FRACTION) -> list[EnvSplit]:
    """One split per environment, with that environment as the shifted test set."""
    ids = dataset.environment_ids
    if len(ids) < 2:
        raise ValidationError("leave-one-out needs at least 2 environments")
    return [
        EnvSplit(dataset, tuple(e for e in ids if e != test), test, holdout_fraction)
        for test in ids
    ]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _signs(labels: np.ndarray) -> np.ndarray:
    return (2 * labels - 1).astype(np.float64)


def _stack_envs(blocks, n_per_env: int, manifest: dict) -> EnvDataset:
    """One dataset from per-environment (features, labels) blocks of n_per_env rows, env ids 0, 1, ..."""
    env_ids = np.repeat(np.arange(len(blocks), dtype=np.int64), n_per_env)
    return EnvDataset(np.vstack([x for x, _ in blocks]), np.concatenate([y for _, y in blocks]), env_ids, manifest)


def gen_redundant_features(n_features: int, n_samples: int, label_noise: float, seed: int) -> EnvDataset:
    """One environment where every feature individually predicts the label.

    Feature i is (2y-1) * scale_i plus uniform jitter of at most
    REDUNDANT_JITTER times the scale, so with label_noise 0 each
    single-feature sign classifier is perfect. Feature 0's scale is
    REDUNDANT_STRONG_SCALE and every other feature's is 1: the strong feature
    is the bait a plain gradient method takes while the redundant features
    starve. label_noise flips that fraction of the observed labels after the
    features are generated.
    """
    if n_features < 2:
        raise ValidationError(f"n_features must be >= 2, got {n_features}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 <= label_noise < 0.5:
        raise ValidationError(f"label_noise must be in [0, 0.5), got {label_noise}")

    scales = np.array([REDUNDANT_STRONG_SCALE] + [1.0] * (n_features - 1))
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 2, size=n_samples)
    s = _signs(y_true)
    noise = rng.uniform(-REDUNDANT_JITTER, REDUNDANT_JITTER, size=(n_samples, n_features))
    x = (s[:, None] + noise) * scales[None, :]
    labels = y_true.copy()
    if label_noise > 0:
        flips = rng.random(n_samples) < label_noise
        labels = np.where(flips, 1 - labels, labels)

    manifest = {
        "schema_version": 1,
        "task": "redundant",
        "seed": int(seed),
        "n_features": int(n_features),
        "num_classes": 2,
        "params": {
            "n_samples": int(n_samples),
            "label_noise": float(label_noise),
            "jitter": REDUNDANT_JITTER,
            "scales": [float(v) for v in scales],
        },
        "environments": [{"id": 0, "name": "base", "params": {}}],
    }
    return EnvDataset(x, labels, np.zeros(n_samples, dtype=np.int64), manifest)


def make_missing_feature_env(dataset: EnvDataset, missing_set) -> EnvDataset:
    """The dataset plus a copy of all its rows with the listed feature columns zeroed, as a new environment.

    Models the shifted test distribution where some inputs simply vanish.
    The new environment's id is one past the largest in the dataset, and its
    rows follow the original rows. The missing set must be a nonempty proper
    subset of the feature indices.
    """
    missing = sorted(set(int(i) for i in missing_set))
    if not missing:
        raise ValidationError("missing_set must name at least one feature")
    d = dataset.n_features
    if any(i < 0 or i >= d for i in missing):
        raise ValidationError(f"missing_set entries must be in [0, {d}), got {missing}")
    if len(missing) == d:
        raise ValidationError("missing_set must be a proper subset; zeroing every feature is not a task")

    new_id = max(dataset.environment_ids) + 1
    shifted = dataset.features.copy()
    shifted[:, missing] = 0.0
    manifest = json.loads(json.dumps(dataset.manifest))
    manifest["environments"] = manifest["environments"] + [
        {"id": int(new_id), "name": "missing_" + "_".join(str(i) for i in missing),
         "params": {"missing_features": missing, "source_envs": dataset.environment_ids}}
    ]
    return EnvDataset(
        np.vstack([dataset.features, shifted]),
        np.concatenate([dataset.labels, dataset.labels]),
        np.concatenate([dataset.env_ids, np.full(shifted.shape[0], new_id, dtype=np.int64)]),
        manifest,
    )


def gen_multienv_task(num_envs: int, n_core: int, n_spurious: int, spurious_flip_per_env: float, n_per_env: int,
                      seed: int, *, n_inert: int) -> EnvDataset:
    """Binary task over num_envs environments with core and spurious features.

    Core feature i is (2y-1) * CORE_SCALE plus Gaussian noise of standard
    deviation CORE_NOISE * CORE_SCALE: individually weak but predictive in
    every environment. Spurious feature j is (2y-1) * coeff_e plus uniform
    jitter of at most SPURIOUS_JITTER * SPURIOUS_SCALE, where

        coeff_e = SPURIOUS_SCALE * (1 - 2 * flip)   in the last environment
        coeff_e = SPURIOUS_SCALE                    everywhere else

    with flip = spurious_flip_per_env. flip 0 makes all environments
    identically distributed; flip 1 fully reverses the spurious group in
    the last environment, so the leave-last-out split trains on a perfectly
    consistent bait that betrays the model at test time, while the other
    splits see the reversed environment during training and are only mildly
    shifted.

    n_inert label-free noise columns, distributed like core noise, sit
    between the core and spurious columns (layout [core | inert | spurious]).
    At n_core=N_CORE, n_inert=N_GIVEAWAY and n_spurious=N_SPURIOUS (the
    gen-data defaults) the task has the pretraining corpus's layout, and the
    inert columns sit where the corpus's giveaway columns do, so the value of
    a representation that kept *every* upstream feature (rather than
    summaries sufficient upstream) is measurable downstream.
    """
    if num_envs < 2:
        raise ValidationError(f"num_envs must be >= 2, got {num_envs}")
    if n_core < 1 or n_spurious < 0 or n_inert < 0 or n_per_env < 1:
        raise ValidationError(
            f"need n_core >= 1, n_spurious >= 0, n_inert >= 0, n_per_env >= 1; "
            f"got {n_core}, {n_spurious}, {n_inert}, {n_per_env}"
        )
    if not 0.0 <= spurious_flip_per_env <= 1.0:
        raise ValidationError(f"spurious_flip_per_env must be in [0, 1], got {spurious_flip_per_env}")

    rng = np.random.default_rng(seed)
    blocks, env_entries = [], []
    for e in range(num_envs):
        y = rng.integers(0, 2, size=n_per_env)
        s = _signs(y)
        core = s[:, None] * CORE_SCALE + rng.normal(0.0, CORE_NOISE * CORE_SCALE, size=(n_per_env, n_core))
        inert = rng.normal(0.0, CORE_NOISE * CORE_SCALE, size=(n_per_env, n_inert))
        sign = 1.0 - 2.0 * spurious_flip_per_env if e == num_envs - 1 else 1.0
        coeff = np.full(n_spurious, SPURIOUS_SCALE * sign)
        jit = rng.uniform(-SPURIOUS_JITTER, SPURIOUS_JITTER, size=(n_per_env, n_spurious)) * SPURIOUS_SCALE
        spur = s[:, None] * coeff[None, :] + jit
        blocks.append((np.hstack([core, inert, spur]), y))
        env_entries.append({"id": e, "name": f"env_{e}", "params": {"spurious_coeff": [float(c) for c in coeff]}})

    manifest = {
        "schema_version": 1,
        "task": "multienv",
        "seed": int(seed),
        "n_features": int(n_core + n_inert + n_spurious),
        "num_classes": 2,
        "params": {
            "num_envs": int(num_envs),
            "n_core": int(n_core),
            "n_inert": int(n_inert),
            "n_spurious": int(n_spurious),
            "spurious_flip_per_env": float(spurious_flip_per_env),
            "n_per_env": int(n_per_env),
            "core_scale": CORE_SCALE,
            "core_noise": CORE_NOISE,
            "spurious_scale": SPURIOUS_SCALE,
            "spurious_jitter": SPURIOUS_JITTER,
        },
        "environments": env_entries,
    }
    return _stack_envs(blocks, n_per_env, manifest)


def gen_pretrain_corpus(rich: bool, size: int, seed: int) -> EnvDataset:
    """Large single-environment corpus over the shared feature layout, 8 classes.

    Three sign latents drive the columns (even cores, odd cores, spurious)
    and the class is their joint sign pattern: a different partition of the
    generative factors than any downstream binary task, so a trunk
    pretrained here always needs a fresh head later, yet it learns clean
    detectors for core and spurious structure alike. The column layout is
    [N_CORE core | N_GIVEAWAY giveaway | N_SPURIOUS spurious]. Core columns
    carry their latent at CORE_SCALE with CORE_NOISE relative Gaussian
    noise; giveaway column k repeats core latent k at high signal-to-noise
    (GIVEAWAY_SCALE, GIVEAWAY_NOISE); spurious columns carry the third latent
    at SPURIOUS_SCALE with SPURIOUS_JITTER relative uniform jitter.

    rich=True zeroes each core and giveaway column independently with
    probability MASK_PROB (always keeping at least one live carrier per
    latent), the transformation-family analog of aggressive input erasing:
    no single carrier survives every example, so the trunk must encode all
    of them. rich=False is the same process with the mask disabled, a
    measurable subset of the rich family; without erasing, the giveaway
    shortcut starves the core detectors.
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")

    rng = np.random.default_rng(seed)
    s1 = _signs(rng.integers(0, 2, size=size))
    s2 = _signs(rng.integers(0, 2, size=size))
    s3 = _signs(rng.integers(0, 2, size=size))
    # carrier columns of core latent k: the core columns k, k + 2, ... and giveaway column k
    groups = [np.append(np.arange(k, N_CORE, 2), N_CORE + k) for k in (0, 1)]
    carrier = np.empty((size, N_CORE + N_GIVEAWAY))
    for latent, group in zip((s1, s2), groups):
        carrier[:, group] = latent[:, None]
    scales = np.repeat([CORE_SCALE, GIVEAWAY_SCALE], [N_CORE, N_GIVEAWAY])
    noises = np.repeat([CORE_NOISE * CORE_SCALE, GIVEAWAY_NOISE * GIVEAWAY_SCALE], [N_CORE, N_GIVEAWAY])
    structured = carrier * scales + rng.normal(0.0, 1.0, size=carrier.shape) * noises
    if rich:
        mask = (rng.random(structured.shape) >= MASK_PROB).astype(np.float64)
        # Guarantee each latent keeps at least one live carrier column.
        for group in groups:
            dead = mask[:, group].sum(axis=1) == 0
            if dead.any():
                keep = group[rng.integers(0, group.size, size=int(dead.sum()))]
                mask[np.flatnonzero(dead), keep] = 1.0
        structured = structured * mask
    jit = rng.uniform(-SPURIOUS_JITTER, SPURIOUS_JITTER, size=(size, N_SPURIOUS)) * SPURIOUS_SCALE
    spur = s3[:, None] * SPURIOUS_SCALE + jit
    features = np.hstack([structured, spur])
    labels = (4 * (s1 > 0) + 2 * (s2 > 0) + (s3 > 0)).astype(np.int64)

    manifest = {
        "schema_version": 1,
        "task": "pretrain",
        "seed": int(seed),
        "n_features": N_CORE + N_GIVEAWAY + N_SPURIOUS,
        "num_classes": 8,
        "params": {
            "rich": bool(rich),
            "size": int(size),
            "n_core": N_CORE,
            "n_giveaway": N_GIVEAWAY,
            "n_spurious": N_SPURIOUS,
            "core_scale": CORE_SCALE,
            "core_noise": CORE_NOISE,
            "giveaway_scale": GIVEAWAY_SCALE,
            "giveaway_noise": GIVEAWAY_NOISE,
            "spurious_scale": SPURIOUS_SCALE,
            "transformation_family": {
                "kind": "carrier_column_erasing",
                "mask_prob": MASK_PROB if rich else 0.0,
            },
        },
        "environments": [{"id": 0, "name": "pretrain", "params": {}}],
    }
    return EnvDataset(features, labels, np.zeros(size, dtype=np.int64), manifest)


def gen_xor_task(num_envs: int, n_per_env: int, seed: int) -> EnvDataset:
    """Parity task: label = [u1 * u2 > 0] with u1, u2 sign latents.

    The first XOR_PAIRS columns carry u1, the next XOR_PAIRS carry u2, both
    with Gaussian noise of standard deviation XOR_NOISE. No linear function
    of the inputs beats chance, so learning this from a random
    initialization requires building feature combinations. Environments are
    identically distributed except the last, where the noise is multiplied
    by XOR_SHIFT_NOISE_MULT: the shifted test distribution.
    """
    if num_envs < 2:
        raise ValidationError(f"num_envs must be >= 2, got {num_envs}")
    if n_per_env < 1:
        raise ValidationError(f"n_per_env must be >= 1, got {n_per_env}")

    rng = np.random.default_rng(seed)
    blocks = []
    for e in range(num_envs):
        u1 = _signs(rng.integers(0, 2, size=n_per_env))
        u2 = _signs(rng.integers(0, 2, size=n_per_env))
        mult = XOR_SHIFT_NOISE_MULT if e == num_envs - 1 else 1.0
        a = u1[:, None] + rng.normal(0.0, XOR_NOISE * mult, size=(n_per_env, XOR_PAIRS))
        b = u2[:, None] + rng.normal(0.0, XOR_NOISE * mult, size=(n_per_env, XOR_PAIRS))
        blocks.append((np.hstack([a, b]), ((u1 * u2) > 0).astype(np.int64)))
    manifest = {
        "schema_version": 1,
        "task": "xor",
        "seed": int(seed),
        "n_features": 2 * XOR_PAIRS,
        "num_classes": 2,
        "params": {
            "num_envs": int(num_envs),
            "n_per_env": int(n_per_env),
            "n_pairs": XOR_PAIRS,
            "carrier_noise": XOR_NOISE,
            "shift_noise_mult": XOR_SHIFT_NOISE_MULT,
        },
        "environments": [
            {"id": e, "name": f"env_{e}", "params": {"noise_mult": XOR_SHIFT_NOISE_MULT if e == num_envs - 1 else 1.0}}
            for e in range(num_envs)
        ],
    }
    return _stack_envs(blocks, n_per_env, manifest)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


_BLOCK_ROWS = 4096  # rows saved or parsed at a time
_POOL_MIN_ROWS = 12_288  # three blocks; below, forking the pool costs more than it saves


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _format_block(dataset: EnvDataset, row: str, block: np.ndarray) -> str:
    """CSV text of the rows `block` indexes, formatted from whole columns with one row template."""
    # the Python floats and row strings cost ~2.4 KB per row while alive, hence blocks
    columns = dataset.features[block].T.tolist()
    columns += [dataset.labels[block].tolist(), dataset.env_ids[block].tolist()]
    return "".join(row % values for values in zip(*columns))


_SAVE_INPUTS: dict = {}  # in a save pool worker: the dataset and the row template


def _init_save_worker(dataset: EnvDataset, row: str) -> None:
    """Hand a save pool worker the dataset once, so a task carries only its block's row indices."""
    _SAVE_INPUTS.update(dataset=dataset, row=row)


def _format_pooled_block(block: np.ndarray) -> str:
    return _format_block(_SAVE_INPUTS["dataset"], _SAVE_INPUTS["row"], block)


def save_dataset(dataset: EnvDataset, directory) -> None:
    """Write manifest.json plus one env_<id>.csv per environment.

    CSV columns are f0..f{d-1},label,env_id with LF line endings and floats
    at 17 significant digits, so load_dataset reproduces the arrays exactly
    (environments concatenated in manifest order). Rows are formatted from
    whole columns with one row template, a block of rows at a time. A
    dataset of more than _POOL_MIN_ROWS rows has its blocks formatted by a
    process pool with one worker per CPU the process may use, and the text
    is written in block order, so the bytes do not depend on the CPU count.
    A pool worker that dies raises RunError.
    """
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dataset.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    d = dataset.n_features
    header = ",".join([f"f{i}" for i in range(d)] + ["label", "env_id"]) + "\n"
    row = "%.17g," * d + "%d,%d\n"  # %-formatting and f"{v:.17g}" share one float formatter
    envs = [(env_id, dataset.env_indices(env_id)) for env_id in dataset.environment_ids]
    blocks = [idx[start:start + _BLOCK_ROWS]
              for _, idx in envs for start in range(0, idx.size, _BLOCK_ROWS)]
    workers = min(_cpus(), len(blocks))
    if dataset.labels.size > _POOL_MIN_ROWS and workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_save_worker,
                                     initargs=(dataset, row)) as pool:
                _write_env_files(directory, header, envs, pool.map(_format_pooled_block, blocks))
        except BrokenExecutor as exc:
            raise RunError(f"a save pool worker died: {exc}") from exc
    else:
        _write_env_files(directory, header, envs, (_format_block(dataset, row, block) for block in blocks))


def _write_env_files(directory, header: str, envs, texts) -> None:
    """One env_<id>.csv per (env_id, row indices) in envs: the header, then that environment's block texts."""
    for env_id, idx in envs:
        with open(os.path.join(directory, f"env_{env_id}.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            for _ in range(0, idx.size, _BLOCK_ROWS):
                fh.write(next(texts))


# loadtxt's row errors: it counts a bad value's row from 0 and a bad column count's from 1
_BAD_VALUE = re.compile(r"(?P<what>.+) at row (?P<row>\d+), column (?P<column>\d+)\.", re.S)
_BAD_WIDTH = re.compile(r"the dtype passed requires (?P<want>\d+) columns but (?P<got>\d+) were found "
                        r"at row (?P<row>\d+);.*", re.S)


def _row_error(message: str, at: int) -> str:
    """loadtxt's error for a block of data rows at + 1, ..., naming the file's 1-based data row."""
    if match := _BAD_VALUE.fullmatch(message):
        return f"data row {at + int(match['row']) + 1}, column {match['column']}: {match['what']}"
    if match := _BAD_WIDTH.fullmatch(message):
        return f"data row {at + int(match['row'])} has {match['got']} columns, expected {match['want']}"
    return f"{message} (rows counted within the block from data row {at + 1})"


def load_dataset(directory) -> EnvDataset:
    """Read a dataset directory written by save_dataset.

    A first pass counts each env file's data rows; the arrays are then
    allocated once and each file is parsed by np.loadtxt in blocks of
    _BLOCK_ROWS rows straight into them, so loading peaks at about the
    arrays' size plus one block. loadtxt rounds decimal strings to float64
    exactly as float() does. Blank lines after the first data row are
    skipped. A row with the wrong column count, a non-numeric feature, a
    non-integer label or env id, or an env id other than its file's raises
    FormatError naming the file and the data row, counted from 1 over the
    non-blank lines after the header, whatever the error. A header-only
    file is an environment with no rows. Every manifest environment needs a
    unique integer "id"; otherwise FormatError names manifest.json.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FormatError(f"no manifest.json in {directory}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"manifest.json is not valid JSON: {exc}") from exc
    if "environments" not in manifest or "n_features" not in manifest:
        raise FormatError("manifest.json is missing 'environments' or 'n_features'")

    d = manifest["n_features"]
    if type(d) is not int or d < 0:
        raise FormatError(f"manifest.json: n_features must be a non-negative integer, got {d!r}")
    envs = manifest["environments"]
    if not isinstance(envs, list):
        raise FormatError(f"manifest.json: environments must be a list, got {envs!r}")
    seen = set()
    for env in envs:
        if not isinstance(env, dict) or type(env.get("id")) is not int:
            raise FormatError(f"manifest.json: environment {env!r} needs an integer 'id'")
        if env["id"] in seen:
            raise FormatError(f"manifest.json: environment id {env['id']} is listed twice")
        seen.add(env["id"])
    expected_header = ",".join([f"f{i}" for i in range(d)] + ["label", "env_id"])
    files = []  # (path, env id, data rows)
    for env in envs:
        path = os.path.join(directory, f"env_{env['id']}.csv")
        if not os.path.exists(path):
            raise FormatError(f"manifest names environment {env['id']} but env_{env['id']}.csv is missing")
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != expected_header:
                raise FormatError(f"{path}: header {header!r} does not match manifest feature count {d}")
            first = fh.readline()
            if first == "\n":
                raise FormatError(f"{path}:2: empty line where a row was expected")
            files.append((path, env["id"], bool(first) + sum(line != "\n" for line in fh)))
    n = sum(rows for _, _, rows in files)
    features, labels, env_ids = np.empty((n, d)), np.empty(n, np.int64), np.empty(n, np.int64)
    row_dtype = np.dtype([("f", np.float64, (d,)), ("label", np.int64), ("env_id", np.int64)])
    end = 0
    for path, env_id, rows in files:
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            lines = filter("\n".__ne__, fh)  # loadtxt would warn about each blank line under max_rows
            for at in range(0, rows, _BLOCK_ROWS):
                span = slice(end + at, end + min(at + _BLOCK_ROWS, rows))
                try:
                    block = np.loadtxt(lines, dtype=row_dtype, delimiter=",", comments=None, ndmin=1,
                                       max_rows=span.stop - span.start)
                except ValueError as exc:
                    raise FormatError(f"{path}: {_row_error(str(exc), at)}") from exc
                stray = np.flatnonzero(block["env_id"] != env_id)
                if stray.size:
                    raise FormatError(f"{path}: data row {at + stray[0] + 1} has env_id "
                                      f"{block['env_id'][stray[0]]}, expected {env_id}")
                features[span], labels[span] = block["f"], block["label"]
                del block  # before loadtxt allocates the next one
        env_ids[end:end + rows] = env_id
        end += rows
    return EnvDataset(features, labels, env_ids, manifest)
