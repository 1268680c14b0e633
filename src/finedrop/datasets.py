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

Datasets persist as one CSV per environment plus a JSON manifest; floats
are written with 17 significant digits so round trips are exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError

__all__ = [
    "EnvDataset",
    "EnvSplit",
    "leave_one_out_splits",
    "gen_redundant_features",
    "make_missing_feature_env",
    "gen_multienv_task",
    "gen_pretrain_corpus",
    "save_dataset",
    "load_dataset",
]


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
        declared = {env["id"] for env in self.manifest.get("environments", [])}
        present = set(int(e) for e in np.unique(self.env_ids))
        if not present <= declared:
            raise ValidationError(f"env ids {sorted(present - declared)} missing from manifest")

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
    holdout_fraction: float = 0.20

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
        if self.test_env in self.train_envs:
            raise ValidationError(f"test env {self.test_env} must not appear in train envs")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValidationError(f"holdout fraction must be in (0, 1), got {self.holdout_fraction}")


def leave_one_out_splits(dataset: EnvDataset, holdout_fraction: float = 0.20) -> list[EnvSplit]:
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


def gen_redundant_features(
    n_features: int,
    n_samples: int,
    label_noise: float,
    seed: int,
    scales=None,
    jitter: float = 0.3,
) -> EnvDataset:
    """One environment where every feature individually predicts the label.

    Feature i is (2y-1) * scale_i plus bounded jitter (at most `jitter`
    times the scale), so with label_noise 0 each single-feature sign
    classifier is perfect. The default scales make feature 0 four times
    stronger than the rest: the bait a plain gradient method takes while
    the redundant features starve. label_noise flips that fraction of the
    observed labels after the features are generated.
    """
    if n_features < 2:
        raise ValidationError(f"n_features must be >= 2, got {n_features}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 <= label_noise < 0.5:
        raise ValidationError(f"label_noise must be in [0, 0.5), got {label_noise}")
    if not 0.0 <= jitter < 1.0:
        raise ValidationError(f"jitter must be in [0, 1) to keep per-feature signs, got {jitter}")
    if scales is None:
        scales = np.array([4.0] + [1.0] * (n_features - 1))
    scales = np.asarray(scales, dtype=np.float64)
    if scales.shape != (n_features,) or np.any(scales <= 0):
        raise ValidationError(f"scales must be {n_features} positive values")

    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 2, size=n_samples)
    s = _signs(y_true)
    noise = rng.uniform(-jitter, jitter, size=(n_samples, n_features))
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
            "jitter": float(jitter),
            "scales": [float(v) for v in scales],
        },
        "environments": [{"id": 0, "name": "base", "params": {}}],
    }
    return EnvDataset(x, labels, np.zeros(n_samples, dtype=np.int64), manifest)


def make_missing_feature_env(dataset: EnvDataset, missing_set, env_name: str | None = None) -> EnvDataset:
    """Copy of a dataset with the listed feature columns zeroed, as a new environment.

    Models the shifted test distribution where some inputs simply vanish.
    The missing set must be a nonempty proper subset of the feature indices.
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
    name = env_name or "missing_" + "_".join(str(i) for i in missing)
    features = dataset.features.copy()
    features[:, missing] = 0.0
    manifest = json.loads(json.dumps(dataset.manifest))
    manifest["environments"] = manifest["environments"] + [
        {
            "id": int(new_id),
            "name": name,
            "params": {"missing_features": missing, "source_envs": dataset.environment_ids},
        }
    ]
    env_ids = np.full(features.shape[0], new_id, dtype=np.int64)
    return EnvDataset(features, dataset.labels.copy(), env_ids, manifest)


def gen_multienv_task(
    num_envs: int,
    n_core: int,
    n_spurious: int,
    spurious_flip_per_env: float,
    n_per_env: int,
    seed: int,
    core_scale: float = 1.0,
    core_noise: float = 1.2,
    spurious_scale: float = 3.0,
    spurious_jitter: float = 0.3,
    n_inert: int = 0,
) -> EnvDataset:
    """Binary task over num_envs environments with core and spurious features.

    Core feature i is (2y-1) * core_scale plus Gaussian noise: individually
    weak but predictive in every environment. Spurious feature j is
    (2y-1) * coeff_e + bounded jitter, where

        coeff_e = spurious_scale * (1 - 2 * flip)   in the last environment
        coeff_e = spurious_scale                    everywhere else

    with flip = spurious_flip_per_env. flip 0 makes all environments
    identically distributed; flip 1 fully reverses the spurious group in
    the last environment, so the leave-last-out split trains on a perfectly
    consistent bait that betrays the model at test time, while the other
    splits see the reversed environment during training and are only mildly
    shifted.

    n_inert label-free noise columns sit between the core and spurious
    columns (layout [core | inert | spurious]). They match a pretraining
    corpus whose structured columns outnumber the downstream task's
    predictive ones, so the value of a representation that kept *every*
    upstream feature (rather than summaries sufficient upstream) is
    measurable downstream.
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
    env_blocks = []
    env_entries = []
    for e in range(num_envs):
        y = rng.integers(0, 2, size=n_per_env)
        s = _signs(y)
        core = s[:, None] * core_scale + rng.normal(0.0, core_noise * core_scale, size=(n_per_env, n_core))
        inert = rng.normal(0.0, core_noise * core_scale, size=(n_per_env, n_inert))
        sign = 1.0 - 2.0 * spurious_flip_per_env if e == num_envs - 1 else 1.0
        coeff = np.full(n_spurious, spurious_scale * sign)
        jit = rng.uniform(-spurious_jitter, spurious_jitter, size=(n_per_env, n_spurious)) * spurious_scale
        spur = s[:, None] * coeff[None, :] + jit
        env_blocks.append((np.hstack([core, inert, spur]), y, np.full(n_per_env, e, dtype=np.int64)))
        env_entries.append(
            {
                "id": e,
                "name": f"env_{e}",
                "params": {"spurious_coeff": [float(c) for c in coeff]},
            }
        )

    features = np.vstack([b[0] for b in env_blocks])
    labels = np.concatenate([b[1] for b in env_blocks])
    env_ids = np.concatenate([b[2] for b in env_blocks])
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
            "core_scale": float(core_scale),
            "core_noise": float(core_noise),
            "spurious_scale": float(spurious_scale),
            "spurious_jitter": float(spurious_jitter),
        },
        "environments": env_entries,
    }
    return EnvDataset(features, labels, env_ids, manifest)


def gen_pretrain_corpus(
    rich: bool,
    size: int,
    seed: int,
    n_core: int = 12,
    n_giveaway: int = 2,
    n_spurious: int = 4,
    core_scale: float = 1.0,
    core_noise: float = 1.2,
    giveaway_scale: float = 3.0,
    giveaway_noise: float = 0.2,
    spurious_scale: float = 3.0,
    spurious_jitter: float = 0.3,
    mask_prob: float = 0.5,
) -> EnvDataset:
    """Large single-environment corpus over the shared feature space, 8 classes.

    Three sign latents drive the columns (even cores, odd cores, spurious)
    and the class is their joint sign pattern: a different partition of the
    generative factors than any downstream binary task, so a trunk
    pretrained here always needs a fresh head later, yet it learns clean
    detectors for core and spurious structure alike. Giveaway column k
    repeats latent k at high signal-to-noise, column layout
    [core | giveaway | spurious].

    rich=True zeroes each core and giveaway column independently with
    probability mask_prob (always keeping at least one live carrier per
    latent), the transformation-family analog of aggressive input erasing:
    no single carrier survives every example, so the trunk must encode all
    of them. rich=False is the same process with the mask disabled, a
    measurable subset of the rich family; without erasing, the giveaway
    shortcut starves the core detectors.
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    if n_core < 2:
        raise ValidationError(f"n_core must be >= 2 to split over two latents, got {n_core}")
    if n_giveaway not in (0, 2):
        raise ValidationError(f"n_giveaway must be 0 or 2 (one per core latent), got {n_giveaway}")
    if n_spurious < 1:
        raise ValidationError(f"n_spurious must be >= 1, got {n_spurious}")
    if not 0.0 <= mask_prob < 1.0:
        raise ValidationError(f"mask_prob must be in [0, 1), got {mask_prob}")

    rng = np.random.default_rng(seed)
    s1 = _signs(rng.integers(0, 2, size=size))
    s2 = _signs(rng.integers(0, 2, size=size))
    s3 = _signs(rng.integers(0, 2, size=size))
    even = np.arange(0, n_core, 2)
    odd = np.arange(1, n_core, 2)
    carrier = np.empty((size, n_core + n_giveaway))
    carrier[:, even] = s1[:, None]
    carrier[:, odd] = s2[:, None]
    scales = np.full(n_core + n_giveaway, core_scale)
    noises = np.full(n_core + n_giveaway, core_noise * core_scale)
    groups = [even, odd]
    if n_giveaway == 2:
        carrier[:, n_core] = s1
        carrier[:, n_core + 1] = s2
        scales[n_core:] = giveaway_scale
        noises[n_core:] = giveaway_noise * giveaway_scale
        groups = [np.append(even, n_core), np.append(odd, n_core + 1)]
    structured = carrier * scales + rng.normal(0.0, 1.0, size=carrier.shape) * noises
    if rich:
        mask = (rng.random(structured.shape) >= mask_prob).astype(np.float64)
        # Guarantee each latent keeps at least one live carrier column.
        for group in groups:
            dead = mask[:, group].sum(axis=1) == 0
            if dead.any():
                keep = group[rng.integers(0, group.size, size=int(dead.sum()))]
                mask[np.flatnonzero(dead), keep] = 1.0
        structured = structured * mask
    jit = rng.uniform(-spurious_jitter, spurious_jitter, size=(size, n_spurious)) * spurious_scale
    spur = s3[:, None] * spurious_scale + jit
    features = np.hstack([structured, spur])
    labels = (4 * (s1 > 0) + 2 * (s2 > 0) + (s3 > 0)).astype(np.int64)

    manifest = {
        "schema_version": 1,
        "task": "pretrain",
        "seed": int(seed),
        "n_features": int(n_core + n_giveaway + n_spurious),
        "num_classes": 8,
        "params": {
            "rich": bool(rich),
            "size": int(size),
            "n_core": int(n_core),
            "n_giveaway": int(n_giveaway),
            "n_spurious": int(n_spurious),
            "core_scale": float(core_scale),
            "core_noise": float(core_noise),
            "giveaway_scale": float(giveaway_scale),
            "giveaway_noise": float(giveaway_noise),
            "spurious_scale": float(spurious_scale),
            "transformation_family": {
                "kind": "carrier_column_erasing",
                "mask_prob": float(mask_prob) if rich else 0.0,
            },
        },
        "environments": [{"id": 0, "name": "pretrain", "params": {}}],
    }
    return EnvDataset(features, labels, np.zeros(size, dtype=np.int64), manifest)


def gen_xor_task(
    num_envs: int,
    n_per_env: int,
    seed: int,
    n_pairs: int = 6,
    carrier_noise: float = 0.5,
    shift_noise_mult: float = 1.6,
) -> EnvDataset:
    """Parity task: label = [u1 * u2 > 0] with u1, u2 sign latents.

    The first n_pairs columns carry u1, the next n_pairs carry u2, both
    with Gaussian noise. No linear function of the inputs beats chance, so
    learning this from a random initialization requires building feature
    combinations. Environments are identically distributed except the last,
    where the noise is multiplied by shift_noise_mult: the shifted test
    distribution.
    """
    if num_envs < 2:
        raise ValidationError(f"num_envs must be >= 2, got {num_envs}")
    if n_per_env < 1 or n_pairs < 1:
        raise ValidationError(f"need n_per_env >= 1 and n_pairs >= 1, got {n_per_env}, {n_pairs}")

    rng = np.random.default_rng(seed)
    blocks = []
    for e in range(num_envs):
        u1 = _signs(rng.integers(0, 2, size=n_per_env))
        u2 = _signs(rng.integers(0, 2, size=n_per_env))
        mult = shift_noise_mult if e == num_envs - 1 else 1.0
        a = u1[:, None] + rng.normal(0.0, carrier_noise * mult, size=(n_per_env, n_pairs))
        b = u2[:, None] + rng.normal(0.0, carrier_noise * mult, size=(n_per_env, n_pairs))
        y = ((u1 * u2) > 0).astype(np.int64)
        blocks.append((np.hstack([a, b]), y, np.full(n_per_env, e, dtype=np.int64)))
    manifest = {
        "schema_version": 1,
        "task": "xor",
        "seed": int(seed),
        "n_features": int(2 * n_pairs),
        "num_classes": 2,
        "params": {
            "num_envs": int(num_envs),
            "n_per_env": int(n_per_env),
            "n_pairs": int(n_pairs),
            "carrier_noise": float(carrier_noise),
            "shift_noise_mult": float(shift_noise_mult),
        },
        "environments": [
            {
                "id": e,
                "name": f"env_{e}",
                "params": {"noise_mult": float(shift_noise_mult) if e == num_envs - 1 else 1.0},
            }
            for e in range(num_envs)
        ],
    }
    return EnvDataset(
        np.vstack([b[0] for b in blocks]),
        np.concatenate([b[1] for b in blocks]),
        np.concatenate([b[2] for b in blocks]),
        manifest,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


_WRITE_BLOCK_ROWS = 4096


def save_dataset(dataset: EnvDataset, directory) -> None:
    """Write manifest.json plus one env_<id>.csv per environment.

    CSV columns are f0..f{d-1},label,env_id with LF line endings and floats
    at 17 significant digits, so load_dataset reproduces the arrays exactly
    (environments concatenated in manifest order). Rows are formatted from
    whole columns with one row template, a block of rows per write.
    """
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dataset.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    d = dataset.n_features
    header = ",".join([f"f{i}" for i in range(d)] + ["label", "env_id"]) + "\n"
    row = "%.17g," * d + "%d,%d\n"  # %-formatting and f"{v:.17g}" share one float formatter
    for env_id in dataset.environment_ids:
        idx = dataset.env_indices(env_id)
        with open(os.path.join(directory, f"env_{env_id}.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            # a block at a time: the Python floats and row strings cost ~2.4 KB per row while alive
            for start in range(0, idx.size, _WRITE_BLOCK_ROWS):
                block = idx[start:start + _WRITE_BLOCK_ROWS]
                columns = dataset.features[block].T.tolist()
                columns += [dataset.labels[block].tolist(), dataset.env_ids[block].tolist()]
                fh.write("".join(row % values for values in zip(*columns)))


def load_dataset(directory) -> EnvDataset:
    """Read a dataset directory written by save_dataset.

    Each env file's rows are parsed in one np.loadtxt pass, which rounds
    decimal strings to float64 exactly as float() does. A row with the wrong
    column count, a non-numeric feature, a non-integer label or env id, or
    an env id other than its file's raises FormatError naming the file. A
    header-only file is an environment with no rows.
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
    expected_header = ",".join([f"f{i}" for i in range(d)] + ["label", "env_id"])
    row_dtype = np.dtype([("f", np.float64, (d,)), ("label", np.int64), ("env_id", np.int64)])
    parts = [np.empty(0, row_dtype)]
    for env in manifest["environments"]:
        path = os.path.join(directory, f"env_{env['id']}.csv")
        if not os.path.exists(path):
            raise FormatError(f"manifest names environment {env['id']} but env_{env['id']}.csv is missing")
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != expected_header:
                raise FormatError(f"{path}: header {header!r} does not match manifest feature count {d}")
            start = fh.tell()
            first = fh.readline()
            if not first:  # header only: no rows, and no loadtxt "no data" warning
                continue
            if not first.rstrip("\r\n"):
                raise FormatError(f"{path}:2: empty line where a row was expected")
            fh.seek(start)
            try:
                rows = np.loadtxt(fh, dtype=row_dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from exc
        stray = np.flatnonzero(rows["env_id"] != env["id"])
        if stray.size:
            raise FormatError(
                f"{path}: data row {stray[0] + 1} has env_id {rows['env_id'][stray[0]]}, expected {env['id']}"
            )
        parts.append(rows)
    # concatenating each field copies it out of the row records into its own contiguous array
    return EnvDataset(np.concatenate([p["f"] for p in parts]), np.concatenate([p["label"] for p in parts]),
                      np.concatenate([p["env_id"] for p in parts]), manifest)
