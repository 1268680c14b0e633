"""Inverted dropout at arbitrary rates, and linear-case oracles.

Inverted dropout multiplies a representation by a 0/1 Bernoulli mask and
rescales the survivors by 1/(1-rate) at train time, so evaluation is a
plain identity. Rates up to but excluding 1 are supported; the whole point
of the toolkit is rates around 0.9 and above.

For a linear predictor under squared loss, the expected loss under dropout
has a closed form:

    E[(y - w.(m*x)/(1-rate))^2] = (y - w.x)^2 + rate/(1-rate) * sum_i w_i^2 x_i^2

which this module exposes alongside an exact 2^n enumeration of all masks,
and a feature-bagging ensemble, so the dropout / L2 / bagging equivalence
can be checked numerically rather than taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CapacityError, UsageError, ValidationError

__all__ = [
    "DropoutSpec",
    "dropout_mask",
    "batch_dropout_mask",
    "apply_inverted_dropout",
    "expected_dropout_loss_enumerated",
    "expected_dropout_loss_closed_form",
    "feature_bagging_ensemble",
    "FeatureBaggingEnsemble",
]


def _validate_rate(rate: float) -> float:
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ValidationError(
            f"dropout rate must be in [0, 1), got {rate}"
            + (" (rate 1 makes the 1/(1-rate) rescale undefined)" if rate == 1.0 else "")
        )
    return rate


@dataclass
class DropoutSpec:
    """Rate, mode, and the rng stream masks are drawn from.

    Each DropoutSpec owns its stream: two specs with the same seed produce the same
    masks in the same order, and nothing else consumes from that stream.
    """

    rate: float
    mode: str = "train"
    rng: np.random.Generator | None = None

    def __post_init__(self):
        self.rate = _validate_rate(self.rate)
        if self.mode not in ("train", "eval"):
            raise ValidationError(f"mode must be 'train' or 'eval', got {self.mode!r}")

    @classmethod
    def seeded(cls, rate: float, seed: int) -> "DropoutSpec":
        return cls(rate=rate, rng=np.random.default_rng(seed))

    @property
    def active(self) -> bool:
        """True when masks will actually be drawn and applied."""
        return self.mode == "train" and self.rate > 0.0

    def _require_rng(self) -> np.random.Generator:
        if self.rng is None:
            raise UsageError("DropoutSpec needs an rng in train mode with rate > 0")
        return self.rng


def dropout_mask(dim: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Length-dim 0/1 vector; each entry is 0 with probability `rate`.

    Consumes exactly `dim` uniform draws from rng, in index order, so mask
    streams are bit-reproducible and position-accountable: it is the one
    row of a one-row `batch_dropout_mask`.
    """
    return batch_dropout_mask(1, dim, rate, rng)[0]


def batch_dropout_mask(n_rows: int, dim: int, rate: float, rng: np.random.Generator,
                       out: np.ndarray | None = None) -> np.ndarray:
    """[n_rows, dim] mask with a fresh, independent mask per row.

    Draw order is row-major, i.e. identical to calling dropout_mask once
    per row in row order. The uniforms are drawn into the mask array and
    compared in place. out, a C-contiguous float64 [n_rows, dim] array,
    is that array when given, so a caller's buffer gets the same draws and
    the same 0/1 values with no allocation.
    """
    if n_rows < 1:
        raise ValidationError(f"n_rows must be >= 1, got {n_rows}")
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    rate = _validate_rate(rate)
    if out is None:
        out = np.empty((n_rows, dim))
    elif out.shape != (n_rows, dim) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a C-contiguous float64 array of shape {(n_rows, dim)}, "
                              f"got {out.dtype} {out.shape}")
    rng.random(out=out)
    return np.greater_equal(out, rate, out=out)


def apply_inverted_dropout(phi: np.ndarray, spec: DropoutSpec) -> np.ndarray:
    """mask * phi / (1 - rate) in train mode; the identity in eval mode.

    Train-time rescaling makes the masked output an unbiased estimate of
    phi, so eval needs no correction. Eval mode (and rate 0) returns phi
    itself, bit-identical, and draws nothing from the rng stream. For 2-D
    input every row gets its own mask.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if not spec.active:
        return phi
    rng = spec._require_rng()
    if phi.ndim == 1:
        mask = dropout_mask(phi.shape[0], spec.rate, rng)
    elif phi.ndim == 2:
        mask = batch_dropout_mask(phi.shape[0], phi.shape[1], spec.rate, rng)
    else:
        raise ValidationError(f"expected a vector or [batch, dim] array, got shape {phi.shape}")
    return (phi * mask) * (1.0 / (1.0 - spec.rate))


def expected_dropout_loss_enumerated(w, x, y: float, rate: float) -> float:
    """Exact expected squared loss under inverted dropout, by enumerating masks.

    Sums P(mask) * (y - w.(mask*x)/(1-rate))^2 over all 2^n masks. Feature
    count is capped at 20 (about a million masks); beyond that the closed
    form is the only practical route.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if w.shape != x.shape:
        raise ValidationError(f"w and x must have the same length, got {w.shape} and {x.shape}")
    rate = _validate_rate(rate)
    n = w.shape[0]
    if n > 20:
        raise CapacityError(f"mask enumeration is capped at 20 features, got {n}")
    y = float(y)
    keep = 1.0 - rate
    total = 0.0
    for bits in range(2 ** n):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.float64)
        ones = int(mask.sum())
        prob = (rate ** (n - ones)) * (keep ** ones)
        pred = float(w @ (mask * x)) / keep
        total += prob * (y - pred) ** 2
    return total


def expected_dropout_loss_closed_form(w, x, y: float, rate: float) -> float:
    """(y - w.x)^2 + rate/(1-rate) * sum_i w_i^2 x_i^2.

    The marginalized form of the enumeration above; the two agree to
    accumulation error for every input.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if w.shape != x.shape:
        raise ValidationError(f"w and x must have the same length, got {w.shape} and {x.shape}")
    rate = _validate_rate(rate)
    y = float(y)
    resid = y - float(w @ x)
    penalty = rate / (1.0 - rate) * float(np.sum(w ** 2 * x ** 2))
    return resid ** 2 + penalty


@dataclass
class FeatureBaggingEnsemble:
    """Linear predictors trained on random feature subsets, averaged at predict time."""

    members: list = field(default_factory=list)  # (active_indices, weight_vector) pairs

    @property
    def aggregate_weights(self) -> np.ndarray:
        """Mean member weight vector; for linear members this IS the ensemble."""
        return np.mean(np.stack([w for _, w in self.members]), axis=0)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Mean of member outputs on [n, d] features."""
        features = np.asarray(features, dtype=np.float64)
        outputs = np.stack([features @ w for _, w in self.members])
        return outputs.mean(axis=0)


def feature_bagging_ensemble(
    train_fn: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    bag_size: int,
    num_bags: int,
    rng: np.random.Generator,
) -> FeatureBaggingEnsemble:
    """Train num_bags linear predictors, each on a random feature subset.

    For each bag, a uniform subset of `bag_size` feature columns is kept and
    the rest of `features` is zeroed; train_fn receives the masked [n, d]
    matrix (labels are whatever train_fn closes over) and returns a length-d
    weight vector. Weights outside the bag are forced to zero so a member
    can never leak features it was not trained on.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValidationError(f"features must be [n, d], got shape {features.shape}")
    n_features = features.shape[1]
    if not 1 <= bag_size <= n_features:
        raise ValidationError(f"bag_size must be in [1, {n_features}], got {bag_size}")
    if num_bags < 1:
        raise ValidationError(f"num_bags must be >= 1, got {num_bags}")

    members = []
    for _ in range(num_bags):
        active = np.sort(rng.choice(n_features, size=bag_size, replace=False))
        bagged = np.zeros_like(features)
        bagged[:, active] = features[:, active]
        w = np.asarray(train_fn(bagged), dtype=np.float64).reshape(-1)
        if w.shape[0] != n_features:
            raise ValidationError(
                f"train_fn must return a length-{n_features} weight vector, got {w.shape}"
            )
        kept = np.zeros_like(w)
        kept[active] = w[active]
        members.append((active, kept))
    return FeatureBaggingEnsemble(members=members)
