"""Time finedrop's eval kernel and stacked training step at fixed shapes.

    python3 tools/kernel_timing.py [--repeats N]

Prints one JSON line per measurement, each the minimum over N repeats (default
7) of a timed loop, with BLAS pinned to one thread before numpy is imported:

- `predict_proba`: ns per row on 1200 and 2000 rows (a sweep's holdout and
  test environment) of a width-16 depth-2 model with 2 and with 8 classes;
- `class_max_sum`: us for the softmax's row max plus row sum over the classes
  of one 512-row eval chunk, as numpy reductions (`reduce`) and through
  `models._reduce_classes` (`models`; left out on a tree without it);
- `stacked_step`: us for `StackedStep.forward` plus `.backward` of K = 1, 6
  and 12 models at the sweep's shape (input 18, width 16, depth 2, 2 classes,
  batch 32), at dropout rates 0 and 0.9.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import timeit

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from finedrop import models  # noqa: E402
from finedrop.regularizers import batch_dropout_mask  # noqa: E402

INPUT, WIDTH, DEPTH, BATCH = 18, 16, 2, 32


def best_seconds(fn, repeats: int, number: int) -> float:
    """Seconds per call of fn: the fastest of `repeats` loops of `number` calls."""
    return min(timeit.repeat(fn, number=number, repeat=repeats)) / number


def emit(**fields) -> None:
    print(json.dumps(fields, sort_keys=True), flush=True)


def trained_like(model, rng):
    """A model with nonzero second layers and biases, as training leaves it."""
    for blk in model.blocks:
        blk.w2.data[...] = rng.uniform(-0.25, 0.25, size=blk.w2.shape)
        blk.b1.data[...] = 0.1 * rng.normal(size=blk.b1.shape)
        blk.b2.data[...] = 0.1 * rng.normal(size=blk.b2.shape)
    return model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed loops per measurement; the minimum is kept")
    repeats = parser.parse_args(argv).repeats
    rng = np.random.default_rng(0)
    for classes in (2, 8):
        model = trained_like(models.new_residual_model(INPUT, WIDTH, DEPTH, classes, seed=0), rng)
        for rows in (1200, 2000):
            x = rng.normal(size=(rows, INPUT))
            seconds = best_seconds(lambda: model.predict_proba(x), repeats, 20)
            emit(measure="predict_proba", classes=classes, rows=rows, ns_per_row=round(seconds / rows * 1e9, 1))
    fold = getattr(models, "_reduce_classes", None)
    for classes in (2, 8):
        p = rng.normal(size=(models.EVAL_CHUNK_ROWS, classes))
        top, total = np.empty((len(p), 1)), np.empty((len(p), 1))
        kernels = {"reduce": lambda: (np.maximum.reduce(p, -1, keepdims=True, out=top),
                                      np.add.reduce(p, -1, keepdims=True, out=total))}
        if fold is not None:
            kernels["models"] = lambda: (fold(np.maximum, p, top), fold(np.add, p, total))
        for how, fn in kernels.items():
            emit(measure="class_max_sum", classes=classes, rows=len(p), how=how,
                 us=round(best_seconds(fn, repeats, 200) * 1e6, 2))
    for k in (1, 6, 12):
        for rate in (0.0, 0.9):
            group = [trained_like(models.new_residual_model(INPUT, WIDTH, DEPTH, 2, seed=i), rng) for i in range(k)]
            step = models.StackedStep(group, BATCH, rate)
            step.x[...], step.labels[...] = rng.normal(size=step.x.shape), rng.integers(0, 2, size=step.labels.shape)
            for i in range(k if rate > 0 else 0):
                batch_dropout_mask(BATCH, WIDTH, rate, rng, out=step.mask[i])
            seconds = best_seconds(lambda: (step.forward(), step.backward()), repeats, 100)
            emit(measure="stacked_step", k=k, rate=rate, us=round(seconds * 1e6, 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
