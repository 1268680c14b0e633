"""Time finedrop's eval kernel and stacked training step at fixed shapes.

    python3 tools/kernel_timing.py [--repeats N]

Prints one JSON line per measurement, each the minimum over N repeats (default
7) of a timed loop, with BLAS pinned to one thread before numpy is imported.
Each line also carries `slowdown`, the mean of perfbench's host-contention
probe (`perfbench/sysinfo.slowdown()`) read just before and just after the
measurement, and `corrected`, the raw figure divided by it, so runs made at
different times compare:

- `predict_proba`: ns per row on 1200 and 2000 rows (a sweep's holdout and
  test environment) of a width-16 depth-2 model with 2 and with 8 classes;
- `class_max_sum`: us for the softmax's row max plus row sum over the classes
  of one 512-row eval chunk, as numpy reductions (`reduce`) and through
  `models._reduce_classes` (`models`; left out on a tree without it);
- `stacked_step`: us for `StackedStep.forward` plus `.backward` of K = 1, 6
  and 12 models at the sweep's shape (input 18, width 16, depth 2, 2 classes,
  batch 32), at dropout rates 0 and 0.9;
- `run_tail`: us for the per-run work `protocol._train` does around the
  stacked step at that shape, each run-step: the tape node (`make_node` +
  `backward` + `reset_grads`), the `SgdOptimizer.step` of a fine-tune's
  optimizer, and one `batch_dropout_mask` draw at rate 0.9;
- `load_dataset`: ms to load the 50,000-row rich pretraining corpus, saved
  once to a temporary directory, and `peak_mib`, tracemalloc's peak during
  one more load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import timeit
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

import numpy as np  # noqa: E402

from finedrop import autodiff as ad  # noqa: E402
from finedrop import datasets  # noqa: E402
from finedrop import models  # noqa: E402
from finedrop.optim import SgdOptimizer  # noqa: E402
from finedrop.regularizers import batch_dropout_mask  # noqa: E402
from sysinfo import slowdown  # noqa: E402

INPUT, WIDTH, DEPTH, BATCH = 18, 16, 2, 32


class Timer:
    """Times calls and reads the host slowdown around each measurement."""

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.probe = slowdown()  # the latest reading: the "after" of one measurement is the "before" of the next

    def __call__(self, fn, number: int) -> tuple[float, float]:
        """Seconds per call of fn, the fastest of `repeats` loops of `number` calls, and the slowdown around it."""
        seconds = min(timeit.repeat(fn, number=number, repeat=self.repeats)) / number
        before, self.probe = self.probe, slowdown()
        return seconds, (before + self.probe) / 2


def emit(figure: str, value: float, contention: float, digits: int, **fields) -> None:
    """One JSON line: the raw figure, the slowdown around its measurement, and the figure divided by it."""
    fields.update({figure: round(value, digits), "slowdown": round(contention, 3),
                   "corrected": round(value / contention, digits)})
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
    timed = Timer(parser.parse_args(argv).repeats)
    rng = np.random.default_rng(0)
    for classes in (2, 8):
        model = trained_like(models.new_residual_model(INPUT, WIDTH, DEPTH, classes, seed=0), rng)
        for rows in (1200, 2000):
            x = rng.normal(size=(rows, INPUT))
            seconds, contention = timed(lambda: model.predict_proba(x), 20)
            emit("ns_per_row", seconds / rows * 1e9, contention, 1, measure="predict_proba", classes=classes,
                 rows=rows)
    fold = getattr(models, "_reduce_classes", None)
    for classes in (2, 8):
        p = rng.normal(size=(models.EVAL_CHUNK_ROWS, classes))
        top, total = np.empty((len(p), 1)), np.empty((len(p), 1))
        kernels = {"reduce": lambda: (np.maximum.reduce(p, -1, keepdims=True, out=top),
                                      np.add.reduce(p, -1, keepdims=True, out=total))}
        if fold is not None:
            kernels["models"] = lambda: (fold(np.maximum, p, top), fold(np.add, p, total))
        for how, fn in kernels.items():
            seconds, contention = timed(fn, 200)
            emit("us", seconds * 1e6, contention, 2, measure="class_max_sum", classes=classes, rows=len(p), how=how)
    for k in (1, 6, 12):
        for rate in (0.0, 0.9):
            group = [trained_like(models.new_residual_model(INPUT, WIDTH, DEPTH, 2, seed=i), rng) for i in range(k)]
            step = models.StackedStep(group, BATCH, rate)
            step.x[...], step.labels[...] = rng.normal(size=step.x.shape), rng.integers(0, 2, size=step.labels.shape)
            for i in range(k if rate > 0 else 0):
                batch_dropout_mask(BATCH, WIDTH, rate, rng, out=step.mask[i])
            seconds, contention = timed(lambda: (step.forward(), step.backward()), 100)
            emit("us", seconds * 1e6, contention, 1, measure="stacked_step", k=k, rate=rate)
    run_tail(rng, timed)
    load_timing(timed)
    return 0


def run_tail(rng, timed: Timer) -> None:
    """The `run_tail` lines: the work of one K = 1 run-step beside the stacked step, as `_train` does it."""
    model = trained_like(models.new_residual_model(INPUT, WIDTH, DEPTH, 2, seed=0), rng)
    step = models.StackedStep([model], BATCH, 0.9)
    step.x[...], step.labels[...] = rng.normal(size=step.x.shape), rng.integers(0, 2, size=step.labels.shape)
    batch_dropout_mask(BATCH, WIDTH, 0.9, rng, out=step.mask[0])
    loss = step.forward()[0]
    step.backward()
    grads, leaves = step.grads[0], tuple(model.parameters())
    # a fine-tune's optimizer (`protocol._finetune_group`), its schedule longer than every timed loop
    opt = SgdOptimizer({"head": model.head_parameters(), "trunk": model.trunk_parameters()}, lr=1e-3,
                       total_iterations=10**9, weight_decay=1e-4)

    def tape_node():
        ad.backward(ad.make_node(loss, "fused_step", leaves, lambda g: grads))
        ad.reset_grads(leaves)

    tape = timed(tape_node, 1000)
    ad.backward(ad.make_node(loss, "fused_step", leaves, lambda g: grads))  # the .grads the step reads
    sgd = timed(opt.step, 1000)
    ad.reset_grads(leaves)
    mask = timed(lambda: batch_dropout_mask(BATCH, WIDTH, 0.9, rng, out=step.mask[0]), 1000)
    for part, (seconds, contention) in (("tape_node", tape), ("sgd_step", sgd), ("dropout_mask", mask)):
        emit("us", seconds * 1e6, contention, 2, measure="run_tail", part=part)


def load_timing(timed: Timer) -> None:
    """The `load_dataset` line: the corpus load's time, and its tracemalloc peak in one untimed load."""
    with tempfile.TemporaryDirectory() as directory:
        datasets.save_dataset(datasets.gen_pretrain_corpus(True, 50_000, seed=0), directory)
        seconds, contention = timed(lambda: datasets.load_dataset(directory), 1)
        tracemalloc.start()
        datasets.load_dataset(directory)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    emit("ms", seconds * 1e3, contention, 1, measure="load_dataset", rows=50_000, peak_mib=round(peak / 2**20, 2))


if __name__ == "__main__":
    sys.exit(main())
