"""The benchmark's three workloads, driven through finedrop's public API.

Every workload is a closed loop: one caller runs a unit of work, waits for it,
checks its output and starts the next. A unit's inputs depend only on the
workload seed and the unit index, and repeat every `cycle` units, so each
unit's output can be checked against a recorded digest.

* sweep-ref: `finedrop sweep` with the CLI's default recipes and grid on one
  leave-one-out split per unit (cycling through all four), at `--parallel`
  workers, then `finedrop report`. One run seed instead of the default three,
  and one split per unit, keep a unit near 5 s, so a run holds several.
* finetune-wide: one `protocol.finetune` call per unit at width 64, depth 4,
  batch 256, dropout 0.9, 300 iterations; the step is BLAS-bound.
* pretrain-rich: one `protocol.pretrain` call per unit on the rich 50k corpus
  with the CLI's pretrain defaults but 1000 iterations instead of 3000; the
  step is Python-overhead-bound.

Run as a script, this module performs one workload's setup in a fresh
process, which is how the benchmark measures set-up time:

    PYTHONPATH=src python3 perfbench/workloads.py <workload> <seed> <dir>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from dataclasses import dataclass, field

import numpy as np

from finedrop import cli, datasets, models, protocol


@dataclass
class UnitResult:
    """What one unit did, counted from its run records, and its output digests."""

    key: str  # golden-digest entry: the unit index modulo the workload's cycle
    runs: int  # runs attempted
    failed: int  # runs that failed or broke a structural check
    steps: int = 0  # optimizer steps run
    dropout_steps: int = 0  # steps of runs with dropout rate > 0
    finetunes: int = 0  # protocol.finetune calls behind the unit
    digests: dict = field(default_factory=dict)
    wall: float = 0.0


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"finedrop {' '.join(map(str, argv))} exited with {code}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(directory: str) -> str:
    """sha256 over every file under a directory, by relative path."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            file_hash = hashlib.sha256()
            with open(path, "rb") as fh:  # in chunks, so hashing adds no peak memory
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    file_hash.update(chunk)
            h.update(file_hash.hexdigest().encode())
    return h.hexdigest()


def _in01(value) -> bool:
    return value is not None and 0.0 <= value <= 1.0


class Workload:
    name = ""
    cycle = 1  # units repeat their inputs every `cycle` units
    runs_per_unit = 1
    setup_steps = 0  # optimizer steps the setup runs
    setup_repeats = 7  # set-ups timed per run for setup_s; short ones need more
    trace_units = 1  # units in each block of the traced run

    def __init__(self, seed: int, workdir: str, parallel: int = 1):
        self.seed = seed
        self.workdir = workdir
        self.parallel = parallel

    def setup(self, directory: str) -> None:
        raise NotImplementedError

    def load(self, directory: str) -> None:
        raise NotImplementedError

    def run_unit(self, i: int):
        raise NotImplementedError

    def inspect(self, i: int, output) -> UnitResult:
        raise NotImplementedError


class SweepRef(Workload):
    name = "sweep-ref"
    envs = 4
    cycle = envs  # one leave-one-out split per unit
    recipes = ("erm", "dropout90")  # the CLI defaults, spelled out for the run count
    grid_points = 6
    runs_per_unit = len(recipes) * grid_points  # K = 12 runs share each split's streams
    setup_steps = 3000  # `finedrop pretrain` default iterations
    setup_repeats = 3  # a set-up here takes about 3.5 s
    trace_units = envs
    report_files = ("report.md", "quartiles.csv", "methods_0.csv", "rate_curve_0.csv")

    def setup(self, directory):
        _cli("gen-data", "--task", "multienv", "--envs", self.envs, "--seed", self.seed,
             "--out", os.path.join(directory, "multienv"))
        _cli("gen-data", "--task", "pretrain", "--rich", "--seed", self.seed,
             "--out", os.path.join(directory, "corpus"))
        _cli("pretrain", "--data", os.path.join(directory, "corpus"), "--seed", self.seed,
             "--out", os.path.join(directory, "start.ckpt"))

    def load(self, directory):
        # `finedrop sweep` loads the data and checkpoint itself, inside the unit.
        self.data = os.path.join(directory, "multienv")
        self.start = os.path.join(directory, "start.ckpt")

    def run_unit(self, i):
        out = os.path.join(self.workdir, f"sweep-{i}")
        _cli("sweep", "--data", self.data, "--start", self.start, "--out", os.path.join(out, "results"),
             "--recipes", ",".join(self.recipes), "--seeds", "0", "--splits", i % self.cycle,
             "--parallel", self.parallel)
        _cli("report", "--results", os.path.join(out, "results"), "--out", os.path.join(out, "report"))
        return out

    def inspect(self, i, out):
        try:
            return self._inspect(str(i % self.cycle), out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _inspect(self, key, out):
        files = [os.path.join("results", "runs.jsonl"), os.path.join("results", "summary.json")]
        files += [os.path.join("report", name) for name in self.report_files]
        digests = {}
        for rel in files:
            with open(os.path.join(out, rel), "rb") as fh:
                digests[rel.replace(os.sep, "/")] = _sha256(fh.read())
        with open(os.path.join(out, "results", "runs.jsonl"), "r", encoding="utf-8") as fh:
            runs = [json.loads(line) for line in fh if line.strip()]
        with open(os.path.join(out, "results", "summary.json"), "r", encoding="utf-8") as fh:
            summary = json.load(fh)

        res = UnitResult(key=key, runs=self.runs_per_unit, failed=0, digests=digests,
                         finetunes=len(runs))
        res.failed += max(0, self.runs_per_unit - len(runs))
        for run in runs:
            accs = [p["iid_val_acc"] for p in run["trail"]]
            accs += [v for arm in run["variants"].values() for v in arm.values()]
            if run["status"] != "ok" or not run["trail"] or not all(map(_in01, accs + [run["ood_acc"]])):
                res.failed += 1
                continue
            steps = run["trail"][-1]["iteration"]
            res.steps += steps
            if run["dropout_rate"] > 0:
                res.dropout_steps += steps
        run_ids = {run["run_id"] for run in runs}
        for per_split in summary["selected"].values():
            for chosen in per_split.values():
                if chosen["run_id"] not in run_ids or not _in01(chosen["ood"]):
                    res.failed += 1
        return res


class FinetuneWide(Workload):
    name = "finetune-wide"
    cycle = 8  # 4 splits x 2 run seeds
    width, depth, batch, rate, iterations = 64, 4, 256, 0.9, 300
    start_iterations = 200  # the short width-64 pretrain that makes the start checkpoint
    setup_steps = start_iterations
    trace_units = 4

    def setup(self, directory):
        _cli("gen-data", "--task", "multienv", "--seed", self.seed,
             "--out", os.path.join(directory, "multienv"))
        _cli("gen-data", "--task", "pretrain", "--rich", "--size", 10_000, "--seed", self.seed,
             "--out", os.path.join(directory, "corpus"))
        _cli("pretrain", "--data", os.path.join(directory, "corpus"), "--width", self.width,
             "--depth", self.depth, "--iterations", self.start_iterations, "--seed", self.seed,
             "--out", os.path.join(directory, "start.ckpt"))

    def load(self, directory):
        dataset = datasets.load_dataset(os.path.join(directory, "multienv"))
        self.splits = datasets.leave_one_out_splits(dataset)
        self.start = models.load_checkpoint(os.path.join(directory, "start.ckpt"))

    def run_unit(self, i):
        split, run_seed = i % len(self.splits), (i // len(self.splits)) % 2
        cfg = protocol.FineTuneConfig(
            dropout_rate=self.rate, lr=1e-3, weight_decay=1e-4, total_iterations=self.iterations,
            batch_size=self.batch, seed=run_seed, run_id=f"fw-s{split}-seed{run_seed}",
        )
        return protocol.finetune(self.start, self.splits[split], cfg)

    def inspect(self, i, record):
        res = UnitResult(key=str(i % self.cycle), runs=1, failed=0, finetunes=1)
        accs = [p.iid_val_acc for p in record.trail]
        if record.status != "ok" or not accs or not all(map(_in01, accs + [record.ood_acc])):
            res.failed = 1
            return res
        res.steps = res.dropout_steps = record.trail[-1].iteration
        outcome = json.dumps({
            "trail": [[p.iteration, p.iid_val_acc] for p in record.trail],
            "best_iteration": record.best.iteration,
            "ood_acc": record.ood_acc,
        }, sort_keys=True).encode()
        params = np.ascontiguousarray(record.best.checkpoint.params, dtype="<f8").tobytes()
        res.digests = {"run": _sha256(outcome + params)}
        return res


class PretrainRich(Workload):
    name = "pretrain-rich"
    cycle = 4  # pretrain seeds 0..3
    width, depth, batch = 16, 2, 64  # `finedrop pretrain` defaults
    iterations = 1000  # a third of the default, so a 20 s run holds dozens of units
    trace_units = 4

    def setup(self, directory):
        _cli("gen-data", "--task", "pretrain", "--rich", "--seed", self.seed,
             "--out", os.path.join(directory, "corpus"))

    def load(self, directory):
        self.corpus = datasets.load_dataset(os.path.join(directory, "corpus"))

    def run_unit(self, i):
        arch = {"input_dim": self.corpus.n_features, "width": self.width, "depth": self.depth,
                "block_hidden": self.width}
        opt = protocol.OptimizerSettings(lr=1e-2, weight_decay=1e-5, momentum=0.9,
                                         iterations=self.iterations, batch_size=self.batch)
        return protocol.pretrain(arch, self.corpus, opt, seed=i % self.cycle)

    def inspect(self, i, ckpt):
        res = UnitResult(key=str(i % self.cycle), runs=1, failed=0)
        params = np.ascontiguousarray(ckpt.params, dtype="<f8")
        if (ckpt.iteration != self.iterations or params.size != ckpt.manifest["total"]
                or not np.all(np.isfinite(params))):
            res.failed = 1
            return res
        res.steps = ckpt.iteration
        header = json.dumps([ckpt.manifest, ckpt.iteration, ckpt.run_id], sort_keys=True).encode()
        res.digests = {"checkpoint": _sha256(header + params.tobytes())}
        return res


WORKLOADS = {w.name: w for w in (SweepRef, FinetuneWide, PretrainRich)}


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = WORKLOADS[name](seed, directory)
    workload.setup(directory)
    workload.load(directory)
