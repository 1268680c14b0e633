"""Span tracing for the benchmark's traced run, installed from outside finedrop.

`Tracer.install` replaces each traced function with one wrapper at every
place it is bound: the defining module, every other finedrop module that
imported it by name (`protocol.forward`, `models.batch_dropout_mask`,
`cli.run_sweep`, ...) and, for methods, the class. Each call records a span:
name, parent span, start and end, in compact arrays that stay in memory.

Sweep pool workers are forked, so they inherit the wrappers. A worker starts
with an empty span list and appends its spans to a spill file in `spill_dir`
each time its outermost span closes; `Tracer.finish` merges those files with
the parent's spans and writes them all out once. A worker's outermost spans
count as child time of the parent span open at fork (`protocol.run_sweep`),
as the union of their intervals, since workers run side by side.

Counts marked computed are derived from argument shapes, so they repeat
exactly for the same inputs; the others (rows, keep fraction, bytes written)
are measured from the values passed or returned.
"""

from __future__ import annotations

import array
import collections
import functools
import glob
import os
import pickle
import sys
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np


def _shape(x) -> tuple:
    return np.shape(getattr(x, "data", x))


def _count_matmul(args, kwargs, out):
    (m, k), (_, n) = _shape(args[0]), _shape(args[1])
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def _count_mask(args, kwargs, out):
    return out.size, int(np.count_nonzero(out))


def _count_step(args, kwargs, out):
    return (sum(t.data.size for tensors in args[0].groups.values() for t in tensors),)


def _count_checkpoint(args, kwargs, out):
    return (out.params.nbytes,)


def _count_predict(args, kwargs, out):
    return (_shape(args[1])[0],)


def _count_evaluate(args, kwargs, out):
    labels = args[2] if len(args) > 2 else kwargs.get("labels")
    data = args[1] if len(args) > 1 else kwargs["data"]
    return (len(labels) if labels is not None else len(data.labels),)


def _count_members(args, kwargs, out):
    return (len(args[0]),)


def _count_finetune(args, kwargs, out):
    return out.best.iteration, out.trail[-1].iteration


def _count_saved(args, kwargs, out):
    directory = args[1] if len(args) > 1 else kwargs["directory"]
    return (sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file()),)


def _count_report(args, kwargs, out):
    return (sum(os.path.getsize(p) for p in out),)


# (span name, defining module, attribute, counts). "Class.method" patches the
# class; a plain name is patched wherever finedrop binds that function. Counts
# are (stat names, counter): the counter returns one value per stat, which is
# added to `<span>.<stat>`.
TARGETS = [
    ("autodiff.matmul", "finedrop.autodiff", "matmul", (("flops", "bytes"), _count_matmul)),
    ("autodiff.add", "finedrop.autodiff", "add", None),
    ("autodiff.add_bias", "finedrop.autodiff", "add_bias", None),
    ("autodiff.relu", "finedrop.autodiff", "relu", None),
    ("autodiff.elementwise_mul", "finedrop.autodiff", "elementwise_mul", None),
    ("autodiff.scale", "finedrop.autodiff", "scale", None),
    ("autodiff.softmax_cross_entropy", "finedrop.autodiff", "softmax_cross_entropy", None),
    ("autodiff.backward", "finedrop.autodiff", "backward", None),
    ("autodiff.reset_grads", "finedrop.autodiff", "reset_grads", None),
    ("models.forward", "finedrop.models", "forward", None),
    ("models.predict_proba", "finedrop.models", "ResidualModel.predict_proba", (("rows",), _count_predict)),
    ("models.model_from_checkpoint", "finedrop.models", "model_from_checkpoint", None),
    ("models.checkpoint_from_model", "finedrop.models", "checkpoint_from_model",
     (("bytes",), _count_checkpoint)),
    ("models.reinit_head", "finedrop.models", "reinit_head", None),
    ("models.write_checkpoint", "finedrop.models", "write_checkpoint", None),
    ("models.load_checkpoint", "finedrop.models", "load_checkpoint", None),
    ("regularizers.batch_dropout_mask", "finedrop.regularizers", "batch_dropout_mask",
     (("draws", "kept"), _count_mask)),
    ("optim.SgdOptimizer.step", "finedrop.optim", "SgdOptimizer.step", (("elements",), _count_step)),
    ("datasets.gen", "finedrop.datasets", "gen_multienv_task", None),
    ("datasets.gen", "finedrop.datasets", "gen_pretrain_corpus", None),
    ("datasets.gen", "finedrop.datasets", "gen_redundant_features", None),
    ("datasets.gen", "finedrop.datasets", "gen_xor_task", None),
    ("datasets.save_dataset", "finedrop.datasets", "save_dataset", (("bytes",), _count_saved)),
    ("datasets.load_dataset", "finedrop.datasets", "load_dataset", None),
    ("datasets.leave_one_out_splits", "finedrop.datasets", "leave_one_out_splits", None),
    ("protocol.finetune", "finedrop.protocol", "finetune",
     (("selected_steps", "trail_steps"), _count_finetune)),
    ("protocol.pretrain", "finedrop.protocol", "pretrain", None),
    ("protocol.evaluate", "finedrop.protocol", "evaluate", (("rows",), _count_evaluate)),
    ("protocol.split_holdout", "finedrop.protocol", "split_holdout", None),
    ("protocol.build_variants", "finedrop.protocol", "build_variants", None),
    ("protocol.weight_average", "finedrop.protocol", "weight_average", None),
    ("protocol.ensemble_predict", "finedrop.protocol", "ensemble_predict",
     (("members",), _count_members)),
    ("protocol.run_sweep", "finedrop.protocol", "run_sweep", None),
    ("report.load_results", "finedrop.report", "load_results", None),
    ("report.build_report", "finedrop.report", "build_report", None),
    ("report.write_report", "finedrop.report", "write_report", (("bytes",), _count_report)),
    ("cli.main", "finedrop.cli", "main", None),
]

POOL_COUNTS = ("pool_bytes_out", "pool_bytes_in", "pool_msgs_out", "pool_msgs_in")

# Counts derived from argument shapes: they repeat exactly for the same inputs.
COMPUTED = {
    "autodiff.matmul.flops",
    "autodiff.matmul.bytes",
    "regularizers.batch_dropout_mask.draws",
    "optim.SgdOptimizer.step.elements",
    "models.checkpoint_from_model.bytes",
}


class ReconciliationError(RuntimeError):
    """Traced counts disagree with the work the benchmark knows it ran."""


class Tracer:
    """Records spans of the TARGETS functions while installed."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.main_pid = os.getpid()
        self.in_worker = False
        self.fork_parent = -1  # in a worker: the parent's span open at fork
        self.names: list[str] = []
        self.counts: collections.Counter = collections.Counter()
        self.pool = dict.fromkeys(POOL_COUNTS, 0)  # parent-side pool traffic
        self._patches: list[tuple[object, str, object]] = []
        self._clear_spans()
        os.register_at_fork(after_in_child=self._after_fork)

    def _clear_spans(self) -> None:
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[int] = []

    def _after_fork(self) -> None:
        # Only the forking thread survives; the parent's spans, open stack
        # and counts stay with the parent. The worker's outermost spans run
        # inside the parent span that was open at fork (run_sweep's pool).
        if self._patches:
            self.in_worker = True
            self.fork_parent = self._stack[-1] if self._stack else -1
            self._clear_spans()
            self.counts = collections.Counter()

    # -- installing ---------------------------------------------------------

    def _wrap(self, name: str, fn, counts):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        keys, counter = ([f"{name}.{stat}" for stat in counts[0]], counts[1]) if counts else ((), None)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf()
                stack.pop()
            if counter is not None:
                for key, value in zip(keys, counter(args, kwargs, out)):
                    tracer.counts[key] += value
            if tracer.in_worker and not stack:
                tracer._spill()
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every TARGETS function at every binding, plus the pool pickler."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "finedrop" or name.startswith("finedrop."))]
        for span, module_name, attr, counts in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(span, cls.__dict__[method], counts))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original, counts)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)
        self._install_pool_counters()

    def _install_pool_counters(self) -> None:
        dumps, loads = ForkingPickler.dumps, ForkingPickler.loads
        tracer = self

        def counted_dumps(cls, obj, protocol=None):
            buf = dumps(obj, protocol)
            if not tracer.in_worker:
                tracer.pool["pool_msgs_out"] += 1
                tracer.pool["pool_bytes_out"] += memoryview(buf).nbytes
            return buf

        def counted_loads(buf, /, **kwargs):
            if not tracer.in_worker:
                tracer.pool["pool_msgs_in"] += 1
                tracer.pool["pool_bytes_in"] += memoryview(buf).nbytes
            return loads(buf, **kwargs)

        self._patch(ForkingPickler, "dumps", classmethod(counted_dumps))
        self._patch(ForkingPickler, "loads", staticmethod(counted_loads))

    def uninstall(self) -> None:
        """Restore every binding install() replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans out ----------------------------------------------------------

    def _batch(self) -> dict:
        return {
            "pid": os.getpid(),
            "fork_parent": self.fork_parent,
            "names": list(self.names),
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
            "counts": dict(self.counts),
        }

    def _spill(self) -> None:
        with open(os.path.join(self.spill_dir, f"spans-{os.getpid()}.pkl"), "ab") as fh:
            pickle.dump(self._batch(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._clear_spans()
        self.counts = collections.Counter()

    def _batches(self) -> list[dict]:
        batches = [self._batch()]
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.pkl"))):
            with open(path, "rb") as fh:  # written by this benchmark's own workers
                while True:
                    try:
                        batches.append(pickle.load(fh))
                    except EOFError:
                        break
        return batches

    def finish(self, spans_path: str) -> dict:
        """Merge worker spans, write every span to spans_path, return stats."""
        if self._patches:
            raise RuntimeError("uninstall the tracer before finish")
        names = list(self.names)
        cols = {"name": [], "parent": [], "start": [], "end": [], "pid": []}
        counts = collections.Counter(dict.fromkeys(
            (f"{span}.{stat}" for span, _, _, c in TARGETS if c for stat in c[0]), 0))
        forked: dict = collections.defaultdict(list)  # parent span -> worker top-level intervals
        offset = 0
        for batch in self._batches():
            # A worker inherits the parent's name table at fork, so every
            # batch name is already known.
            remap = np.array([names.index(n) for n in batch["names"]], dtype=np.int32)
            name = np.frombuffer(batch["name"], dtype=np.int32)
            parent = np.frombuffer(batch["parent"], dtype=np.int32).copy()
            start = np.frombuffer(batch["start"], dtype=np.float64)
            end = np.frombuffer(batch["end"], dtype=np.float64)
            if batch["fork_parent"] >= 0:  # the parent's batch comes first, at offset 0
                top = parent < 0
                forked[batch["fork_parent"]].extend(zip(start[top], end[top]))
            parent[parent >= 0] += offset
            cols["name"].append(remap[name])
            cols["parent"].append(parent)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["pid"].append(np.full(name.size, batch["pid"], dtype=np.int32))
            counts.update(batch["counts"])
            offset += name.size
        spans = {k: np.concatenate(v) for k, v in cols.items()}
        np.savez(spans_path, names=np.array(names), **spans)

        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        for span, intervals in forked.items():
            # Workers run side by side: their time is the union of intervals.
            child[span] += _union_length(intervals)
        self_time = dur - child
        stats: dict = {}
        for i, n in enumerate(names):
            sel = spans["name"] == i
            stats[f"{n}.calls"] = int(np.count_nonzero(sel))
            stats[f"{n}.s"] = float(dur[sel].sum())
            stats[f"{n}.self_s"] = float(self_time[sel].sum())
        stats.update(counts)
        stats.update({f"protocol.run_sweep.{k}": v for k, v in self.pool.items()})
        draws = stats["regularizers.batch_dropout_mask.draws"]
        stats["regularizers.batch_dropout_mask.keep_frac"] = (
            stats["regularizers.batch_dropout_mask.kept"] / draws if draws else 0.0)
        trail = stats["protocol.finetune.trail_steps"]
        stats["protocol.trail.useful_frac"] = (
            stats["protocol.finetune.selected_steps"] / trail if trail else 0.0)
        worker = spans["pid"] != self.main_pid
        stats["worker_pids"] = int(np.unique(spans["pid"][worker]).size)
        stats["spans"] = int(dur.size)
        return stats


def _union_length(intervals) -> float:
    """Total length covered by (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def reconcile(stats: dict, steps: int, runs: int, dropout_steps: int, pool: bool) -> None:
    """Raise ReconciliationError when the trace missed work the benchmark ran."""
    expected = {
        "optim.SgdOptimizer.step.calls": steps,
        "autodiff.backward.calls": steps,
        "protocol.finetune.calls": runs,
        "regularizers.batch_dropout_mask.calls": dropout_steps,
    }
    problems = [f"{name} = {stats.get(name, 0)}, expected {want}"
                for name, want in expected.items() if stats.get(name, 0) != want]
    if pool and stats["worker_pids"] == 0:
        problems.append("no spans were collected from sweep pool workers")
    if problems:
        raise ReconciliationError("trace does not reconcile: " + "; ".join(problems))
