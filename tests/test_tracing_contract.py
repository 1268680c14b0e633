"""perfbench's traced run wraps finedrop functions by name, reads
`SgdOptimizer.groups` and reconciles its counts with the steps and runs it
knows it ran; a refactor that breaks any of these fails here, not only
under `perfbench/run.py --trace 1`. The module is read, never changed."""

import importlib
import importlib.util
import os
import time

import pytest

import finedrop.cli  # noqa: F401  `Tracer.install` wraps cli.main, so the module must be loaded
from finedrop import protocol
from finedrop.datasets import gen_multienv_task, leave_one_out_splits
from finedrop.models import checkpoint_from_model, new_residual_model
from finedrop.optim import SgdOptimizer


def _tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    # the lookups `Tracer.install` makes: a class's own method, or a module attribute
    for span, module_name, attr, _ in _tracing().TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), span
        else:
            assert callable(getattr(module, attr, None)), span


def test_step_element_count_is_the_model_vector():
    model = new_residual_model(5, 8, 2, 3, seed=0)
    for groups in ({"trunk": model.trunk_parameters(), "head": model.head_parameters()},
                   {"head": model.head_parameters(), "trunk": model.trunk_parameters()}):
        opt = SgdOptimizer(groups, lr=0.1, total_iterations=10)
        assert _tracing()._count_step((opt,), {}, None) == (model.params.size,)


@pytest.mark.parametrize("parallel", [1, 2])
def test_traced_sweep_and_finetune_reconcile(tmp_path, parallel, monkeypatch):
    # perfbench's reconciliation on a tiny sweep and one standalone
    # fine-tune: one backward, one optimizer step per run-step, one mask
    # draw per dropout run-step and one `protocol.finetune` call per run
    if parallel > 1:
        # the caller may claim all four tiny groups before the forked worker
        # starts, and the check wants worker spans: it claims once the worker has
        real, deadline = protocol._claim, time.monotonic() + 60

        def claim_after_the_worker(unclaimed, front):
            while not front and unclaimed[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            return real(unclaimed, front)

        monkeypatch.setattr(protocol, "_claim", claim_after_the_worker)
    tracing = _tracing()
    task = gen_multienv_task(3, 4, 2, 1.0, n_per_env=60, seed=42, n_inert=0)
    start = checkpoint_from_model(new_residual_model(task.n_features, 8, 1, 2, seed=0), 0, "start")
    splits = leave_one_out_splits(task)[:2]
    cfg = protocol.FineTuneConfig(total_iterations=40, batch_size=16, checkpoint_interval=10, seed=1)
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        sweep = protocol.run_sweep(start, splits, grid=[(0.02, 0.0), (0.01, 1e-4)], recipes=["erm", "dropout90"],
                                   seeds=[1], base_cfg=cfg, parallel=parallel)
        records = sweep.runs + [protocol.finetune(start, splits[0], cfg)]
    finally:
        tracer.uninstall()
    stats = tracer.finish(str(tmp_path / "spans.npz"))
    assert len(records) == 9 and all(r.status == "ok" for r in records)
    steps = [r.trail[-1].iteration for r in records]
    tracing.reconcile(stats, steps=sum(steps), runs=len(records),
                      dropout_steps=sum(s for s, r in zip(steps, records) if r.config.dropout_rate > 0),
                      pool=parallel > 1)
