import itertools
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from finedrop import autodiff as ad
from finedrop.datasets import EnvDataset, EnvSplit, gen_multienv_task, gen_pretrain_corpus, leave_one_out_splits
from finedrop.errors import RunError, ValidationError
from finedrop.models import (
    Checkpoint,
    checkpoint_from_model,
    forward,
    model_from_checkpoint,
    new_residual_model,
    reinit_head,
)
from finedrop.optim import SgdOptimizer
from finedrop.protocol import (
    FineTuneConfig,
    OptimizerSettings,
    Recipe,
    RunRecord,
    SweepResult,
    build_variants,
    ensemble_predict,
    evaluate,
    finetune,
    pretrain,
    pretrain_trajectory,
    run_sweep,
    split_holdout,
    weight_average,
    _streams,
)


@pytest.fixture(scope="module")
def small_task():
    return gen_multienv_task(3, 4, 2, 1.0, n_per_env=120, seed=42, n_inert=0)


@pytest.fixture(scope="module")
def small_start(small_task):
    model = new_residual_model(small_task.n_features, 8, 1, 2, seed=0)
    return checkpoint_from_model(model, 0, "start")


def _small_cfg(**kw):
    base = dict(dropout_rate=0.0, lr=0.01, weight_decay=0.0, total_iterations=60,
                batch_size=16, checkpoint_interval=20, seed=1)
    base.update(kw)
    return FineTuneConfig(**base)


@pytest.fixture
def trail_copies(monkeypatch):
    """Wraps `protocol._train` to copy every checkpoint it yields: the list
    holds, per `_train` call, each run's checkpoints in trail order.

    A record keeps only its best checkpoint, so the tests that check whole
    trails, or build single-run arms from them, read the copies.
    """
    from finedrop import protocol

    calls, real = [], protocol._train

    def train(runs, feed, *args):
        trails = [[] for _ in runs]
        calls.append(trails)
        for done in real(runs, feed, *args):
            for run, trail in zip(runs, trails):
                if run.error is None:
                    trail.append(checkpoint_from_model(run.model, done, "copy"))
            yield done

    monkeypatch.setattr(protocol, "_train", train)
    return calls


def _trail_bytes(checkpoints):
    return [c.params.tobytes() for c in checkpoints]


def test_recipe_parse_variants():
    assert Recipe.parse("erm") == Recipe(dropout_rate=0.0, head_lr_mult=None)
    assert Recipe.parse("dropout90") == Recipe(dropout_rate=0.9)
    assert Recipe.parse("dropout95") == Recipe(dropout_rate=0.95)
    assert Recipe.parse("headlr10") == Recipe(dropout_rate=0.0, head_lr_mult=10.0)
    assert Recipe.parse("dropout90+headlr10") == Recipe(dropout_rate=0.9, head_lr_mult=10.0)
    # integer percents give the same rate as dividing by 100
    assert all(Recipe.parse(f"dropout{pct}").dropout_rate == pct / 100 for pct in range(100))


def test_recipe_parse_rejects_unknown():
    for bad in ("dropout101", "dropout100", "dropout-1", "mystery", "dropoutabc", "headlr",
                "headlrnan", "headlrinf", "dropoutnan", "headlr0", "headlr-2",
                "dropout90+dropout50", "erm+dropout90"):
        with pytest.raises(ValidationError):
            Recipe.parse(bad)
    for rate, mult in ((1.0, None), (-0.1, None), (float("nan"), None), (0.5, float("nan")),
                       (0.5, float("inf")), (0.5, 0.0)):
        with pytest.raises(ValidationError):
            Recipe(rate, mult)


def test_recipe_names_round_trip():
    assert [Recipe.parse(n).name for n in ("erm", "dropout0", "dropout90.0", "headlr10.0",
                                           "headlr10+dropout90", "erm+headlr2")] == [
        "erm", "erm", "dropout90", "headlr10", "dropout90+headlr10", "headlr2"]
    rng = np.random.default_rng(0)
    rates = list(rng.random(200)) + [0.123456789, 0.683, 1e-12, 0.1 + 0.2]
    for rate in rates:
        for mult in (None, 1.23456789, float(rng.random() * 100)):
            recipe = Recipe(float(rate), mult)
            assert Recipe.parse(recipe.name) == recipe, recipe.name


def test_recipe_apply_sets_rate_and_inherits_head_multiplier():
    base = FineTuneConfig(dropout_rate=0.5, head_lr_mult=10.0)
    erm = Recipe.parse("erm").apply(base, lr=0.5)
    assert (erm.dropout_rate, erm.head_lr_mult, erm.lr) == (0.0, 10.0, 0.5)
    both = Recipe.parse("dropout90+headlr2").apply(base)
    assert (both.dropout_rate, both.head_lr_mult) == (0.9, 2.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        FineTuneConfig(dropout_rate=1.0)
    with pytest.raises(ValidationError):
        FineTuneConfig(total_iterations=30, checkpoint_interval=20)  # < 2 intervals
    FineTuneConfig(total_iterations=0)  # degenerate eval-only run is allowed
    for name in ("lr", "weight_decay", "head_lr_mult"):
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValidationError, match=name):
                FineTuneConfig(**{name: value})


def test_optimizer_settings_validation():
    OptimizerSettings(iterations=0, weight_decay=0.0, momentum=0.0)  # the boundaries are allowed
    for name in ("lr", "weight_decay", "momentum"):
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValidationError, match=name):
                OptimizerSettings(**{name: value})
    for name, value in (("lr", 0.0), ("momentum", 1.0), ("iterations", -1), ("batch_size", 0)):
        with pytest.raises(ValidationError, match=f"{name} must be"):
            OptimizerSettings(**{name: value})


def test_holdout_is_deterministic_and_config_independent(small_task):
    split = leave_one_out_splits(small_task)[0]
    a = split_holdout(split, seed=7)
    b = split_holdout(split, seed=7)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = split_holdout(split, seed=8)
    assert not np.array_equal(a[1], c[1])
    # per-env 20%: with 120 per env, 24 held out from each of 2 train envs
    assert a[1].size == 48


def _tiny_split(rows_per_train_env):
    """Two training environments of the given size and a one-row test environment 2."""
    env_ids = [0] * rows_per_train_env + [1] * rows_per_train_env + [2]
    ds = EnvDataset(np.zeros((len(env_ids), 2)), np.zeros(len(env_ids)), env_ids,
                    {"environments": [{"id": e} for e in range(3)], "num_classes": 2})
    return EnvSplit(ds, (0, 1), 2, 0.2)


def test_holdout_keeps_one_row_of_an_env_the_fraction_rounds_to_zero():
    # int(4 * 0.2) == 0 rows, so each 4-row env still gives one validation row
    train_idx, val_idx = split_holdout(_tiny_split(4), seed=0)
    assert (train_idx.size, val_idx.size) == (6, 2)
    assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(8))


def test_holdout_refuses_one_row_envs():
    with pytest.raises(ValidationError, match="holdout left an empty train or validation pool"):
        split_holdout(_tiny_split(1), seed=0)


def test_finetune_rate_zero_bit_equals_manual_erm_loop(small_task, small_start, trail_copies):
    split = leave_one_out_splits(small_task)[0]
    cfg = _small_cfg(dropout_rate=0.0)
    record = finetune(small_start, split, cfg)
    ((trail,),) = trail_copies

    # independent re-implementation with no dropout machinery at all
    streams = _streams(cfg.seed, split.test_env)
    train_idx, _ = split_holdout(split, cfg.seed)
    x_train = small_task.features[train_idx]
    y_train = small_task.labels[train_idx]
    model = reinit_head(model_from_checkpoint(small_start), 2, streams["head_seed"])
    opt = SgdOptimizer(
        {"head": model.head_parameters(), "trunk": model.trunk_parameters()},
        lr=cfg.lr,
        total_iterations=cfg.total_iterations,
        momentum=0.9,
        weight_decay=cfg.weight_decay,
        group_multipliers={"head": 1.0, "trunk": 1.0},
    )
    rng = streams["batch"]
    for _ in range(cfg.total_iterations):
        idx = rng.integers(0, x_train.shape[0], size=cfg.batch_size)
        logits, _ = forward(model, x_train[idx])
        loss = ad.softmax_cross_entropy(logits, y_train[idx])
        ad.backward(loss)
        opt.step()
        ad.reset_grads(model.parameters())

    np.testing.assert_array_equal(trail[-1].params, model.params)
    np.testing.assert_array_equal(record.best.checkpoint.params, trail[record.best_index].params)


def test_finetune_zero_iterations_evaluates_fresh_head(small_task, small_start):
    split = leave_one_out_splits(small_task)[0]
    record = finetune(small_start, split, FineTuneConfig(total_iterations=0, seed=3))
    assert len(record.trail) == 1
    assert record.trail[0].iteration == 0
    assert 0.0 <= record.ood_acc <= 1.0


def test_finetune_is_deterministic(small_task, small_start, trail_copies):
    split = leave_one_out_splits(small_task)[1]
    r1 = finetune(small_start, split, _small_cfg(dropout_rate=0.9))
    r2 = finetune(small_start, split, _small_cfg(dropout_rate=0.9))
    assert r1.ood_acc == r2.ood_acc
    ((t1,), (t2,)) = trail_copies
    assert len(t1) == 3 and _trail_bytes(t1) == _trail_bytes(t2)
    np.testing.assert_array_equal(r1.best.checkpoint.params, r2.best.checkpoint.params)


def test_finetune_trail_and_early_stop_tie_rule(small_task, small_start):
    split = leave_one_out_splits(small_task)[0]
    record = finetune(small_start, split, _small_cfg())
    assert [p.iteration for p in record.trail] == [20, 40, 60]
    accs = [p.iid_val_acc for p in record.trail]
    assert record.best_index == int(np.argmax(accs))  # earliest max


def test_finetune_record_holds_one_checkpoint_and_allocates_less_than_half_its_trail():
    # a fine-tune copies a checkpoint's parameters only while it is the best
    # so far: its record holds one checkpoint, and its allocations stay far
    # below the copies of a whole trail
    import tracemalloc

    task = gen_multienv_task(3, 4, 2, 1.0, n_per_env=100, seed=7, n_inert=0)
    split = leave_one_out_splits(task)[0]
    start = checkpoint_from_model(new_residual_model(task.n_features, 64, 2, 2, seed=0), 0, "start")
    cfg = _small_cfg(total_iterations=64, checkpoint_interval=2, batch_size=8)
    tracemalloc.start()
    try:
        record = finetune(start, split, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record.trail) == 32
    assert [i for i, p in enumerate(record.trail) if p.checkpoint is not None] == [record.best_index]
    trail_bytes = len(record.trail) * start.params.size * 8
    assert peak < trail_bytes / 2, (peak, trail_bytes)


@pytest.mark.parametrize("block", [None, 7], ids=["default_block", "block_of_7_steps"])
@pytest.mark.parametrize("batch", [1, 32, 33, 64])
def test_batch_index_blocks_equal_per_step_draws(batch, block, monkeypatch):
    from finedrop import protocol

    if block is not None:
        monkeypatch.setattr(protocol, "_INDEX_BLOCK", block * batch)
    iterations = 2 * (protocol._INDEX_BLOCK // batch) + 3  # two block boundaries, then a short block
    per_step, blocked = np.random.default_rng(batch), np.random.default_rng(batch)
    want = [per_step.integers(0, 997, size=batch) for _ in range(iterations)]
    got = list(protocol._batches(blocked, 997, batch, iterations))
    assert len(got) == iterations
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert blocked.bit_generator.state == per_step.bit_generator.state


def test_train_yields_its_checkpoint_steps():
    # after every `every`-th step and after the last one; every=None yields
    # nothing, and the generator still runs every step
    from finedrop import protocol

    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(20, 4)), rng.integers(0, 2, size=20)

    def run():
        model = new_residual_model(4, 6, 1, 2, seed=5)
        opt = SgdOptimizer({"trunk": model.trunk_parameters(), "head": model.head_parameters()}, lr=0.05,
                           total_iterations=10)
        return protocol._Run(model, opt)

    def feed():
        return protocol._Feed(x, y, None, np.random.default_rng(6))

    yielded, silent = run(), run()
    assert list(protocol._train([yielded], feed(), 10, 3, 0.0, 4)) == [4, 8, 10]
    assert list(protocol._train([silent], feed(), 10, 3, 0.0, None)) == []
    assert yielded.opt.iteration == silent.opt.iteration == 10
    assert yielded.model.params.tobytes() == silent.model.params.tobytes()


def test_evaluate_perfect_and_tie_and_empty(small_task):
    split = leave_one_out_splits(small_task)[0]
    x, y = small_task.env_arrays(split.test_env)

    class Perfect:
        def predict_proba(self, feats):
            probs = np.zeros((feats.shape[0], 2))
            probs[np.arange(feats.shape[0]), y] = 1.0
            return probs

    assert evaluate(Perfect(), x, y) == 1.0

    class Constant:
        def predict_proba(self, feats):
            return np.full((feats.shape[0], 2), 0.5)

    assert evaluate(Constant(), x, y) == pytest.approx(np.mean(y == 0))
    with pytest.raises(ValidationError):
        evaluate(Constant(), np.zeros((0, 4)), np.zeros(0, dtype=int))


def test_ensemble_of_copies_equals_member():
    model = new_residual_model(4, 6, 1, 3, seed=5)
    x = np.random.default_rng(0).normal(size=(7, 4))
    solo = model.predict_proba(x)
    trio = ensemble_predict([model, model, model], x)
    np.testing.assert_allclose(trio, solo, rtol=0, atol=1e-16)


def test_ensemble_opposite_onehots_is_uniform():
    class OneHot:
        num_classes = 2

        def __init__(self, cls):
            self.cls = cls

        def predict_proba(self, feats):
            probs = np.zeros((feats.shape[0], 2))
            probs[:, self.cls] = 1.0
            return probs

    probs = ensemble_predict([OneHot(0), OneHot(1)], np.zeros((3, 1)))
    np.testing.assert_array_equal(probs, np.full((3, 2), 0.5))


def test_ensemble_permutation_invariant():
    rng = np.random.default_rng(9)
    models = [new_residual_model(4, 6, 1, 2, seed=s) for s in range(5)]
    x = rng.normal(size=(10, 4))
    a = ensemble_predict(models, x)
    b = ensemble_predict(models[::-1], x)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_ensemble_validation():
    with pytest.raises(ValidationError):
        ensemble_predict([], np.zeros((1, 2)))
    m2 = new_residual_model(4, 6, 1, 2, seed=0)
    m3 = new_residual_model(4, 6, 1, 3, seed=0)
    with pytest.raises(ValidationError):
        ensemble_predict([m2, m3], np.zeros((1, 4)))


def test_weight_average_of_identical_checkpoints_is_identity():
    model = new_residual_model(4, 6, 1, 2, seed=11)
    ck = checkpoint_from_model(model)
    avg = weight_average([ck, ck])
    np.testing.assert_array_equal(avg.params, ck.params)


def test_weight_average_permutation_invariant():
    cks = [checkpoint_from_model(new_residual_model(4, 6, 1, 2, seed=s)) for s in range(4)]
    a = weight_average(cks).params
    b = weight_average(cks[::-1]).params
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_weight_average_shared_trunk_heads_matches_logit_mean():
    # relu-free degenerate case: depth 0 and models differing only in the
    # head are linear in their parameters, so averaging weights equals
    # averaging outputs (up to float accumulation)
    base = new_residual_model(4, 6, 0, 2, seed=12)
    m1 = reinit_head(base, 2, seed=100)
    m2 = reinit_head(base, 2, seed=200)
    x = np.random.default_rng(1).normal(size=(8, 4))
    avg = weight_average([checkpoint_from_model(m1), checkpoint_from_model(m2)])
    logits_avg, _ = forward(avg, x)
    l1, _ = forward(m1, x)
    l2, _ = forward(m2, x)
    np.testing.assert_allclose(logits_avg.data, (l1.data + l2.data) / 2.0, rtol=0, atol=1e-12)


def test_mean_params_equals_a_zero_started_running_sum_over_its_count():
    # a sweep group scores wa_single from param_sum / n, summed from zeros as
    # each checkpoint is taken: numpy's mean over the stacked vectors adds
    # them one after another from +0.0, so the bits agree, -0.0, infinities,
    # NaN and subnormals included; a sum started from the first vector keeps
    # its -0.0 and does not agree
    from finedrop import protocol

    rng = np.random.default_rng(26)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310])
    manifest = {"arch": {}, "param_shapes": []}
    for _ in range(300):
        n, size = int(rng.integers(1, 9)), int(rng.integers(2, 40))
        vectors = rng.normal(size=(n, size)) * 10.0 ** rng.integers(-320, 300, size=(n, size))
        special = rng.random((n, size)) < 0.3
        vectors[special] = rng.choice(specials, size=int(special.sum()))
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.zeros(size)
            for v in vectors:
                np.add(total, v, out=total)
            mean = protocol._mean_params([Checkpoint(v, manifest, 0, "") for v in vectors])
            assert (total / n).tobytes() == mean.tobytes()
    one = np.array([-0.0, 1.0])
    mean = protocol._mean_params([Checkpoint(one, manifest, 0, "")])
    assert mean.tobytes() == (np.zeros(2) + one).tobytes() != one.tobytes()


def test_weight_average_rejects_mismatched_manifests():
    ck1 = checkpoint_from_model(new_residual_model(4, 6, 1, 2, seed=0))
    ck2 = checkpoint_from_model(new_residual_model(4, 8, 1, 2, seed=0))
    with pytest.raises(ValidationError):
        weight_average([ck1, ck2])


def test_wa_vs_ensemble_second_order_scaling(small_task, small_start):
    # perturb a fine-tuned checkpoint by +-eps*delta: the ensemble-vs-average
    # discrepancy is curvature-driven, so doubling eps multiplies it by ~4
    split = leave_one_out_splits(small_task)[0]
    record = finetune(small_start, split, _small_cfg(total_iterations=100, checkpoint_interval=50))
    theta = record.best.checkpoint
    x = small_task.features[:64]
    rng = np.random.default_rng(17)
    delta = rng.normal(size=theta.params.size)
    delta /= np.linalg.norm(delta)

    def discrepancy(eps):
        plus = model_from_checkpoint(
            type(theta)(theta.params + eps * delta, theta.manifest, 0, "p"))
        minus = model_from_checkpoint(
            type(theta)(theta.params - eps * delta, theta.manifest, 0, "m"))
        ens = ensemble_predict([plus, minus], x)
        wa = weight_average([checkpoint_from_model(plus), checkpoint_from_model(minus)])
        return float(np.max(np.abs(ens - wa.predict_proba(x))))

    eps = 0.005
    d1, d2 = discrepancy(eps), discrepancy(2 * eps)
    assert d1 > 1e-12 * 100
    assert 3.0 <= d2 / d1 <= 5.0


def test_build_variants_single_checkpoint_wa_is_that_checkpoint(small_task, small_start):
    split = leave_one_out_splits(small_task)[0]
    record = finetune(small_start, split, FineTuneConfig(total_iterations=0, seed=5))
    arms = build_variants([p.checkpoint for p in record.trail])
    assert sorted(arms) == ["ensemble", "wa"]
    np.testing.assert_array_equal(arms["wa"].params, record.trail[0].checkpoint.params)
    assert len(arms["ensemble"].models) == 1


def test_build_variants_multi_run_member_count(small_task, small_start):
    split = leave_one_out_splits(small_task)[0]
    records = [
        finetune(small_start, split, _small_cfg(seed=1, lr=lr))
        for lr in (0.02, 0.015, 0.01, 0.008, 0.005, 0.003)
    ]
    arms = build_variants(r.best.checkpoint for r in records)
    assert len(arms["ensemble"].models) == 6
    x, y = small_task.env_arrays(split.test_env)
    for arm in arms.values():
        assert 0.0 <= evaluate(arm, x, y) <= 1.0


def test_build_variants_rejects_empty_list():
    with pytest.raises(ValidationError):
        build_variants([])


def test_pretrain_zero_iterations_equals_init():
    corpus = gen_pretrain_corpus(False, 500, seed=3)
    arch = {"width": 8, "depth": 1, "block_hidden": 8, "input_dim": corpus.n_features}
    ck = pretrain(arch, corpus, OptimizerSettings(iterations=0), seed=9)
    fresh = new_residual_model(corpus.n_features, 8, 1, corpus.num_classes, seed=9)
    np.testing.assert_array_equal(ck.params, fresh.params)
    assert ck.provenance == "pretrained-plain"


def test_pretrain_trajectory_snapshots_only_at_multiples():
    corpus = gen_pretrain_corpus(False, 500, seed=3)
    arch = {"width": 8, "depth": 1, "block_hidden": 8, "input_dim": corpus.n_features}
    cfg = OptimizerSettings(iterations=50, batch_size=16)
    ck, trace = pretrain_trajectory(arch, corpus, cfg, seed=2, snapshot_every=20)
    assert [it for it, _ in trace] == [20, 40]
    np.testing.assert_array_equal(ck.params, pretrain(arch, corpus, cfg, seed=2).params)


def test_pretrain_determinism_and_rich_tag():
    corpus = gen_pretrain_corpus(True, 2000, seed=4)
    arch = {"width": 8, "depth": 1, "block_hidden": 8, "input_dim": corpus.n_features}
    cfg = OptimizerSettings(lr=0.01, iterations=100, batch_size=32)
    ck1 = pretrain(arch, corpus, cfg, seed=2)
    ck2 = pretrain(arch, corpus, cfg, seed=2)
    np.testing.assert_array_equal(ck1.params, ck2.params)
    assert ck1.provenance == "pretrained-rich"


def test_pretrain_accuracy_improves():
    corpus = gen_pretrain_corpus(True, 20_000, seed=5)
    arch = {"width": 16, "depth": 2, "block_hidden": 16, "input_dim": corpus.n_features}
    cfg = OptimizerSettings(lr=0.01, weight_decay=1e-5, iterations=900, batch_size=64)
    _, trace = pretrain_trajectory(arch, corpus, cfg, seed=1, snapshot_every=30)
    accs = np.array([a for _, a in trace])
    smoothed = np.convolve(accs, np.ones(10) / 10.0, mode="valid")
    assert np.all(np.diff(smoothed) >= -0.01)  # monotone up to smoothing noise
    assert accs[-1] > accs[0] + 0.05
    assert accs[-1] > 0.5  # far above the 1/8 chance level


def test_pretrain_diverges_to_run_error():
    corpus = gen_pretrain_corpus(False, 500, seed=6)
    arch = {"width": 8, "depth": 1, "block_hidden": 8, "input_dim": corpus.n_features}
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RunError) as exc:
        pretrain(arch, corpus, OptimizerSettings(lr=1e9, iterations=50, batch_size=16), seed=0)
    assert exc.value.iteration is not None


def _relabeled(ds, labels, num_classes):
    return EnvDataset(ds.features, labels, ds.env_ids, {**ds.manifest, "num_classes": num_classes})


@pytest.mark.parametrize("bad", [2, -1])
def test_labels_outside_head_classes_rejected(small_task, small_start, bad):
    # the fused step indexes probabilities by label, so a label the head
    # has no column for must stop training with the cross-entropy's error
    corpus = gen_pretrain_corpus(False, 500, seed=3)
    labels = corpus.labels % 2
    labels[::7] = bad
    arch = {"width": 8, "depth": 1, "block_hidden": 8, "input_dim": corpus.n_features}
    with pytest.raises(ValidationError, match="labels out of range"):
        pretrain(arch, _relabeled(corpus, labels, 2), OptimizerSettings(iterations=5, batch_size=16), seed=0)

    labels = small_task.labels.copy()
    labels[::7] = bad
    split = leave_one_out_splits(_relabeled(small_task, labels, 2))[0]
    with pytest.raises(ValidationError, match="labels out of range"):
        finetune(small_start, split, _small_cfg())


def test_run_sweep_single_point_selection(small_task, small_start):
    splits = [leave_one_out_splits(small_task)[0]]
    result = run_sweep(
        small_start, splits, grid=[(0.01, 0.0)], recipes=["erm"], seeds=[1],
        base_cfg=_small_cfg(),
    )
    assert len(result.runs) == 1
    chosen = result.selected["erm"]["0"]
    assert chosen["run_id"] == result.runs[0].run_id
    assert result.aggregate_ood["erm"] == result.runs[0].ood_acc
    assert result.multi_run == {"erm": {}}  # one member: no multi-run arm


def test_multi_run_arms_need_two_members(small_task, small_start):
    # the one rule that refuses small multi-run arms: one grid point at two
    # seeds makes two members only when the seeds are pooled
    splits = leave_one_out_splits(small_task)[:2]
    for pool_seeds in (False, True):
        result = run_sweep(small_start, splits, grid=[(0.01, 0.0)], recipes=["erm"], seeds=[1, 2],
                           base_cfg=_small_cfg(), pool_seeds=pool_seeds)
        if pool_seeds:
            assert {split: sorted(arms) for split, arms in result.multi_run["erm"].items()} == {
                "0": ["pooled"], "1": ["pooled"]}
        else:
            assert result.multi_run == {"erm": {}}


def test_run_sweep_parallel_matches_serial(small_task, small_start):
    splits = leave_one_out_splits(small_task)[:2]
    kwargs = dict(
        grid=[(0.02, 0.0), (0.01, 1e-4)], recipes=["erm", "dropout90"], seeds=[1, 2],
        base_cfg=_small_cfg(),
    )
    # 8 groups of 2 grid points on 2 and 3 workers, then 2 groups on 3 workers
    for n_splits, seeds, workers in ((2, [1, 2], 2), (2, [1, 2], 3), (1, [1], 3)):
        kwargs["seeds"] = seeds
        serial = run_sweep(small_start, splits[:n_splits], parallel=1, **kwargs)
        parallel = run_sweep(small_start, splits[:n_splits], parallel=workers, **kwargs)
        assert serial.to_jsonl_lines() == parallel.to_jsonl_lines()
        assert json.dumps(serial.summary_dict(), sort_keys=True) == json.dumps(
            parallel.summary_dict(), sort_keys=True
        )


def _watch_sweep_processes(monkeypatch, tmp_path):
    """Record each worker process a sweep starts, and which process runs each group (worker or caller)."""
    from finedrop import protocol

    forked, log = [], tmp_path / "group-pids"

    class RecordedProcess(multiprocessing.Process):
        def start(self):
            forked.append(self)
            super().start()

    real = protocol._execute_sweep_group

    def logged(start, split, cfgs, recipe, split_index):
        with open(log, "a") as fh:  # forked workers inherit this binding and append their own pid
            fh.write(f"{os.getpid()}\n")
        return real(start, split, cfgs, recipe, split_index)

    monkeypatch.setattr(multiprocessing, "Process", RecordedProcess)  # `_execute_jobs` looks it up when it forks
    monkeypatch.setattr(protocol, "_execute_sweep_group", logged)
    return forked, lambda: [int(pid) for pid in log.read_text().split()]


@pytest.mark.parametrize("n_splits, parallel, workers", [(2, 2, 1), (1, 3, 1), (2, 4, 3)])
def test_sweep_caller_is_one_of_its_parallel_processes(small_task, small_start, monkeypatch, tmp_path,
                                                        n_splits, parallel, workers):
    # parallel N runs groups on N processes, this one included: min(N - 1, groups - 1) workers
    forked, pids = _watch_sweep_processes(monkeypatch, tmp_path)
    splits = leave_one_out_splits(small_task)[:n_splits]
    result = run_sweep(small_start, splits, grid=[(0.02, 0.0)], recipes=["erm", "dropout90"], seeds=[1],
                       base_cfg=_small_cfg(total_iterations=40), parallel=parallel)
    assert len(result.runs) == 2 * n_splits
    assert len(forked) == workers
    assert [worker.exitcode for worker in forked] == [0] * workers  # each joined, after it sent its groups
    assert len(pids()) == 2 * n_splits
    assert os.getpid() in pids()  # the caller runs at least the last group
    assert len(set(pids()) - {os.getpid()}) <= workers


def test_sweep_processes_claim_each_group_once():
    from finedrop import protocol

    unclaimed = multiprocessing.Array("l", [0, 5])  # workers claim from the front, the caller from the back
    claims = [protocol._claim(unclaimed, front) for front in (True, False, True, False, False, True)]
    assert claims == [0, 4, 1, 3, 2, None]


def _claim_until_none_is_left(unclaimed, front, out):
    from finedrop import protocol

    # at most one claim past the 20000 indices, so a broken range cannot claim forever
    out.put((front, list(itertools.islice(iter(lambda: protocol._claim(unclaimed, front), None), 20001))))


def test_concurrent_claims_take_each_group_exactly_once():
    # more processes than cores claim from both ends at once: a lost update would claim an index twice or never
    unclaimed, out = multiprocessing.Array("l", [0, 20000]), multiprocessing.Queue()
    procs = [multiprocessing.Process(target=_claim_until_none_is_left, args=(unclaimed, i % 2 == 0, out))
             for i in range(4)]
    for proc in procs:
        proc.start()
    shares = [out.get(timeout=60) for _ in procs]  # drained before the joins
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert sorted(index for _, claims in shares for index in claims) == list(range(20000))
    for front, claims in shares:
        assert claims == sorted(claims, reverse=not front)


def test_a_busy_worker_holds_back_no_group(small_task, small_start, monkeypatch, tmp_path):
    # a process claims its next group only when it is free: while the worker trains a slow group,
    # the caller trains all the others
    from finedrop import protocol

    forked, pids = _watch_sweep_processes(monkeypatch, tmp_path)
    logged, caller = protocol._execute_sweep_group, os.getpid()

    def slow_in_a_worker(*args):
        if os.getpid() != caller:
            time.sleep(0.5)
        return logged(*args)

    monkeypatch.setattr(protocol, "_execute_sweep_group", slow_in_a_worker)
    run_sweep(small_start, leave_one_out_splits(small_task)[:2], grid=[(0.02, 0.0)], recipes=["erm", "dropout90"],
              seeds=[1, 2], base_cfg=_small_cfg(total_iterations=40), parallel=2)
    assert len(forked) == 1 and len(pids()) == 8
    assert pids().count(caller) >= 7


def test_one_group_sweep_forks_no_pool(small_task, small_start, monkeypatch, tmp_path):
    forked, pids = _watch_sweep_processes(monkeypatch, tmp_path)
    result = run_sweep(small_start, [leave_one_out_splits(small_task)[0]], grid=[(0.02, 0.0), (0.01, 0.0)],
                       recipes=["erm"], seeds=[1], base_cfg=_small_cfg(total_iterations=40), parallel=2)
    assert [r.status for r in result.runs] == ["ok", "ok"]
    assert forked == [] and pids() == [os.getpid()]


def test_sweep_group_error_is_the_same_at_any_parallel(small_task):
    # a start checkpoint that cannot read the dataset fails every group, in the workers and in the caller
    start = checkpoint_from_model(new_residual_model(small_task.n_features + 1, 8, 1, 2, seed=0), 0, "start")
    splits = leave_one_out_splits(small_task)[:2]
    messages = []
    for parallel in (1, 2):
        with pytest.raises(ValidationError) as exc:
            run_sweep(start, splits, grid=[(0.02, 0.0)], recipes=["erm", "dropout90"], seeds=[1],
                      base_cfg=_small_cfg(total_iterations=40), parallel=parallel)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == (
        f"checkpoint expects {small_task.n_features + 1} input features, dataset has {small_task.n_features}")


@pytest.mark.parametrize("failing, raised", [({1, 3}, 1), ({3}, 3), ({0, 2}, 0)])
def test_sweep_raises_the_first_failing_group_in_job_order(small_task, small_start, monkeypatch, failing, raised):
    # 4 groups at parallel 2: one worker takes them from the front, the caller from the back,
    # and whichever process fails, the error raised is that of the lowest-index failing group
    from finedrop import protocol

    real = protocol._execute_sweep_group

    def failing_groups(start, split, cfgs, recipe, split_index):
        index = 2 * split_index + (recipe == "dropout90")
        if index in failing:
            raise RunError(f"group {index} failed")
        return real(start, split, cfgs, recipe, split_index)

    monkeypatch.setattr(protocol, "_execute_sweep_group", failing_groups)
    with pytest.raises(RunError, match=f"^group {raised} failed$"):
        run_sweep(small_start, leave_one_out_splits(small_task)[:2], grid=[(0.02, 0.0)],
                  recipes=["erm", "dropout90"], seeds=[1], base_cfg=_small_cfg(total_iterations=40), parallel=2)


@pytest.mark.parametrize("error", [RunError, KeyboardInterrupt])
def test_sweep_whose_caller_side_group_raises_leaves_no_process(small_task, small_start, monkeypatch, error):
    # a group error is raised once every worker has sent its groups; an interrupt at once, with the
    # range emptied: either way, every worker is joined before run_sweep returns
    from finedrop import protocol

    real, caller = protocol._execute_sweep_group, os.getpid()

    def raises_in_the_caller(*args):
        if os.getpid() == caller:
            raise error("a caller-side group failed")
        return real(*args)

    monkeypatch.setattr(protocol, "_execute_sweep_group", raises_in_the_caller)
    with pytest.raises(error, match="^a caller-side group failed$"):
        run_sweep(small_start, leave_one_out_splits(small_task)[:2], grid=[(0.02, 0.0)],
                  recipes=["erm", "dropout90"], seeds=[1, 2], base_cfg=_small_cfg(total_iterations=40), parallel=2)
    assert multiprocessing.active_children() == []


def test_sweep_run_computes_its_holdout_once(small_task, small_start, monkeypatch):
    from finedrop import protocol

    seeds = []
    real = protocol.split_holdout
    monkeypatch.setattr(protocol, "split_holdout", lambda split, seed: seeds.append(seed) or real(split, seed))
    splits = [leave_one_out_splits(small_task)[0]]
    result = run_sweep(small_start, splits, grid=[(0.02, 0.0), (0.01, 0.0)], recipes=["erm", "dropout90"],
                       seeds=[1], base_cfg=_small_cfg())
    assert len(result.runs) == 4
    # one per group (its grid points' fine-tunes and single-run arms), one per recipe's multi-run arms
    assert len(seeds) == 2 + 2


@pytest.mark.parametrize("recipe", ["erm", "dropout90"])
def test_single_run_arms_from_cached_probabilities_equal_rebuilt_arms(small_task, small_start, recipe,
                                                                      trail_copies):
    # a group asked for arms sums each run's trail as it is taken; each sum
    # over n checkpoints, divided by n, has the bits of the mean it stands
    # for, and the run keeps only its best checkpoint
    from finedrop import protocol

    split = leave_one_out_splits(small_task)[0]
    cfg = Recipe.parse(recipe).apply(_small_cfg())
    holdout = split_holdout(split, cfg.seed)
    (ft,) = protocol._finetune_group(small_start, split, [cfg], arms=True)
    ((trail,),) = trail_copies
    assert ft.val_idx.tobytes() == holdout[1].tobytes()
    x_val, y_val = small_task.features[holdout[1]], small_task.labels[holdout[1]]
    x_test = small_task.env_arrays(split.test_env)[0]
    members = [model_from_checkpoint(c) for c in trail]
    assert [(p.iteration, p.iid_val_acc) for p in ft.trail] == [
        (c.iteration, evaluate(m, x_val, y_val)) for c, m in zip(trail, members)]
    assert ft.best_index == int(np.argmax([p.iid_val_acc for p in ft.trail]))
    assert [i for i, p in enumerate(ft.trail) if p.checkpoint is not None] == [ft.best_index]
    assert ft.trail[ft.best_index].checkpoint.params.tobytes() == trail[ft.best_index].params.tobytes()
    n = len(trail)
    assert (ft.param_sum / n).tobytes() == protocol._mean_params(trail).tobytes()
    assert (ft.holdout_sum / n).tobytes() == ensemble_predict(members, x_val).tobytes()
    assert (ft.test_sum / n).tobytes() == ensemble_predict(members, x_test).tobytes()
    (record,) = protocol._execute_sweep_group(small_start, split, [cfg], "r", 0)
    assert _trail_bytes(trail_copies[1][0]) == _trail_bytes(trail)
    oracle = _scored_arms(build_variants(trail), split, holdout[1])
    assert record.variants == {"wa_single": oracle["wa"], "ensemble_single": oracle["ensemble"]}


def _scored_arms(arms, split, val_idx):
    """The oracle: evaluate of each build_variants arm on the holdout and the test environment."""
    ds = split.dataset
    x_test, y_test = ds.env_arrays(split.test_env)
    return {name: {"iid": evaluate(arm, ds.features[val_idx], ds.labels[val_idx]),
                   "ood": evaluate(arm, x_test, y_test)} for name, arm in arms.items()}


@pytest.mark.parametrize("pool_seeds", [False, True], ids=["per-seed", "pooled"])
def test_sweep_arms_equal_rebuilt_arms(small_task, small_start, pool_seeds, trail_copies):
    splits = leave_one_out_splits(small_task)[:2]
    recipes, seeds = ["erm", "dropout90"], [1, 2]
    result = run_sweep(small_start, splits, grid=[(0.02, 0.0), (0.01, 0.0)], recipes=recipes, seeds=seeds,
                       base_cfg=_small_cfg(), pool_seeds=pool_seeds)
    assert {r.status for r in result.runs} == {"ok"}
    jobs = [(split_index, recipe, seed) for split_index in range(len(splits)) for recipe in recipes for seed in seeds]
    assert len(trail_copies) == len(jobs)
    for run in result.runs:
        # a record keeps only its best checkpoint: the oracle is the trail of the solo run of its config
        split = splits[run.split_index]
        holdout = split_holdout(split, run.seed)
        solo = finetune(small_start, split, run.config)
        trail = trail_copies[-1][0]
        grouped = trail_copies[jobs.index((run.split_index, run.recipe, run.seed))][run.grid_index]
        assert len(trail) == 3 and _trail_bytes(grouped) == _trail_bytes(trail)
        assert run.best.checkpoint.params.tobytes() == solo.best.checkpoint.params.tobytes()
        oracle = _scored_arms(build_variants(trail), split, holdout[1])
        assert run.variants == {"wa_single": oracle["wa"], "ensemble_single": oracle["ensemble"]}
    groups = [("pooled", seeds)] if pool_seeds else [(str(s), [s]) for s in seeds]
    for recipe in recipes:
        for split_index, split in enumerate(splits):
            assert sorted(result.multi_run[recipe][str(split_index)]) == sorted(tag for tag, _ in groups)
            for tag, group in groups:
                members = [r for r in result.runs
                           if r.recipe == recipe and r.split_index == split_index and r.seed in group]
                assert result.multi_run[recipe][str(split_index)][tag] == _scored_arms(
                    build_variants(r.best.checkpoint for r in members), split, split_holdout(split, group[0])[1])


def test_arm_members_of_another_architecture_are_refused_before_any_copy(small_task, small_start,
                                                                          monkeypatch):
    from finedrop import protocol

    split = leave_one_out_splits(small_task)[0]
    val_idx = split_holdout(split, 1)[1]
    other = checkpoint_from_model(new_residual_model(small_task.n_features, 6, 1, 2, seed=0))
    monkeypatch.setattr(protocol, "model_from_checkpoint", lambda ckpt: pytest.fail("a model was built"))
    for members in ([small_start, other], [other, small_start]):
        with pytest.raises(ValidationError, match="checkpoint manifests disagree"):
            protocol._score_arms(members, split, val_idx)
    with pytest.raises(ValidationError, match="at least one checkpoint"):
        protocol._score_arms([], split, val_idx)


def test_sweep_builds_one_member_model_per_arm_scoring(small_task, small_start, monkeypatch):
    from finedrop import protocol

    built = []
    real = protocol.model_from_checkpoint
    monkeypatch.setattr(protocol, "model_from_checkpoint", lambda ckpt: built.append(ckpt.run_id) or real(ckpt))
    monkeypatch.setattr(protocol, "build_variants", lambda checkpoints: pytest.fail("build_variants called"))
    splits = [leave_one_out_splits(small_task)[0]]
    run_sweep(small_start, splits, grid=[(0.02, 0.0), (0.01, 0.0)], recipes=["erm"], seeds=[1],
              base_cfg=_small_cfg())
    # per run: the start, whose model also scores the run's single-run arms; for the multi-run
    # arms: one model for the members' holdout and test-environment probabilities and for their
    # weight average
    assert len(built) == 2 + 1
    assert built.count("weight_average") == 0


def test_evaluate_refuses_labels_that_are_not_one_per_row():
    model = new_residual_model(4, 6, 1, 2, seed=0)
    x = np.zeros((5, 4))
    for labels in (np.array([1]), np.array([0, 1]), np.zeros((5, 1), dtype=int), np.array(1)):
        with pytest.raises(ValidationError, match=r"labels must have shape \(5,\)"):
            evaluate(model, x, labels)


def test_run_sweep_records_failures_without_dying(small_task, small_start):
    splits = [leave_one_out_splits(small_task)[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_sweep(
            small_start, splits, grid=[(1e9, 0.0), (0.01, 0.0)], recipes=["erm"], seeds=[1],
            base_cfg=_small_cfg(),
        )
    statuses = sorted(r.status for r in result.runs)
    assert statuses == ["failed", "ok"]
    failed = [r for r in result.runs if r.status == "failed"][0]
    assert failed.error_iteration is not None


def _assert_grouped_equals_solo(grouped, grouped_trail, solo, solo_trail, split, holdout):
    # the trails are `trail_copies`' copies of the two runs' checkpoints,
    # which their records do not keep
    assert len(solo_trail) == len(solo.trail) and _trail_bytes(grouped_trail) == _trail_bytes(solo_trail)
    assert grouped.status == solo.status == "ok"
    assert [(p.iteration, p.iid_val_acc) for p in grouped.trail] == [(p.iteration, p.iid_val_acc) for p in solo.trail]
    assert grouped.best_index == solo.best_index and grouped.ood_acc == solo.ood_acc
    assert grouped.best.checkpoint.params.tobytes() == solo.best.checkpoint.params.tobytes()
    oracle = _scored_arms(build_variants(solo_trail), split, holdout[1])
    assert grouped.variants == {"wa_single": oracle["wa"], "ensemble_single": oracle["ensemble"]}


@pytest.mark.parametrize("rate", [0.0, 0.9])
def test_sweep_group_equals_solo_finetunes(small_task, small_start, rate, trail_copies):
    # three grid points trained in lockstep against three solo fine-tunes
    from finedrop import protocol

    split = leave_one_out_splits(small_task)[1]
    grid = [(0.02, 0.0), (0.01, 1e-3), (0.005, 1e-4)]
    cfgs = [_small_cfg(dropout_rate=rate, lr=lr, weight_decay=wd, run_id=f"g{i}") for i, (lr, wd) in enumerate(grid)]
    records = protocol._execute_sweep_group(small_start, split, cfgs, "r", 0)
    holdout = split_holdout(split, cfgs[0].seed)
    assert [(r.grid_index, r.run_id, r.recipe) for r in records] == [(i, f"g{i}", "r") for i in range(3)]
    for cfg, grouped, grouped_trail in zip(cfgs, records, trail_copies[0]):
        solo = finetune(small_start, split, cfg)
        _assert_grouped_equals_solo(grouped, grouped_trail, solo, trail_copies[-1][0], split, holdout)


def test_sweep_group_member_that_diverges_fails_as_a_solo_run(small_task, small_start, trail_copies):
    # the diverging member leaves the stack at the iteration its solo run
    # stops at, and the other members go on with no floating-point warning
    # of their own: the group raises exactly the solo run's warnings
    from finedrop import protocol

    split = leave_one_out_splits(small_task)[0]
    grid = [(0.02, 0.0), (1e9, 0.0), (0.01, 1e-4)]
    cfgs = [_small_cfg(dropout_rate=0.9, lr=lr, weight_decay=wd, run_id=f"g{i}") for i, (lr, wd) in enumerate(grid)]
    holdout = split_holdout(split, cfgs[0].seed)
    solo_warnings, group_warnings = [], []
    with np.errstate(over="call", invalid="call", divide="call", call=lambda kind, flag: solo_warnings.append(kind)):
        with pytest.raises(RunError) as solo_error:
            finetune(small_start, split, cfgs[1])
    with np.errstate(over="call", invalid="call", divide="call", call=lambda kind, flag: group_warnings.append(kind)):
        records = protocol._execute_sweep_group(small_start, split, cfgs, "r", 0)
    assert solo_warnings and group_warnings == solo_warnings
    failed = RunRecord(cfgs[1], recipe="r", split_index=0, test_env=split.test_env, train_envs=split.train_envs,
                       grid_index=1, seed=cfgs[1].seed, status="failed", error=str(solo_error.value),
                       error_iteration=solo_error.value.iteration, run_id="g1")
    assert records[1].to_json_dict() == failed.to_json_dict()
    assert records[1].error_iteration is not None
    for i in (0, 2):  # trail_copies[0] is the diverging solo run's, [1] the group's
        solo = finetune(small_start, split, cfgs[i])
        _assert_grouped_equals_solo(records[i], trail_copies[1][i], solo, trail_copies[-1][0], split, holdout)


@pytest.mark.parametrize("field, values", [("seed", (1, 2)), ("dropout_rate", (0.0, 0.9))])
def test_finetune_group_refuses_configs_that_differ_beyond_lr_wd_and_run_id(small_task, small_start, field, values):
    # the group trains every member on one feed at the first config's seed,
    # rate, batch size and schedule, so a member that differs there is refused
    from finedrop import protocol

    split = leave_one_out_splits(small_task)[0]
    cfgs = [_small_cfg(lr=0.01 * (i + 1), weight_decay=1e-4 * i, run_id=f"g{i}", **{field: value})
            for i, value in enumerate(values)]
    with pytest.raises(ValidationError, match=f"must share {field}: got {values[0]!r} and {values[1]!r}"):
        protocol._finetune_group(small_start, split, cfgs)


def test_finetune_group_feeds_its_runs_from_the_dataset_rows_uncopied(monkeypatch):
    # K = 3 runs read the dataset's own arrays through one batch stream: the
    # group allocates less than one copy of its training rows, and opens one
    # `_batches` stream for all three
    import tracemalloc

    from finedrop import protocol

    task = gen_multienv_task(3, 4, 2, 1.0, n_per_env=20_000, seed=7, n_inert=10)
    split = leave_one_out_splits(task)[2]
    train_idx, _ = split_holdout(split, 1)
    start = checkpoint_from_model(new_residual_model(task.n_features, 8, 1, 2, seed=0), 0, "start")
    cfgs = [_small_cfg(dropout_rate=0.9, lr=lr, run_id=f"g{i}") for i, lr in enumerate((0.02, 0.01, 0.005))]
    streams, batches = [], protocol._batches

    def counted(*args):
        streams.append(args[1:])
        return batches(*args)

    monkeypatch.setattr(protocol, "_batches", counted)
    tracemalloc.start()
    try:
        group = protocol._finetune_group(start, split, cfgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(ft.trail) for ft in group] == [3, 3, 3]
    assert streams == [(len(train_idx), cfgs[0].batch_size, cfgs[0].total_iterations)]
    assert peak < len(train_idx) * task.n_features * 8, (peak, len(train_idx) * task.n_features * 8)


@pytest.mark.parametrize("parallel", [1, 2])
def test_sweep_records_keep_only_their_best_checkpoint(small_task, small_start, parallel):
    # what crosses the worker pool and stays in SweepResult.runs: every trail
    # point's iteration and accuracy, and one checkpoint, the best; none for a failed run
    splits = [leave_one_out_splits(small_task)[0]]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = run_sweep(small_start, splits, grid=[(0.02, 0.0), (1e9, 0.0), (0.01, 1e-4)], recipes=["erm"],
                           seeds=[1, 2], base_cfg=_small_cfg(), parallel=parallel)
    assert sorted(r.status for r in result.runs) == ["failed"] * 2 + ["ok"] * 4
    for record in result.runs:
        kept = [i for i, p in enumerate(record.trail) if p.checkpoint is not None]
        if record.status == "ok":
            assert kept == [record.best_index] and len(record.trail) == 3
        else:
            assert kept == [] and record.trail == []
    # single-run arms need a whole trail, so a slimmed one's first None member is refused by
    # its index; multi-run arms pool the best checkpoints
    ok = [r for r in result.runs if r.status == "ok"]
    for record in ok:
        missing = 1 if record.best_index == 0 else 0
        with pytest.raises(ValidationError, match=f"member {missing} is None: a record keeps only its best"):
            build_variants(p.checkpoint for p in record.trail)
    best = np.stack([r.best.checkpoint.params for r in ok])
    np.testing.assert_array_equal(build_variants(r.best.checkpoint for r in ok)["wa"].params, np.mean(best, axis=0))


def test_finished_finetune_is_freed_without_gc(small_task, small_start):
    # nothing the training leaves behind may hold a finished fine-tune, so a
    # sweep group's models, optimizers and rows go with its last reference,
    # not at some later garbage-collection pass
    import gc
    import weakref

    from finedrop import protocol

    split = leave_one_out_splits(small_task)[0]
    gc.disable()
    try:
        group = protocol._finetune_group(small_start, split, [_small_cfg(dropout_rate=0.9)])
        record = finetune(small_start, split, group[0].cfg, trained=group[0])
        model, opt = weakref.ref(group[0].run.model), weakref.ref(group[0].run.opt)
        del group
        assert model() is None and opt() is None and len(record.trail) == 3
    finally:
        gc.enable()


def test_run_sweep_raises_when_all_runs_fail(small_task, small_start):
    splits = [leave_one_out_splits(small_task)[0]]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RunError):
        run_sweep(
            small_start, splits, grid=[(1e9, 0.0)], recipes=["erm"], seeds=[1],
            base_cfg=_small_cfg(),
        )


def test_jsonl_lines_have_no_wall_clock(small_task, small_start):
    splits = [leave_one_out_splits(small_task)[0]]
    result = run_sweep(
        small_start, splits, grid=[(0.01, 0.0)], recipes=["erm"], seeds=[1],
        base_cfg=_small_cfg(),
    )
    payload = json.loads(result.to_jsonl_lines()[0])
    assert "wall_clock" not in payload
    assert payload["schema_version"] == 1
    assert {"run_id", "recipe", "trail", "best_iteration", "ood_acc"} <= set(payload)


def test_select_best_tie_breaking_and_monotone_invariance():
    from finedrop.protocol import select_best

    def rec(iid, grid, seed):
        return type("R", (), {"best_iid_val_acc": iid, "grid_index": grid, "seed": seed})()

    records = [rec(0.90, 2, 0), rec(0.95, 1, 3), rec(0.95, 0, 5), rec(0.95, 0, 4)]
    chosen = select_best(records)
    assert (chosen.grid_index, chosen.seed) == (0, 4)  # ties: lowest grid, then lowest seed

    # argmax is invariant under a strictly increasing transform of the accs
    squashed = [rec(np.tanh(3 * r.best_iid_val_acc), r.grid_index, r.seed) for r in records]
    chosen2 = select_best(squashed)
    assert (chosen2.grid_index, chosen2.seed) == (0, 4)
    with pytest.raises(ValidationError):
        select_best([])


def _ridge_probe_accuracy(trunk_ckpt, dataset, train_n=3000, ridge=1e-3):
    """Linear probe on the penultimate representation; closed-form ridge."""
    model = model_from_checkpoint(trunk_ckpt)
    _, phi = forward(model, dataset.features)
    feats = np.hstack([phi.data, np.ones((phi.data.shape[0], 1))])
    train, test = feats[:train_n], feats[train_n:]
    y_train = dataset.labels[:train_n]
    y_test = dataset.labels[train_n:]
    onehot = np.eye(dataset.num_classes)[y_train]
    w = np.linalg.solve(train.T @ train + ridge * np.eye(train.shape[1]), train.T @ onehot)
    preds = np.argmax(test @ w, axis=1)
    return float(np.mean(preds == y_test))


def test_rich_pretraining_probes_better_on_transformed_data():
    # the oracle experiment behind the rich/plain corpus distinction: probe
    # both trunks on held-out erased (transformed) data, 5 seeds
    wins = 0
    arch = {"width": 16, "depth": 2, "block_hidden": 16}
    opt = OptimizerSettings(lr=0.01, weight_decay=1e-5, iterations=1500, batch_size=64)
    diffs = []
    for seed in range(5):
        probe_data = gen_pretrain_corpus(True, 5000, seed=7000 + seed)
        accs = {}
        for kind in (True, False):
            corpus = gen_pretrain_corpus(kind, 20_000, seed=800 + seed)
            ck = pretrain({**arch, "input_dim": corpus.n_features}, corpus, opt, seed=seed)
            accs[kind] = _ridge_probe_accuracy(ck, probe_data)
        diffs.append(accs[True] - accs[False])
        wins += accs[True] > accs[False]
    assert np.mean(diffs) > 0.0
    assert wins >= 4


def test_sweep_result_save_replaces_each_file_whole(tmp_path):
    # a save whose summary fails partway leaves the earlier summary.json as
    # it was and no temporary file behind; runs.jsonl, written first, is whole
    result = SweepResult([], {"erm": {}}, {"erm": 0.5}, {}, {}, {"splits": 2})
    result.save(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["runs.jsonl", "summary.json"]
    result.multi_run = {"erm": 1, "zz": object()}  # sorted last, so json.dump has begun writing
    with pytest.raises(TypeError, match="not JSON serializable"):
        result.save(tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
