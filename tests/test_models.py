import copy
import gc
import itertools
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from finedrop import autodiff as ad
from finedrop.errors import FormatError, UsageError, ValidationError
from finedrop.models import (
    EVAL_CHUNK_ROWS,
    StackedStep,
    _affine,
    _reduce_classes,
    _relu_inplace,
    _softmax_rows,
    block_contributions,
    check_labels,
    checkpoint_from_model,
    forward,
    load_checkpoint,
    model_from_checkpoint,
    new_residual_model,
    reinit_head,
    write_checkpoint,
)
from finedrop.optim import SgdOptimizer
from finedrop.regularizers import DropoutSpec, batch_dropout_mask


def test_same_seed_same_dims_identical():
    m1 = new_residual_model(5, 8, 2, 3, seed=42)
    m2 = new_residual_model(5, 8, 2, 3, seed=42)
    np.testing.assert_array_equal(m1.params, m2.params)


def test_different_seed_differs():
    m1 = new_residual_model(5, 8, 2, 3, seed=1)
    m2 = new_residual_model(5, 8, 2, 3, seed=2)
    assert not np.array_equal(m1.params, m2.params)


def test_depth_zero_phi_is_projection():
    model = new_residual_model(4, 6, 0, 2, seed=0)
    x = np.random.default_rng(0).normal(size=(3, 4))
    _, phi = forward(model, x)
    np.testing.assert_array_equal(phi.data, x @ model.proj_w.data + model.proj_b.data)


def test_parameter_count_matches_architecture_formula():
    in_dim, width, depth, hidden, classes = 7, 8, 3, 8, 4
    model = new_residual_model(in_dim, width, depth, classes, seed=0, block_hidden=hidden)
    expected = (
        in_dim * width + width
        + depth * (width * hidden + hidden + hidden * width + width)
        + width * classes + classes
    )
    assert model.params.size == expected
    assert checkpoint_from_model(model).manifest["total"] == expected


def test_invalid_dims_rejected():
    with pytest.raises(ValidationError):
        new_residual_model(0, 4, 1, 2, seed=0)
    with pytest.raises(ValidationError):
        new_residual_model(4, 4, -1, 2, seed=0)
    with pytest.raises(ValidationError):
        new_residual_model(4, 4, 1, 0, seed=0)


def test_forward_rate_zero_train_equals_eval_bitwise():
    model = new_residual_model(5, 10, 2, 3, seed=3)
    # fresh blocks are zero-initialized; randomize so the trunk is nontrivial
    rng = np.random.default_rng(4)
    for blk in model.blocks:
        blk.w2.data[...] = rng.normal(size=blk.w2.shape) * 0.3
    x = rng.normal(size=(6, 5))
    train_logits, _ = forward(model, x, DropoutSpec.seeded(0.0, seed=1))
    eval_logits, _ = forward(model, x, None)
    np.testing.assert_array_equal(train_logits.data, eval_logits.data)


def test_forward_zeroed_blocks_phi_is_projection():
    model = new_residual_model(5, 10, 3, 2, seed=7)
    # second block layers start at zero, so f_i is already the zero function
    x = np.random.default_rng(1).normal(size=(4, 5))
    _, phi = forward(model, x)
    np.testing.assert_array_equal(phi.data, x @ model.proj_w.data + model.proj_b.data)


def test_eval_logits_are_head_applied_to_phi():
    model = new_residual_model(6, 8, 2, 3, seed=9)
    rng = np.random.default_rng(2)
    for blk in model.blocks:
        blk.w2.data[...] = rng.normal(size=blk.w2.shape) * 0.5
    x = rng.normal(size=(5, 6))
    logits, phi = forward(model, x)
    np.testing.assert_array_equal(logits.data, phi.data @ model.head_w.data + model.head_b.data)


def test_block_contributions_zero_blocks():
    model = new_residual_model(4, 6, 2, 2, seed=5)
    x = np.random.default_rng(3).normal(size=(3, 4))
    terms = block_contributions(model, x)
    assert len(terms) == 3
    np.testing.assert_array_equal(terms[0].data, x @ model.proj_w.data + model.proj_b.data)
    np.testing.assert_array_equal(terms[1].data, np.zeros((3, 6)))
    np.testing.assert_array_equal(terms[2].data, np.zeros((3, 6)))


def test_block_contributions_depth_one_is_f_of_projection():
    model = new_residual_model(4, 6, 1, 2, seed=6)
    rng = np.random.default_rng(8)
    blk = model.blocks[0]
    blk.w2.data[...] = rng.normal(size=blk.w2.shape)
    x = rng.normal(size=(2, 4))
    terms = block_contributions(model, x)
    h0 = x @ model.proj_w.data + model.proj_b.data
    f1 = np.maximum(h0 @ blk.w1.data + blk.b1.data, 0.0) @ blk.w2.data + blk.b2.data
    np.testing.assert_array_equal(terms[1].data, f1)


def test_telescoping_sum_is_exact():
    rng = np.random.default_rng(123)
    for _ in range(50):
        model = new_residual_model(
            int(rng.integers(2, 6)), int(rng.integers(2, 10)), int(rng.integers(0, 4)),
            2, seed=int(rng.integers(0, 1000)),
        )
        for blk in model.blocks:
            blk.w2.data[...] = rng.normal(size=blk.w2.shape)
        x = rng.normal(size=(int(rng.integers(1, 5)), model.input_dim))
        _, phi = forward(model, x)
        terms = block_contributions(model, x)
        total = terms[0].data
        for t in terms[1:]:
            total = total + t.data
        assert np.array_equal(total, phi.data), "telescoping identity must hold bit-for-bit"


def test_logits_depend_on_trunk_only_through_phi():
    # two trunks producing the same phi give the same eval logits
    model = new_residual_model(4, 6, 2, 3, seed=11)
    rng = np.random.default_rng(12)
    for blk in model.blocks:
        blk.w2.data[...] = rng.normal(size=blk.w2.shape) * 0.2
    x = rng.normal(size=(5, 4))
    logits_a, phi_a = forward(model, x)
    # swap the two blocks; phi changes in general, so instead feed phi
    # through the head directly and compare
    head_out = phi_a.data @ model.head_w.data + model.head_b.data
    np.testing.assert_array_equal(logits_a.data, head_out)


def test_reinit_head_preserves_trunk_bitwise():
    model = new_residual_model(5, 7, 2, 3, seed=20)
    rng = np.random.default_rng(21)
    for blk in model.blocks:
        blk.w2.data[...] = rng.normal(size=blk.w2.shape)
    trunk_before = np.concatenate([t.data.reshape(-1) for t in model.trunk_parameters()])
    fresh = reinit_head(model, num_classes=4, seed=99)
    trunk_after = np.concatenate([t.data.reshape(-1) for t in fresh.trunk_parameters()])
    np.testing.assert_array_equal(trunk_before, trunk_after)
    assert fresh.num_classes == 4


def test_reinit_head_same_seed_same_head():
    model = new_residual_model(5, 7, 1, 3, seed=22)
    h1 = reinit_head(model, 3, seed=5)
    h2 = reinit_head(model, 3, seed=5)
    np.testing.assert_array_equal(h1.head_w.data, h2.head_w.data)


def test_reinit_then_restore_old_head_roundtrips():
    model = new_residual_model(5, 7, 1, 3, seed=23)
    old_w, old_b = model.head_w.data.copy(), model.head_b.data.copy()
    fresh = reinit_head(model, 3, seed=77)
    fresh.head_w.data[...] = old_w
    fresh.head_b.data[...] = old_b
    np.testing.assert_array_equal(fresh.params, model.params)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = new_residual_model(6, 9, 2, 4, seed=31)
    rng = np.random.default_rng(32)
    for blk in model.blocks:
        blk.w2.data[...] = rng.normal(size=blk.w2.shape)
    path = tmp_path / "model.ckpt"
    saved = checkpoint_from_model(model, iteration=123, run_id="test-run")
    write_checkpoint(saved, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(saved.params, loaded.params)
    assert loaded.iteration == 123 and loaded.run_id == "test-run"
    rebuilt = model_from_checkpoint(loaded)
    np.testing.assert_array_equal(rebuilt.params, model.params)


def test_truncated_checkpoint_raises_format_error(tmp_path):
    model = new_residual_model(4, 5, 1, 2, seed=33)
    path = tmp_path / "model.ckpt"
    write_checkpoint(checkpoint_from_model(model, 0, "r"), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FormatError) as exc:
        load_checkpoint(path)
    assert exc.value.offset is not None


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_parameter_raises_format_error(tmp_path, value):
    model = new_residual_model(4, 5, 1, 2, seed=35)
    path = tmp_path / "model.ckpt"
    ckpt = checkpoint_from_model(model, 0, "r")
    write_checkpoint(ckpt, path)
    raw = path.read_bytes()
    body = len(raw) - ckpt.params.nbytes
    bad = ckpt.params.copy()
    bad[7] = value
    path.write_bytes(raw[:body] + bad.astype("<f8").tobytes())
    with pytest.raises(FormatError) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value) and "parameter 7" in str(exc.value)
    assert exc.value.offset == body + 7 * 8


def test_garbage_manifest_raises_format_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not json at all\n\x00\x01")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_forward_validates_input_shape():
    model = new_residual_model(4, 5, 1, 2, seed=35)
    with pytest.raises(ValidationError):
        forward(model, np.ones((3, 7)))


def test_predict_proba_rows_sum_to_one():
    model = new_residual_model(4, 5, 1, 3, seed=36)
    probs = model.predict_proba(np.random.default_rng(0).normal(size=(10, 4)))
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), rtol=1e-12)


def test_permuting_identical_contribution_blocks_leaves_logits_unchanged():
    # dropout locality: with the head fixed, eval logits see the trunk only
    # through phi. Two blocks whose second layers are zero contribute
    # nothing, so swapping them changes trunk parameters but not phi, and
    # the logits must be bit-identical.
    model = new_residual_model(5, 7, 2, 3, seed=40)
    rng = np.random.default_rng(41)
    for blk in model.blocks:  # distinct first layers, zero second layers
        blk.w1.data[...] = rng.normal(size=blk.w1.shape)
    x = rng.normal(size=(6, 5))
    logits_before, phi_before = forward(model, x)

    model.blocks[0], model.blocks[1] = model.blocks[1], model.blocks[0]
    trunk_changed = not np.array_equal(
        model.blocks[0].w1.data, model.blocks[1].w1.data
    )
    logits_after, phi_after = forward(model, x)
    assert trunk_changed
    np.testing.assert_array_equal(phi_before.data, phi_after.data)
    np.testing.assert_array_equal(logits_before.data, logits_after.data)


def test_model_from_checkpoint_skips_random_init(monkeypatch):
    from finedrop import models

    ckpt = checkpoint_from_model(new_residual_model(4, 5, 2, 3, seed=50))

    def no_init(*args, **kwargs):
        raise AssertionError("model_from_checkpoint drew a random init")

    monkeypatch.setattr(models, "_uniform_fan_in", no_init)
    rebuilt = model_from_checkpoint(ckpt)
    np.testing.assert_array_equal(rebuilt.params, ckpt.params)
    assert rebuilt.meta == {"seed": 50, "provenance": "scratch"}
    rebuilt.proj_w.data[0, 0] += 1.0  # the model views a copy of the checkpoint's vector
    assert rebuilt.proj_w.data[0, 0] != ckpt.params[0]


def test_model_from_checkpoint_rejects_manifest_mismatches():
    ckpt = checkpoint_from_model(new_residual_model(4, 5, 1, 2, seed=51))
    shapes = ckpt.manifest["param_shapes"]
    swapped = [shapes[1], shapes[0]] + shapes[2:]
    for manifest, needle in (
        ({**ckpt.manifest, "param_shapes": swapped}, "does not match architecture slot"),
        ({**ckpt.manifest, "param_shapes": shapes[:-1]}, "parameters"),
        ({**ckpt.manifest, "total": ckpt.manifest["total"] + 1}, "manifest total"),
        ({**ckpt.manifest, "provenance": "mystery"}, "provenance"),
        ({**ckpt.manifest, "total": "abc"}, "manifest total 'abc'"),
        ({**ckpt.manifest, "arch": {**ckpt.manifest["arch"], "width": 5.0}}, "arch width must be an integer"),
        ({**ckpt.manifest, "arch": {k: v for k, v in ckpt.manifest["arch"].items() if k != "width"}},
         "arch width"),
    ):
        with pytest.raises(ValidationError, match=needle):
            model_from_checkpoint(type(ckpt)(ckpt.params, manifest, 0, "x"))
    no_seed = {**ckpt.manifest, "seed": None}
    assert model_from_checkpoint(type(ckpt)(ckpt.params, no_seed, 0, "x")).meta["seed"] == 0


def test_reinit_head_copies_trunk_and_keeps_meta():
    model = new_residual_model(5, 7, 1, 3, seed=52)
    model.meta["provenance"] = "pretrained-rich"
    fresh = reinit_head(model, 2, seed=1)
    assert fresh.meta == model.meta and fresh.meta is not model.meta
    assert all(a.data is not b.data for a, b in zip(fresh.trunk_parameters(), model.trunk_parameters()))
    assert [name for name, _ in fresh.named_parameters()] == [name for name, _ in model.named_parameters()]


def test_parameters_are_views_of_the_model_vector():
    model = new_residual_model(5, 7, 2, 3, seed=53)
    assert all(t.data.base is model.params for t in model.parameters())
    np.testing.assert_array_equal(model.params, np.concatenate([t.data.ravel() for t in model.parameters()]))
    for fresh in (reinit_head(model, 4, seed=1), model_from_checkpoint(checkpoint_from_model(model))):
        assert all(t.data.base is fresh.params for t in fresh.parameters())
        assert not np.shares_memory(fresh.params, model.params)


def test_step_moves_the_model_vector_in_place():
    model = new_residual_model(5, 7, 2, 3, seed=54)
    params, before = model.params, model.params.copy()
    opt = SgdOptimizer({"head": model.head_parameters(), "trunk": model.trunk_parameters()}, lr=0.5,
                       total_iterations=10, momentum=0.0, group_multipliers={"head": 2.0})
    for t in model.parameters():
        t.grad = np.ones(t.shape)
    opt.step()
    assert model.params is params and all(t.data.base is params for t in model.parameters())
    head = model.head_w.data.size + model.head_b.data.size  # the group given first is last in the vector
    np.testing.assert_array_equal(params, before - np.repeat([0.5, 1.0], [params.size - head, head]))
    np.testing.assert_array_equal(checkpoint_from_model(model).params, params)


def test_rebound_parameter_is_refused():
    model = new_residual_model(5, 5, 1, 2, seed=57)
    model.blocks[0].w2.data = np.eye(5)  # detached: model.params no longer holds it
    for make in (checkpoint_from_model, lambda m: reinit_head(m, 2, seed=0)):
        with pytest.raises(UsageError, match="block0.w2"):
            make(model)


def test_reordered_blocks_are_refused():
    # swapping two blocks in place keeps every view on model.params, but a
    # checkpoint names the vector in the new order and would rebuild a
    # different model
    model = new_residual_model(5, 6, 3, 2, seed=58)
    rng = np.random.default_rng(58)
    for t in model.parameters():
        t.data[...] = rng.normal(size=t.shape)
    checkpoint_from_model(model)  # accepted before the swap, which leaves every array it checked in place
    model.blocks[0], model.blocks[2] = model.blocks[2], model.blocks[0]
    for make in (checkpoint_from_model, lambda m: reinit_head(m, 2, seed=0)):
        with pytest.raises(UsageError, match="block0.w1 is not at its offset"):
            make(model)


def test_rebound_parameter_vector_is_refused():
    model = new_residual_model(5, 5, 1, 2, seed=61)
    checkpoint_from_model(model)
    model.params = model.params.copy()  # the parameters still view the old vector
    with pytest.raises(UsageError, match="proj_w no longer views"):
        checkpoint_from_model(model)


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_model_copies_view_their_own_vector(round_trip):
    model = new_residual_model(4, 5, 2, 3, seed=59)
    model.meta["provenance"] = "pretrained-rich"
    rng = np.random.default_rng(59)
    x = rng.normal(size=(7, 4))
    twin, before = round_trip(model), model.params.copy()
    assert all(t.data.base is twin.params for t in twin.parameters())
    assert not np.shares_memory(twin.params, model.params) and twin.meta == model.meta
    assert _bits(twin.params) == _bits(model.params)
    assert _bits(twin.predict_proba(x)) == _bits(model.predict_proba(x))
    assert _bits(checkpoint_from_model(twin).params) == _bits(model.params)
    opt = SgdOptimizer({"trunk": twin.trunk_parameters(), "head": twin.head_parameters()}, lr=0.1,
                       total_iterations=4)
    for t in twin.parameters():
        t.grad = np.ones(t.shape)
    opt.step()
    assert not np.array_equal(twin.params, before) and _bits(model.params) == _bits(before)


def test_copy_of_a_detached_model_is_refused():
    model = new_residual_model(5, 5, 1, 2, seed=60)
    model.head_b.data = np.zeros(2)
    with pytest.raises(UsageError, match="head_b"):
        copy.deepcopy(model)


def _bits(a) -> bytes:
    a = np.asarray(a)
    return bytes(str((a.dtype, a.shape)), "ascii") + a.tobytes()


def _sgd(model, lr=0.05, steps=3):
    return SgdOptimizer({"trunk": model.trunk_parameters(), "head": model.head_parameters()}, lr=lr,
                        total_iterations=2 * steps, weight_decay=1e-3, group_multipliers={"head": 10.0})


def _tape_node(loss, model, grads):
    # a training step's tape node: the model's parameters as parents, the
    # stacked backward's row of gradients as their gradients
    return ad.make_node(loss, "fused_step", tuple(model.parameters()), lambda g: grads)


def _assert_fused_steps_match_tape(model, x, labels, rate, seed, batch, steps=3, stacks=(1, 3)):
    # `steps` consecutive SGD steps of K models, for each K in stacks, through one
    # StackedStep, each model against the tape (forward +
    # softmax_cross_entropy + backward) on a copy of it with its own
    # optimizer: loss, logits, every gradient and every parameter after each
    # step, bit for bit. Models after the first perturb model's parameters
    # and have their own lr, batches and masks; the optimizer reads the
    # stacked gradients in place
    for k_models in stacks:
        rng = np.random.default_rng(seed)
        models = [copy.deepcopy(model) for _ in range(k_models)]
        for m in models[1:]:
            m.params += 0.01 * rng.normal(size=m.params.size)
        tapes = [copy.deepcopy(m) for m in models]
        opts = [_sgd(m, 0.05 / (k + 1), steps) for k, m in enumerate(models)]
        tape_opts = [_sgd(m, 0.05 / (k + 1), steps) for k, m in enumerate(tapes)]
        specs = [DropoutSpec.seeded(rate, seed=seed + k) for k in range(k_models)]
        tape_specs = [DropoutSpec.seeded(rate, seed=seed + k) for k in range(k_models)]
        batch_rngs = [np.random.default_rng(seed + k) for k in range(k_models)]
        step = StackedStep(models, batch, rate)
        for it in range(steps):
            tape_out = []
            for k, tape_model in enumerate(tapes):
                idx = batch_rngs[k].integers(0, x.shape[0], size=batch)
                logits, _ = forward(tape_model, x[idx], tape_specs[k])
                tape_loss = ad.softmax_cross_entropy(logits, labels[idx])
                ad.backward(tape_loss)
                tape_out.append((tape_loss, logits, [t.grad for t in tape_model.parameters()]))
                tape_opts[k].step()
                ad.reset_grads(tape_model.parameters())
                step.x[k], step.labels[k] = x[idx], labels[idx]
                if rate > 0:
                    batch_dropout_mask(batch, model.width, rate, specs[k].rng, out=step.mask[k])
            losses = step.forward()
            step.backward()
            for k, (m, (tape_loss, logits, tape_grads)) in enumerate(zip(models, tape_out)):
                assert _bits(losses[k]) == _bits(tape_loss.data), (k_models, it, k)
                assert _bits(step.logits[k]) == _bits(logits.data), (k_models, it, k)
                ad.backward(_tape_node(losses[k], m, step.grads[k]))
                for (name, t), grad, want in zip(m.named_parameters(), step.grads[k], tape_grads):
                    assert t.grad is grad
                    assert _bits(t.grad) == _bits(want), (k_models, it, k, name)
                opts[k].step()
                assert opts[k]._grad_span is not None  # read in place
                ad.reset_grads(m.parameters())
                for (name, t), want in zip(m.named_parameters(), tapes[k].parameters()):
                    assert _bits(t.data) == _bits(want.data), (k_models, it, k, name)
        for m, spec, tape_spec in zip(models, specs, tape_specs):
            assert spec.rng.bit_generator.state == tape_spec.rng.bit_generator.state
            assert _bits(m.predict_proba(x)) == _bits(_eval_oracle(m, x))


@pytest.mark.parametrize("case", range(24))
def test_fused_step_matches_tape_bitwise(case):
    # every depth 0-3 at every rate 0 / 0.5 / 0.9, block_hidden on both
    # sides of width, batch 1 in a third of the cases; w2 and the biases are
    # random because a fresh model's zero w2 makes block gradients trivial
    rng = np.random.default_rng(900 + case)
    depth, rate = case % 4, (0.0, 0.5, 0.9)[case // 4 % 3]
    width = int(rng.integers(2, 9))
    hidden = width - 1 if case % 2 else width + int(rng.integers(1, 5))
    model = new_residual_model(int(rng.integers(1, 7)), width, depth, int(rng.integers(2, 5)),
                               seed=case, block_hidden=hidden)
    for blk in model.blocks:
        blk.w2.data[...] = rng.normal(size=blk.w2.shape)
        blk.b1.data[...] = rng.normal(size=blk.b1.shape)
        blk.b2.data[...] = rng.normal(size=blk.b2.shape)
    model.proj_b.data[...] = rng.normal(size=model.proj_b.shape)
    model.head_b.data[...] = rng.normal(size=model.head_b.shape)
    batch = 1 if case % 3 == 0 else int(rng.integers(2, 33))
    x = rng.normal(size=(40, model.input_dim))
    labels = rng.integers(0, model.num_classes, size=40)
    _assert_fused_steps_match_tape(model, x, labels, rate, case, batch)


def test_fused_step_matches_tape_bitwise_at_finetune_wide_shape():
    # the benchmark's shape, where BLAS runs blocked kernels the small cases never reach
    rng = np.random.default_rng(43)
    model = new_residual_model(18, 64, 4, 2, seed=43)
    for blk in model.blocks:
        blk.w2.data[...] = rng.uniform(-0.125, 0.125, size=blk.w2.shape)
        blk.b1.data[...] = 0.1 * rng.normal(size=blk.b1.shape)
        blk.b2.data[...] = 0.1 * rng.normal(size=blk.b2.shape)
    x = rng.normal(size=(600, 18))
    labels = rng.integers(0, 2, size=600)
    _assert_fused_steps_match_tape(model, x, labels, 0.9, 43, 256)


@pytest.mark.parametrize("rate", [0.0, 0.9])
def test_fused_step_matches_tape_bitwise_at_sweep_shape(rate):
    # a sweep group's shape: six grid points of a width-16 depth-2 model
    # with 2 classes, where the softmax folds its class columns
    rng = np.random.default_rng(47)
    model = new_residual_model(18, 16, 2, 2, seed=47)
    for blk in model.blocks:
        blk.w2.data[...] = rng.uniform(-0.25, 0.25, size=blk.w2.shape)
        blk.b1.data[...] = 0.1 * rng.normal(size=blk.b1.shape)
        blk.b2.data[...] = 0.1 * rng.normal(size=blk.b2.shape)
    model.head_b.data[...] = rng.normal(size=2)
    x = rng.normal(size=(300, 18))
    labels = rng.integers(0, 2, size=300)
    _assert_fused_steps_match_tape(model, x, labels, rate, 47, 32, stacks=(6,))


def test_stacked_step_refuses_blocks_reordered_in_place():
    # with blocks 0 and 2 swapped every view is still on model.params, but
    # not at its named offset: training refuses the model, as
    # checkpoint_from_model does, naming the first misplaced parameter
    model = new_residual_model(5, 6, 3, 3, seed=45, block_hidden=4)
    other = new_residual_model(5, 6, 3, 3, seed=46, block_hidden=4)
    model.blocks[0], model.blocks[2] = model.blocks[2], model.blocks[0]
    for models in ([model], [other, model]):
        with pytest.raises(UsageError, match="block0.w1 is not at its offset"):
            StackedStep(models, 8)


def test_fused_step_allocates_no_activation():
    # after a warm-up step, a step of K = 1 or 3 models writes only into its
    # StackedStep and the optimizers' vectors, the dropout masks included
    # (rate 0.9); what is left is the tape nodes' small Python objects
    batch, width = 64, 32
    rng = np.random.default_rng(44)
    x, labels = rng.normal(size=(batch, 10)), rng.integers(0, 3, size=batch)
    for k_models, rate in itertools.product((1, 3), (0.0, 0.9)):
        models = [new_residual_model(10, width, 2, 3, seed=44 + k) for k in range(k_models)]
        opts = [_sgd(m, 0.01, 5) for m in models]
        step = StackedStep(models, batch, rate)
        step.x[...], step.labels[...] = x, labels
        mask_rng = np.random.default_rng(44)

        def train_step():
            for k in range(k_models):
                if rate > 0:
                    batch_dropout_mask(batch, width, rate, mask_rng, out=step.mask[k])
            losses = step.forward()
            step.backward()
            for k, m in enumerate(models):
                ad.backward(_tape_node(losses[k], m, step.grads[k]))
                opts[k].step()
                ad.reset_grads(m.parameters())

        train_step()
        tracemalloc.start()
        try:
            train_step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < batch * width * 8, (k_models, rate, peak)


def test_fused_step_frees_its_activations_without_gc():
    # the stacked step's arrays, the dropout masks among them, must go with
    # the last reference to it (a training loop's frame); waiting for a
    # garbage-collection pass let dozens of steps pile up
    models = [new_residual_model(4, 8, 2, 3, seed=38 + k) for k in range(2)]
    rng = np.random.default_rng(38)
    gc.disable()
    try:
        step = StackedStep(models, 16, 0.5)
        step.x[...], step.labels[...] = rng.normal(size=(2, 16, 4)), rng.integers(0, 3, size=(2, 16))
        for _ in range(2):
            for k in range(2):
                batch_dropout_mask(16, 8, 0.5, rng, out=step.mask[k])
            losses = step.forward()
            step.backward()
            nodes = [_tape_node(losses[k], m, step.grads[k]) for k, m in enumerate(models)]
            for node, m in zip(nodes, models):
                ad.backward(node)
                ad.reset_grads(m.parameters())
        held, mask = weakref.ref(step.zs[0]), weakref.ref(step.mask)
        del step
        assert held() is None and mask() is None
    finally:
        gc.enable()


def test_fused_forward_validates_input_shape():
    # the stacked step refuses what it cannot stack; the training loop, the
    # rows it cannot gather
    from finedrop import protocol

    model = new_residual_model(4, 5, 1, 2, seed=37)
    with pytest.raises(ValidationError, match="batch must be >= 1"):
        StackedStep([model], 0)
    with pytest.raises(ValidationError, match="at least one model"):
        StackedStep([], 3)
    with pytest.raises(ValidationError, match="one architecture"):
        StackedStep([model, new_residual_model(4, 5, 2, 2, seed=37)], 3)
    detached = new_residual_model(4, 5, 1, 2, seed=37)
    detached.head_b.data = np.zeros(2)
    with pytest.raises(UsageError, match="head_b"):
        StackedStep([detached], 3)
    run = protocol._Run(model, _sgd(model), np.ones((3, 7)), np.zeros(3, dtype=np.int64),
                        np.random.default_rng(0))
    with pytest.raises(ValidationError, match=r"input must be \[batch, 4\]"):
        list(protocol._train([run], 2, 3, 0.0, None))


@pytest.mark.parametrize("labels", [
    np.array([[0, 1]]), np.array([0]), np.array([0.0, 1.0]), np.array([0, 2]), np.array([-1, 0]),
])
def test_check_labels_matches_cross_entropy_checks(labels):
    with pytest.raises(ValidationError) as fused:
        check_labels(labels, 2, 2)
    with pytest.raises(ValidationError) as tape:
        ad.softmax_cross_entropy(ad.Tensor(np.zeros((2, 2))), labels)
    assert str(fused.value) == str(tape.value)


def _eval_oracle(model, x):
    return ad.softmax(forward(model, x)[0].data)


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("hidden_side", ["below", "above"])
def test_predict_proba_matches_tape_bitwise(depth, hidden_side):
    # chunk boundaries at every row count that can split differently, and
    # class counts on both sides of the 8 where numpy's row sum turns pairwise
    c = EVAL_CHUNK_ROWS
    for classes in (1, 2, 3, 7, 8, 9, 10):
        rng = np.random.default_rng(100 * depth + classes)
        width = 6
        hidden = width - 2 if hidden_side == "below" else width + 3
        model = new_residual_model(3, width, depth, classes, seed=depth, block_hidden=hidden)
        for blk in model.blocks:
            blk.w2.data[...] = rng.normal(size=blk.w2.shape)
            blk.b1.data[...] = rng.normal(size=blk.b1.shape)
            blk.b2.data[...] = rng.normal(size=blk.b2.shape)
        model.head_b.data[...] = 3.0 * rng.normal(size=classes)
        for n in (0, 1, c - 1, c, c + 1, 3 * c + 5):
            x = 3.0 * rng.normal(size=(n, 3))
            assert _bits(model.predict_proba(x)) == _bits(_eval_oracle(model, x)), (classes, n)


def test_predict_proba_matches_tape_bitwise_at_finetune_wide_shape():
    # the benchmark's shape: whole-batch and chunk matmuls are large enough
    # here that BLAS may pick different kernels for different row counts
    c = EVAL_CHUNK_ROWS
    rng = np.random.default_rng(42)
    model = new_residual_model(18, 64, 4, 2, seed=42, block_hidden=64)
    for blk in model.blocks:
        blk.w2.data[...] = rng.uniform(-0.125, 0.125, size=blk.w2.shape)
        blk.b1.data[...] = 0.1 * rng.normal(size=blk.b1.shape)
        blk.b2.data[...] = 0.1 * rng.normal(size=blk.b2.shape)
    model.head_b.data[...] = rng.normal(size=2)
    for n in (1200, 2 * c + 2, 2 * c + 3, 2 * c + 4, 2 * c + 5):
        x = rng.normal(size=(n, 18))
        assert _bits(model.predict_proba(x)) == _bits(_eval_oracle(model, x)), n


def test_predict_proba_matches_tape_when_relu_inputs_are_exactly_zero():
    model = new_residual_model(3, 5, 2, 3, seed=40, block_hidden=4)
    rng = np.random.default_rng(40)
    for blk in model.blocks:
        blk.w1.data[:, :2] = 0.0  # the relu inputs of units 0 and 1 are exactly 0
        blk.b1.data[...] = np.array([0.0, -0.0, 0.5, -0.5])
        blk.w2.data[...] = rng.normal(size=blk.w2.shape)
    x = rng.normal(size=(EVAL_CHUNK_ROWS + 7, 3))
    pre = x @ model.proj_w.data + model.proj_b.data
    assert np.count_nonzero(pre @ model.blocks[0].w1.data + model.blocks[0].b1.data == 0.0) > 0
    assert _bits(model.predict_proba(x)) == _bits(_eval_oracle(model, x))


def test_relu_inplace_has_the_bits_of_where():
    values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -1.5])
    got = values.copy()
    _relu_inplace(got)
    assert _bits(got) == _bits(np.where(values > 0, values, 0.0))


def test_predict_proba_holds_no_whole_batch_activation():
    model = new_residual_model(20, 64, 4, 10, seed=41)
    x = np.random.default_rng(41).normal(size=(5000, 20))
    out_bytes = 5000 * 10 * 8
    model.predict_proba(x[:10])  # warm up numpy's lazily built state
    tracemalloc.start()
    try:
        model.predict_proba(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output plus three chunk-sized buffers; one [5000, 64] activation is 2.56 MB
    assert peak < 4 * out_bytes, peak


_NAN_PAYLOAD = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]


def _edge_logits(classes, rng):
    # rows of logits with exact ties, 0.0 next to -0.0 in both orders, +-inf
    # and NaNs (numpy's default one, the negative one that inf - inf makes,
    # and one with a payload): whole rows of one value, then every pair below
    # at every two positions among lower random logits, then random rows
    nan = np.nan
    values = [0.0, -0.0, 1.5, np.inf, -np.inf, nan, -nan, _NAN_PAYLOAD]
    pairs = [(0.0, -0.0), (1.5, 1.5), (np.inf, 1.0), (-np.inf, 1.0), (nan, 1.0), (-nan, 1.0),
             (np.inf, np.inf), (np.inf, -np.inf), (nan, -nan), (-nan, _NAN_PAYLOAD), (-nan, np.inf)]
    rows = [np.full(classes, v) for v in values]
    for (a, b), (i, j) in itertools.product(pairs, itertools.permutations(range(classes), 2)):
        row = rng.uniform(-3.0, -1.0, size=classes)
        row[i], row[j] = a, b
        rows.append(row)
    return np.concatenate([rows, 3.0 * rng.normal(size=(40, classes))])


@pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 9])
def test_reduce_classes_has_the_bits_of_the_reduction(classes):
    # the class fold against numpy's own reduction, also on the [K, batch,
    # classes] layout of the stacked step
    p = _edge_logits(classes, np.random.default_rng(classes))
    with np.errstate(invalid="ignore"):
        for q in (p, p.reshape(1, *p.shape), p[: len(p) // 2 * 2].reshape(2, -1, classes)):
            for op in (np.maximum, np.add):
                want = op.reduce(q, -1, keepdims=True)
                assert _bits(_reduce_classes(op, q, np.empty_like(want))) == _bits(want), op


@pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 9])
def test_predict_proba_matches_tape_on_edge_logits(classes, monkeypatch):
    # the affine never makes -0.0 (BLAS sums from +0.0), so the edge rows are
    # written over the head's output before the softmax; two chunks at 7 or more classes
    logits = _edge_logits(classes, np.random.default_rng(classes))
    model = new_residual_model(3, 4, 1, classes, seed=classes)
    at = [0]

    def edge_softmax_rows(p, top, total):
        p[...] = logits[at[0] : at[0] + len(p)]
        at[0] += len(p)
        _softmax_rows(p, top, total)

    monkeypatch.setattr("finedrop.models._softmax_rows", edge_softmax_rows)
    with np.errstate(invalid="ignore"):
        got = model.predict_proba(np.random.default_rng(0).normal(size=(len(logits), 3)))
        assert _bits(got) == _bits(ad.softmax(logits))


@pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 9])
def test_stacked_step_matches_tape_on_edge_logits(classes, monkeypatch):
    # K = 2 models whose head outputs are overwritten by edge rows (model 1's
    # in reverse order), against the tape with the same rows written into its
    # logits: loss, logits, every gradient, and the logits' gradient (the
    # probabilities less the one-hot labels, over the batch) against the
    # tape's softmax_cross_entropy on the rows as a leaf
    rng = np.random.default_rng(classes)
    edge = _edge_logits(classes, rng)
    batch, edges = len(edge), (edge, edge[::-1].copy())
    models = [new_residual_model(3, 4, 1, classes, seed=classes + k) for k in range(2)]
    x, labels = rng.normal(size=(2, batch, 3)), rng.integers(0, classes, size=(2, batch))
    step = StackedStep(models, batch)
    step.x[...], step.labels[...] = x, labels

    def edge_affine(a, w, b, out, tile):
        _affine(a, w, b, out, tile)
        if out is step.logits:
            out[...] = edges
        return out

    monkeypatch.setattr("finedrop.models._affine", edge_affine)
    with np.errstate(invalid="ignore"):
        losses = step.forward()
        step.backward()
        for k, model in enumerate(models):
            tape_model = copy.deepcopy(model)
            logits, _ = forward(tape_model, x[k])
            logits.data[...] = edges[k]  # the vjps read the parents' data, not this
            loss = ad.softmax_cross_entropy(logits, labels[k])
            ad.backward(loss)
            assert _bits(losses[k]) == _bits(loss.data), k
            assert _bits(step.logits[k]) == _bits(logits.data), k
            for (name, t), grad in zip(tape_model.named_parameters(), step.grads[k]):
                assert _bits(grad) == _bits(t.grad), (k, name)
            leaf = ad.Tensor(edges[k], requires_grad=True)
            ad.backward(ad.softmax_cross_entropy(leaf, labels[k]))
            assert _bits(step.d[k]) == _bits(leaf.grad), k
