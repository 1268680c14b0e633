import tracemalloc

import numpy as np
import pytest

from finedrop.autodiff import Tensor
from finedrop.errors import UsageError, ValidationError
from finedrop.optim import SgdOptimizer


def _param(values):
    t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


def _views(*arrays):
    """Tensors over views of one vector, laid end to end as a model's parameters are."""
    flat = np.concatenate([np.asarray(a, dtype=np.float64).reshape(-1) for a in arrays])
    out, offset = [], 0
    for a in arrays:
        out.append(Tensor(flat[offset : offset + np.size(a)].reshape(np.shape(a)), requires_grad=True))
        offset += np.size(a)
    return out


def test_plain_gradient_descent_when_momentum_and_decay_off():
    w = _param([1.0, -2.0])
    w.grad = np.array([0.5, 0.5])
    opt = SgdOptimizer({"trunk": [w]}, lr=0.1, total_iterations=100, momentum=0.0, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(w.data, [1.0 - 0.05, -2.0 - 0.05])


def test_zero_grad_zero_decay_leaves_params_unchanged():
    w = _param([3.0, 4.0])
    w.grad = np.zeros(2)
    opt = SgdOptimizer({"trunk": [w]}, lr=0.1, total_iterations=10, momentum=0.9, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(w.data, [3.0, 4.0])


def test_momentum_quadratic_matches_recurrence_oracle():
    # f(w) = w^2, grad 2w. Independent recurrence iterated alongside:
    # v <- mu v + g ; w <- w - lr v. Contraction per step is sqrt(mu), so
    # after 100 steps |w| is about 2.85e-3.
    w = _param([1.0])
    opt = SgdOptimizer({"trunk": [w]}, lr=0.1, total_iterations=200, momentum=0.9, weight_decay=0.0)
    w_ref, v_ref = 1.0, 0.0
    for _ in range(100):
        w.grad = np.array([2.0 * w.data[0]])
        opt.step()
        v_ref = 0.9 * v_ref + 2.0 * w_ref
        w_ref = w_ref - 0.1 * v_ref
        assert w.data[0] == w_ref
    assert abs(w.data[0]) < 5e-3


def test_lr_schedule_matches_published_recipe():
    w = _param([0.0])
    opt = SgdOptimizer(
        {"trunk": [w], "head": []},
        lr=1e-3,
        total_iterations=10_000,
        group_multipliers={"head": 10.0},
    )
    assert opt.lr_at(4999) * opt.multipliers["trunk"] == 1e-3
    assert opt.lr_at(5000) * opt.multipliers["trunk"] == pytest.approx(1e-4, rel=1e-12)
    assert opt.lr_at(0) * opt.multipliers["head"] == pytest.approx(1e-2, rel=1e-12)


def test_lr_at_validates_iteration_range():
    w = _param([0.0])
    opt = SgdOptimizer({"trunk": [w]}, lr=1e-3, total_iterations=100)
    with pytest.raises(ValidationError):
        opt.lr_at(-1)
    with pytest.raises(ValidationError):
        opt.lr_at(101)


def test_group_isolation_multiplier_one_identical_updates():
    grads = np.random.default_rng(0).normal(size=4)
    wa, wb = _views([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    wa.grad = grads.copy()
    wb.grad = grads.copy()
    opt = SgdOptimizer(
        {"trunk": [wa], "head": [wb]},
        lr=0.05,
        total_iterations=10,
        momentum=0.9,
        weight_decay=1e-3,
        group_multipliers={"head": 1.0},
    )
    opt.step()
    np.testing.assert_array_equal(wa.data, wb.data)


def test_weight_decay_shrink_factor_exact():
    # dyadic lr and wd make w * (1 - lr*wd) and w - lr*(wd*w) bit-identical
    w = _param([1.7, -0.3, 123.456])
    before = w.data.copy()
    w.grad = np.zeros(3)
    opt = SgdOptimizer({"trunk": [w]}, lr=0.25, total_iterations=10, momentum=0.0, weight_decay=0.5)
    opt.step()
    np.testing.assert_array_equal(w.data, before * (1.0 - 0.25 * 0.5))


def test_missing_grad_is_usage_error():
    trunk, head = _views([1.0], [2.0])
    opt = SgdOptimizer({"trunk": [trunk], "head": [head]}, lr=0.1, total_iterations=10)
    trunk.grad = np.ones(1)
    with pytest.raises(UsageError, match="'head'"):
        opt.step()
    assert trunk.data[0] == 1.0  # a refused step updates nothing


def test_determinism_identical_state_identical_update():
    def run():
        w = _param([0.5, -0.5])
        w.grad = np.array([0.1, 0.2])
        opt = SgdOptimizer({"trunk": [w]}, lr=0.3, total_iterations=4, momentum=0.9, weight_decay=1e-2)
        opt.step()
        return w.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_unknown_group_multiplier_rejected():
    w = _param([1.0])
    with pytest.raises(ValidationError):
        SgdOptimizer({"trunk": [w]}, lr=0.1, total_iterations=5, group_multipliers={"nope": 2.0})


@pytest.mark.parametrize("kwargs", [
    {"lr": float("nan")}, {"lr": float("inf")},
    {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
    {"momentum": float("nan")}, {"momentum": float("inf")},
    {"group_multipliers": {"trunk": float("nan")}},
    # finite but harmful: a multiplier <= 0 stalls or ascends the gradient
    {"group_multipliers": {"trunk": -1.0}}, {"group_multipliers": {"trunk": 0.0}},
])
def test_non_finite_hyperparameters_rejected(kwargs):
    settings = {"lr": 0.1, **kwargs}
    with pytest.raises(ValidationError):
        SgdOptimizer({"trunk": [_param([1.0])]}, total_iterations=5, **settings)


def _per_tensor_sgd(groups, grad_steps, lr, total, momentum, weight_decay, multipliers, decay=0.1):
    """The update written per tensor: the reference the flat vector must match bit for bit."""
    weights = {name: [w.copy() for w in ws] for name, ws in groups.items()}
    buffers = {name: [np.zeros_like(w) for w in ws] for name, ws in groups.items()}
    for it, grads in enumerate(grad_steps):
        base = lr
        if total > 0 and it >= total // 2:
            base *= decay
        for name, ws in weights.items():
            rate = base * multipliers.get(name, 1.0)
            for j, v in enumerate(buffers[name]):
                g = grads[name][j]
                if weight_decay != 0.0:
                    g = g + weight_decay * ws[j]
                v *= momentum
                v += g
                ws[j] = ws[j] - rate * v
    return weights


@pytest.mark.parametrize("head_only", [False, True])
def test_flat_update_equals_per_tensor_loop_bitwise(head_only):
    # the gradients come gathered (separate arrays, copied into one vector)
    # or in place (views of one vector laid out like the weights, as a
    # a StackedStep's gradient rows are, which the optimizer reads and must never write)
    rng = np.random.default_rng(7)
    shapes = {"trunk": [(3, 4), (4,), (4, 4), (4,)], "head": [(4, 3), (3,)]}
    init = {name: [rng.normal(size=s) for s in ss] for name, ss in shapes.items()}
    if head_only:  # the freeze_trunk case: the trunk is outside the optimizer
        del shapes["trunk"]
    total = 12
    grad_steps = [{name: [rng.normal(size=s) for s in ss] for name, ss in shapes.items()}
                  for _ in range(total)]
    settings = dict(lr=0.05, momentum=0.9, weight_decay=1e-3)
    multipliers = {"head": 10.0}
    want = _per_tensor_sgd({n: init[n] for n in shapes}, grad_steps, total=total,
                           multipliers=multipliers, **settings)

    for in_place in (False, True):
        views = iter(_views(*init["trunk"], *init["head"]))
        tensors = {name: [next(views) for _ in init[name]] for name in init}
        opt = SgdOptimizer({n: tensors[n] for n in shapes}, total_iterations=total,
                           group_multipliers=multipliers, **settings)
        slots = [t for name in shapes for t in tensors[name]]
        grad_vector = _views(*[t.data for t in slots])  # laid out like the optimized weights
        for grads in grad_steps:  # crosses the midpoint decay at step 6
            for t, g, view in zip(slots, [g for name in shapes for g in grads[name]], grad_vector):
                if in_place:
                    view.data[...] = g
                t.grad = view.data if in_place else g
            written = np.concatenate([t.grad.ravel() for t in slots])
            opt.step()
            assert np.concatenate([t.grad.ravel() for t in slots]).tobytes() == written.tobytes()
        assert (opt._grad_span is not None) == in_place  # read in place, or gathered
        for name in shapes:
            for t, w in zip(tensors[name], want[name]):
                assert t.data.tobytes() == w.tobytes(), in_place
        if head_only:
            for t, a in zip(tensors["trunk"], init["trunk"]):
                assert t.data.tobytes() == a.tobytes()


def test_building_allocates_only_momentum_and_scratch():
    # two vectors the size of the span, whatever the group multipliers: no
    # per-element rate vectors, and the gather buffer waits for a step that
    # has to gather; at finetune-wide's parameter count (P = 34,626)
    tensors = _views(np.ones((18, 64)), np.ones(64), *[np.ones(s) for s in [(64, 64), (64,)] * 8],
                     np.ones((64, 2)), np.ones(2))
    span = sum(t.data.size for t in tensors)
    groups = {"trunk": tensors[:-2], "head": tensors[-2:]}
    SgdOptimizer(groups, lr=0.1, total_iterations=10)  # warm up
    for multipliers in (None, {"head": 10.0}):
        tracemalloc.start()
        try:
            opt = SgdOptimizer(groups, lr=0.1, total_iterations=10, group_multipliers=multipliers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert span == 34_626 and len(opt._runs) == (1 if multipliers is None else 2)
        assert peak < 2 * span * 8 + 16 * 1024, (multipliers, peak - 2 * span * 8)


def test_rebinding_data_after_construction_is_usage_error():
    w = _param([1.0, 2.0])
    opt = SgdOptimizer({"trunk": [w]}, lr=0.1, total_iterations=10)
    w.data = np.array([3.0, 4.0])  # detached from the optimizer's vector
    w.grad = np.ones(2)
    with pytest.raises(UsageError, match="rebound"):
        opt.step()


def test_tensor_in_two_groups_rejected():
    w = _param([1.0])
    with pytest.raises(ValidationError):
        SgdOptimizer({"trunk": [w], "head": [w]}, lr=0.1, total_iterations=10)


def test_parameters_that_do_not_tile_one_vector_are_rejected():
    flat = np.zeros(6)
    strided = _param([0.0, 0.0, 0.0])
    strided.data = flat[::2]  # Tensor() itself would copy it to a contiguous array
    for tensors in (
        [_param([1.0]), _param([2.0])],  # two vectors
        [Tensor(flat[:2]), Tensor(flat[3:])],  # a gap
        [Tensor(flat[:3]), Tensor(flat[2:])],  # an overlap
        [strided],
    ):
        with pytest.raises(ValidationError, match="tile one float64 vector"):
            SgdOptimizer({"trunk": tensors}, lr=0.1, total_iterations=10)

