import numpy as np
import pytest

from finedrop import autodiff as ad
from finedrop.errors import ShapeError, UsageError, ValidationError

from helpers import assert_grads_close


def test_matmul_identity():
    a = ad.Tensor(np.eye(2))
    b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projector():
    p = ad.Tensor([[1.0, 0.0], [0.0, 0.0]])
    v = ad.Tensor([[5.0], [7.0]])
    np.testing.assert_array_equal(ad.matmul(p, v).data, [[5.0], [0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_grad_of_sum_is_ones_bT():
    rng = np.random.default_rng(0)
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    loss = ad.tensor_sum(ad.matmul(a, b))
    ad.backward(loss)
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=0, atol=0)

    # and the finite-difference oracle agrees (eps 1e-6)
    def f(params):
        return float((params[0] @ params[1]).sum())

    fd = ad.finite_diff_grad(f, [a.data, b.data], eps=1e-6)
    assert_grads_close([a.grad, b.grad], fd, rtol=1e-6, atol=1e-8)


def test_relu_trivial():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_grad_zero_at_exactly_zero():
    x = ad.Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    ad.backward(ad.tensor_sum(ad.relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_elementwise_mul_trivial():
    out = ad.elementwise_mul(ad.Tensor([2.0, 4.0]), ad.Tensor([1.0, 0.0]))
    np.testing.assert_array_equal(out.data, [2.0, 0.0])


def test_scale_matches_inverted_dropout_factor():
    # rate 0.5 rescale factor is 1 / (1 - 0.5) = 2
    out = ad.scale(ad.Tensor([2.0, 0.0]), 2.0)
    np.testing.assert_array_equal(out.data, [4.0, 0.0])


def test_add_shape_error():
    with pytest.raises(ShapeError):
        ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))


def test_add_and_mul_commute():
    rng = np.random.default_rng(3)
    a, b = ad.Tensor(rng.normal(size=7)), ad.Tensor(rng.normal(size=7))
    np.testing.assert_array_equal(ad.add(a, b).data, ad.add(b, a).data)
    np.testing.assert_array_equal(ad.elementwise_mul(a, b).data, ad.elementwise_mul(b, a).data)


def test_scale_roundtrip_near_identity():
    rng = np.random.default_rng(4)
    a = ad.Tensor(rng.normal(size=16))
    for c in (1e-3, 0.37, 1.0, 42.0, 1e3):
        back = ad.scale(ad.scale(a, c), 1.0 / c)
        np.testing.assert_allclose(back.data, a.data, rtol=1e-15, atol=0)


def test_softmax_cross_entropy_uniform_is_log3():
    logits = ad.Tensor(np.zeros((5, 3)))
    loss = ad.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
    assert loss.item() == pytest.approx(np.log(3.0), rel=1e-12)


def test_softmax_cross_entropy_huge_logit_is_stable():
    logits = ad.Tensor([[1e9, 0.0]])
    loss = ad.softmax_cross_entropy(logits, np.array([0]))
    assert loss.item() == 0.0


def test_softmax_cross_entropy_label_out_of_range():
    logits = ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        ad.softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ValidationError):
        ad.softmax_cross_entropy(logits, np.array([-1, 0]))


def test_softmax_cross_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    t = ad.Tensor(logits, requires_grad=True)
    ad.backward(ad.softmax_cross_entropy(t, labels))

    def f(params):
        z = params[0] - params[0].max(axis=1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-lp[np.arange(4), labels].mean())

    fd = ad.finite_diff_grad(f, [logits], eps=1e-5)
    assert_grads_close([t.grad], fd, rtol=1e-5)


def test_backward_of_sum_is_ones():
    w = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.tensor_sum(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_of_half_norm_squared_is_w():
    w = ad.Tensor([1.5, -2.0, 0.25], requires_grad=True)
    ad.backward(ad.scale(ad.tensor_sum(ad.elementwise_mul(w, w)), 0.5))
    np.testing.assert_allclose(w.grad, w.data, rtol=0, atol=0)


def test_two_block_residual_graph_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 5))
    shapes = [(5, 6), (6, 6), (6, 6), (6, 6), (6, 6)]
    arrays = [rng.normal(size=s) * 0.5 for s in shapes]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]

    def graph(ts):
        w1a, w2a, w1b, w2b, head = ts
        h = ad.matmul(ad.Tensor(x), w1a)
        h = ad.add(h, ad.matmul(ad.relu(ad.matmul(h, w2a)), w1b))
        h = ad.add(h, ad.matmul(ad.relu(ad.matmul(h, w2b)), head))
        return ad.tensor_sum(ad.elementwise_mul(h, h))

    loss = graph(tensors)
    ad.backward(loss)

    def f(params):
        h = x @ params[0]
        h = h + np.maximum(h @ params[1], 0.0) @ params[2]
        h = h + np.maximum(h @ params[3], 0.0) @ params[4]
        return float((h ** 2).sum())

    fd = ad.finite_diff_grad(f, arrays, eps=1e-5)
    assert_grads_close([t.grad for t in tensors], fd, rtol=1e-5)


def test_finite_diff_quadratic_is_exact():
    grads = ad.finite_diff_grad(lambda p: float(p[0][0] ** 2), [np.array([3.0])], eps=1e-4)
    assert grads[0][0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant_is_zero():
    grads = ad.finite_diff_grad(lambda p: 7.5, [np.ones((2, 2))], eps=1e-5)
    np.testing.assert_array_equal(grads[0], np.zeros((2, 2)))


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValidationError):
        ad.finite_diff_grad(lambda p: 0.0, [np.ones(2)], eps=0.0)


def test_random_composed_graphs_match_finite_differences():
    # property over small random graphs: params <= 500, |values| <= 10,
    # relu inputs kept away from zero by the random draws
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(2, 10))
        a = ad.Tensor(rng.normal(size=n), requires_grad=True)
        b = ad.Tensor(rng.normal(size=n), requires_grad=True)
        c = float(rng.uniform(0.5, 2.0))

        def build(ta, tb):
            u = ad.elementwise_mul(ta, tb)
            v = ad.add(ta, ad.scale(tb, c))
            w = ad.relu(ad.add(u, v))
            return ad.tensor_sum(ad.elementwise_mul(w, ad.add(u, ta)))

        loss = build(a, b)
        ad.backward(loss)

        def f(params):
            u = params[0] * params[1]
            v = params[0] + c * params[1]
            w = np.maximum(u + v, 0.0)
            return float((w * (u + params[0])).sum())

        fd = ad.finite_diff_grad(f, [a.data, b.data], eps=1e-5)
        assert_grads_close([a.grad, b.grad], fd, rtol=1e-4)


def test_backward_is_deterministic():
    rng = np.random.default_rng(5)
    data_a, data_b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))

    def run():
        a = ad.Tensor(data_a, requires_grad=True)
        b = ad.Tensor(data_b, requires_grad=True)
        loss = ad.tensor_sum(ad.relu(ad.matmul(a, b)))
        ad.backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_backward_without_reset_errors():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    ad.backward(ad.tensor_sum(w))
    with pytest.raises(UsageError):
        ad.backward(ad.tensor_sum(w))
    ad.reset_grads([w])
    ad.backward(ad.tensor_sum(w))  # legal again after reset
    np.testing.assert_array_equal(w.grad, [1.0, 1.0])


def test_node_over_leaves_gets_the_traced_gradients():
    # a root whose parents are all leaves skips the trace; behind a scale by
    # 1 the same node takes the traced path: the same gradients, a leaf
    # listed twice summed, a leaf without requires_grad left alone, and the
    # same refusal of populated gradients
    rng = np.random.default_rng(11)
    grads = [rng.normal(size=3), rng.normal(size=2), rng.normal(size=3), rng.normal(size=4)]

    def gradients(traced):
        a, b = ad.Tensor(np.zeros(3), requires_grad=True), ad.Tensor(np.zeros(2), requires_grad=True)
        frozen = ad.Tensor(np.zeros(4))
        node = ad.make_node(np.asarray(2.0), "step", (a, b, a, frozen), lambda g: [g * x for x in grads])
        ad.backward(ad.scale(node, 1.0) if traced else node)
        assert frozen.grad is None
        with pytest.raises(UsageError, match="populated on 2 leaf"):
            ad.backward(ad.scale(node, 1.0) if traced else node)
        return a.grad.tobytes(), b.grad.tobytes()

    assert gradients(traced=False) == gradients(traced=True)
    assert gradients(traced=False)[0] == (grads[0] + grads[2]).tobytes()


def test_backward_rejects_non_scalar():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        ad.backward(ad.scale(w, 2.0))


def test_computation_record_is_topologically_ordered():
    rng = np.random.default_rng(9)
    a = ad.Tensor(rng.normal(size=3), requires_grad=True)
    b = ad.Tensor(rng.normal(size=3))
    u = ad.elementwise_mul(a, b)
    v = ad.add(u, a)
    loss = ad.tensor_sum(ad.relu(v))
    record = ad.ComputationRecord.trace(loss)

    produced = {id(leaf) for leaf in record.leaves}
    for entry in record.entries:
        for parent in entry.inputs:
            assert id(parent) in produced, "entry consumed a tensor produced later"
        produced.add(id(entry.output))
    assert record.entries[-1].output is loss


def test_trace_walks_graphs_deeper_than_the_recursion_limit():
    # the trace is iterative: a chain of 3000 ops traces and differentiates
    x = ad.Tensor(np.array([[2.0]]), requires_grad=True)
    h = x
    for _ in range(3000):
        h = ad.add(h, ad.Tensor(np.zeros((1, 1))))
    record = ad.ComputationRecord.trace(h)
    assert len(record.entries) == 3000 and record.leaves[0] is x and len(record.leaves) == 3001
    ad.backward(ad.tensor_sum(h))
    assert x.grad.tolist() == [[1.0]]
