"""Dense float64 tensors with reverse-mode differentiation.

The op set is deliberately small: exactly what a residual MLP classifier
needs. Everything is 64-bit and there is no broadcasting except the scalar
`scale` op and the explicit `add_bias` (row-vector bias added to every row
of a matrix); mismatched shapes raise instead of silently stretching.

A backward pass walks a ComputationRecord, the topologically ordered trace
of primitive ops behind a tensor. Calling `backward` while any reachable
leaf still holds a gradient is an error, not accumulation: training loops
must call `reset_grads` between steps, which keeps double-counting bugs
loud in long sweeps.

Training does not build graphs op by op: `models` computes a whole step
with array code and enters it as one node through `make_node`, whose
parents are the model's parameters. `backward` hands such a node, a root
whose parents are all leaves, its gradients without tracing a graph. The
op set stays as the reference that step is checked against, bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, UsageError, ValidationError

__all__ = [
    "Tensor",
    "ComputationRecord",
    "OpRecord",
    "matmul",
    "add",
    "add_bias",
    "relu",
    "elementwise_mul",
    "scale",
    "tensor_sum",
    "check_labels",
    "softmax_cross_entropy",
    "make_node",
    "backward",
    "reset_grads",
    "finite_diff_grad",
    "softmax",
]


class Tensor:
    """A dense float64 array with an optional gradient slot.

    Leaves are built directly (`Tensor(data, requires_grad=True)`); every op
    returns a fresh tensor that remembers its parents and how to push a
    gradient back through itself. `grad` stays None until `backward` runs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        # order="C" keeps 0-d losses 0-d (ascontiguousarray would promote to 1-d)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._op: str | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f" op={self._op}" if self._op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    out._op = op
    out._parents = parents
    out._vjp = vjp
    return out


# Public name for building a node outside the op set, such as a fused
# training step: `vjp(g)` returns one gradient per parent, in parent order.
make_node = _make


@dataclass(frozen=True)
class OpRecord:
    """One primitive operation in a trace: tag, inputs, output, backward rule."""

    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    vjp: Callable


class ComputationRecord:
    """Topologically ordered trace of the ops behind a root tensor.

    Every entry's inputs are either leaves or outputs of earlier entries;
    `backward` walks the entries in reverse.
    """

    def __init__(self, entries: list[OpRecord], leaves: list[Tensor]):
        self.entries = entries
        self.leaves = leaves

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationRecord":
        """Depth-first, parents in order, each tensor after its parents."""
        if not root._parents:
            return cls([], [root])
        entries: list[OpRecord] = []
        leaves: list[Tensor] = []
        visited = {id(root)}
        stack = [(root, iter(root._parents))]  # ops whose parents are being visited
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    if p._parents:
                        stack.append((p, iter(p._parents)))
                        break
                    leaves.append(p)
            else:
                stack.pop()
                entries.append(OpRecord(t._op, t._parents, t, t._vjp))
        return cls(entries, leaves)


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m,k] and b [k,n]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, "matmul", (a, b), vjp)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape("add", a, b)

    def vjp(g):
        return g, g

    return _make(a.data + b.data, "add", (a, b), vjp)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a length-n bias vector to every row of an [m,n] matrix.

    The only batch-dimension broadcasting in the engine, kept explicit so
    accidental shape stretching elsewhere stays an error.
    """
    x, bias = _as_tensor(x), _as_tensor(bias)
    if x.data.ndim != 2 or bias.data.ndim != 1 or x.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_bias: need [m,n] and [n], got {x.shape} and {bias.shape}")

    def vjp(g):
        return g, g.sum(axis=0)

    return _make(x.data + bias.data, "add_bias", (x, bias), vjp)


def relu(a: Tensor) -> Tensor:
    """max(0, x). The gradient at exactly 0 is defined as 0.

    The subgradient choice matters here because zero-initialized block
    layers and dropout masks routinely produce exact zeros.
    """
    a = _as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _make(np.where(mask, a.data, 0.0), "relu", (a,), vjp)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    """Componentwise product; shapes must match exactly."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape("elementwise_mul", a, b)

    def vjp(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, "elementwise_mul", (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply every element by the python scalar c."""
    a = _as_tensor(a)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _make(a.data * c, "scale", (a,), vjp)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    a = _as_tensor(a)

    def vjp(g):
        return (np.full_like(a.data, float(g)),)

    return _make(np.asarray(a.data.sum()), "sum", (a,), vjp)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of a [batch, classes] array, stabilized by max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def check_labels(labels, n_rows: int, num_classes: int) -> None:
    """The label checks of `softmax_cross_entropy`: one integer label per
    row, each in [0, num_classes). The fused training step runs them once
    on its whole label vector; every batch is a subset of it.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n_rows:
        raise ValidationError(
            f"labels must be a length-{n_rows} integer vector, got shape {labels.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValidationError(
            f"labels out of range: saw [{labels.min()}, {labels.max()}] for {num_classes} classes"
        )


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean of -log softmax(logits)[label] over the batch.

    labels is an integer array of shape [batch] with entries in [0, classes).
    Numerically stabilized; a huge logit on the true class gives loss 0
    rather than overflow.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be [batch, classes], got {logits.shape}")
    labels = np.asarray(labels)
    n, classes = logits.shape
    check_labels(labels, n, classes)

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - logsumexp
    loss = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)

    def vjp(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (float(g) / n),)

    return _make(np.asarray(loss), "softmax_cross_entropy", (logits,), vjp)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


_PARENTS = operator.attrgetter("_parents")


def _check_unpopulated(leaves) -> None:
    for leaf in leaves:  # a plain scan first: it runs on every training step
        if leaf.grad is not None and leaf.requires_grad:
            populated = {id(t) for t in leaves if t.requires_grad and t.grad is not None}
            raise UsageError(
                "gradients already populated on "
                f"{len(populated)} leaf tensor(s); call reset_grads before backward"
            )


def backward(loss: Tensor) -> None:
    """Populate grad on every requires_grad leaf reachable from a scalar loss.

    Raises UsageError if the loss is not a single element, or if any
    reachable leaf already holds a gradient (call `reset_grads` first).
    Repeated runs over the same graph produce bit-identical gradients.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")

    parents = loss._parents
    if parents and not any(map(_PARENTS, parents)):
        # one node over leaves, as a training step is: no trace to walk
        _check_unpopulated(parents)
        for parent, pg in zip(parents, loss._vjp(np.ones_like(loss.data))):
            if parent.requires_grad:  # a leaf listed twice sums its two gradients, as below
                parent.grad = pg if parent.grad is None else parent.grad + pg
        return

    record = ComputationRecord.trace(loss)
    _check_unpopulated(record.leaves)

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for entry in reversed(record.entries):
        g = grads.pop(id(entry.output), None)
        if g is None:
            continue
        parent_grads = entry.vjp(g)
        for parent, pg in zip(entry.inputs, parent_grads):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg

    for leaf in record.leaves:
        if leaf.requires_grad and id(leaf) in grads:
            leaf.grad = grads[id(leaf)]


def reset_grads(tensors: Sequence[Tensor]) -> None:
    """Clear grad slots so the next backward is legal."""
    for t in tensors:
        t.grad = None


def finite_diff_grad(f: Callable, params: Sequence[np.ndarray], eps: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    f receives the (temporarily perturbed) list of parameter arrays and must
    return a float; it must not cache the arrays across calls. This is the
    reference oracle the reverse-mode engine is checked against.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    params = [np.array(p, dtype=np.float64) for p in params]
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(params))
            flat[i] = orig - eps
            lo = float(f(params))
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads
