"""SGD with momentum, L2 weight decay, and a single midpoint step decay.

The update is the classic coupled form: weight decay is added to the raw
gradient before the momentum buffer,

    v <- momentum * v + (g + weight_decay * w)
    w <- w - lr(iteration) * group_multiplier * v

and the learning rate drops by DECAY_FACTOR (0.1) once, at iteration
total_iterations // 2. Parameter groups carry per-group multipliers so the
head can train 10x faster than the trunk.

The parameters must be views that tile one float64 vector end to end, as a
model's views of its `params` do (else ValidationError): the optimizer
adopts the span they cover, next to one momentum and one scratch vector, and
steps each run of consecutive parameters that share a multiplier (one, or two
with a 10x head) at one rate, lr times multiplier. A step reads the gradients
in place when they tile a vector the way the weights do, as a `StackedStep`'s
gradient row does; only other gradients (the tape's, say) are gathered, into a
vector allocated at the first such step. It updates the weights and momentum
in place with a per-tensor loop's elementwise float operations and never writes
a gradient. Rebinding a parameter's `.data` after the optimizer is built
detaches it, so `step` refuses with a UsageError.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .autodiff import Tensor
from .errors import UsageError, ValidationError

__all__ = ["SgdOptimizer", "check_settings"]

DECAY_FACTOR = 0.1  # the learning rate's one drop, at the schedule's midpoint


def check_settings(lr, iterations, weight_decay, momentum=None, iterations_name="total_iterations") -> None:
    """SgdOptimizer's checks on its hyperparameters, for a config to run before any training;
    momentum is checked when given."""
    if not (np.isfinite(lr) and lr > 0):
        raise ValidationError(f"lr must be positive and finite, got {lr}")
    if iterations < 0:
        raise ValidationError(f"{iterations_name} must be >= 0, got {iterations}")
    if momentum is not None and not 0.0 <= momentum < 1.0:
        raise ValidationError(f"momentum must be in [0, 1), got {momentum}")
    if not (np.isfinite(weight_decay) and weight_decay >= 0):
        raise ValidationError(f"weight_decay must be >= 0 and finite, got {weight_decay}")


class SgdOptimizer:
    def __init__(
        self,
        groups: dict[str, list[Tensor]],
        lr: float,
        total_iterations: int,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        group_multipliers: dict[str, float] | None = None,
    ):
        check_settings(lr, total_iterations, weight_decay, momentum)
        self.groups = {name: list(tensors) for name, tensors in groups.items()}
        self.lr = float(lr)
        self.total_iterations = int(total_iterations)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.multipliers = {name: 1.0 for name in self.groups}
        if group_multipliers:
            for name, mult in group_multipliers.items():
                if name not in self.groups:
                    raise ValidationError(f"unknown parameter group {name!r}")
                if not (np.isfinite(mult) and mult > 0):
                    raise ValidationError(f"multiplier for group {name!r} must be positive and finite, got {mult}")
                self.multipliers[name] = float(mult)
        self.iteration = 0

        owned = [(name, t) for name, tensors in self.groups.items() for t in tensors]
        if len({id(t) for _, t in owned}) != len(owned):
            raise ValidationError("a tensor appears more than once in the parameter groups")
        owned.sort(key=lambda slot: slot[1].data.ctypes.data)  # by address: the span's order
        self._w = _tiled_span([t.data for _, t in owned])
        if self._w is None:
            raise ValidationError("optimizer parameters must be views that tile one float64 vector end to end")
        self._v = np.zeros_like(self._w)
        self._g: np.ndarray | None = None  # the gathered gradients, allocated when they first tile no vector
        self._scratch = np.empty_like(self._w)
        self._runs, stop = [], 0  # (weights, momentum, scratch, multiplier) per run of slots sharing a multiplier
        for mult, run in itertools.groupby(owned, key=lambda slot: self.multipliers[slot[0]]):
            start, stop = stop, stop + sum(t.data.size for _, t in run)
            self._runs.append((self._w[start:stop], self._v[start:stop], self._scratch[start:stop], mult))
        self._slots = [(name, t, t.data) for name, t in owned]  # (group, tensor, the view its .data must still be)
        self._grads_seen: tuple = ()  # the gradient arrays last validated
        self._grad_span: np.ndarray | None = None  # the span they tile, None if they tile none

    def lr_at(self, iteration: int) -> float:
        """The base learning rate at an iteration; a group's is this times multipliers[group]."""
        if iteration < 0 or iteration > self.total_iterations:
            raise ValidationError(
                f"iteration must be in [0, {self.total_iterations}], got {iteration}"
            )
        if self.total_iterations > 0 and iteration >= self.total_iterations // 2:
            return self.lr * DECAY_FACTOR
        return self.lr

    def step(self) -> None:
        """Apply one update from the gradients currently on the parameters.

        The gradients need to hold only until this call returns, as the
        fused step's buffers do, and are never written; every update writes
        into vectors allocated with the optimizer. Gradients are left in
        place; the training loop is responsible for reset_grads, which keeps
        the no-silent-accumulation contract of backward() intact.
        """
        grads = []
        for name, t, view in self._slots:
            if t.data is not view:
                raise UsageError(
                    f"a parameter in group {name!r} had its .data rebound after the optimizer "
                    "was built; set parameter values before building the optimizer"
                )
            if t.grad is None:
                raise UsageError(f"parameter in group {name!r} has no gradient; run backward first")
            grads.append(t.grad)
        base = self.lr_at(self.iteration)
        w, v, g, tmp = self._w, self._v, self._gradients(grads), self._scratch
        if self.weight_decay != 0.0:
            np.multiply(self.weight_decay, w, out=tmp)
            tmp += g  # = g + weight_decay * w, bit for bit: IEEE addition commutes
            g = tmp
        v *= self.momentum
        v += g
        for w_run, v_run, tmp_run, mult in self._runs:  # v * fl(base * mult): a per-tensor loop's rate * v
            w_run -= np.multiply(v_run, base * mult, out=tmp_run)
        self.iteration += 1

    def _gradients(self, grads: list) -> np.ndarray:
        """The slots' gradients as one vector in the weights' order: read in
        place when each sits at its weight's offset in one vector, else gathered.

        Gradient arrays seen before are recognized by identity, so the
        layout is validated once per set of arrays.
        """
        if len(grads) != len(self._grads_seen) or not all(map(operator.is_, grads, self._grads_seen)):
            fits = all(gr.size == view.size for gr, (_, _, view) in zip(grads, self._slots))
            self._grad_span = _tiled_span(grads) if fits else None
            self._grads_seen = tuple(grads)
        if self._grad_span is not None:
            return self._grad_span
        self._g = np.empty_like(self._w) if self._g is None else self._g
        if grads:
            np.concatenate([gr.reshape(-1) for gr in grads], out=self._g)
        return self._g


def _tiled_span(arrays) -> np.ndarray | None:
    """The 1-D view of the one float64 vector that arrays, in their order, tile end to end; None if none."""
    if not arrays:
        return np.empty(0)
    root = arrays[0] if arrays[0].base is None else arrays[0].base
    tiled = isinstance(root, np.ndarray) and root.dtype == np.float64 and root.flags.c_contiguous
    start = end = arrays[0].ctypes.data
    for a in arrays:
        tiled = tiled and (a if a.base is None else a.base) is root and a.flags.c_contiguous and a.ctypes.data == end
        end += a.nbytes
    if not tiled:
        return None
    return root.reshape(-1)[(start - root.ctypes.data) // 8 : (end - root.ctypes.data) // 8]
