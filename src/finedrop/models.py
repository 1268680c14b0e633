"""Residual MLPs whose penultimate representation is an exact telescoping sum.

A model is an input projection, a stack of two-layer residual blocks with
identity skips (no normalization layers), and a linear head. Because block
i adds f_i(h) onto its input, the representation fed to the head is

    phi(x) = proj(x) + f_1(...) + f_2(...) + ... + f_depth(...)

and `block_contributions` returns exactly those addends, in order, so their
left-to-right sum reproduces the forward representation bit for bit. The
second layer of every block is zero-initialized: a fresh network computes
identity-plus-projection, which both stabilizes from-scratch training and
makes the degenerate decomposition directly testable.

Training runs on `StackedStep`: one array-level pass over proj, blocks,
inverted dropout, head and softmax cross-entropy for K models of one
architecture at once, as [K, ...] arithmetic, and its hand-derived
backward, which repeats the float operations of the autodiff ops one for
one, so each model's loss and gradients equal the tape's bit for bit. Its
arrays, allocated once per training call, keep only what the backward reads
(relu outputs become their masks and dropout rescales phi, in place), so a
step allocates no activation and no dropout mask, and what it leaves there,
gradients included, holds until the next step. Each model's gradients are
views of its row of one [K, P] matrix, laid out like its `params`, which its
optimizer reads in place. Evaluation (`ResidualModel.predict_proba`) has a
kernel of its own: it walks the rows in chunks of EVAL_CHUNK_ROWS through
buffers allocated once per call, keeps no activations, and equals
`ad.softmax(forward(model, x)[0].data)` bit for bit. Below 8 classes both
kernels fold the softmax's class max and sum over the class columns
(`_reduce_classes`), as numpy's per-row reductions are slow at a few classes.
The tape `forward` stays as the reference both are tested against and as
the path `block_contributions` takes.

A model's parameters are views of one flat float64 vector, `params`, in
named_parameters order: the optimizer updates it in place and a checkpoint
is a copy of it. Write a parameter in place (`t.data[...] = v`); rebinding
`.data` detaches it, and reordering `blocks` in place moves a view off its
named offset, so `checkpoint_from_model` and `StackedStep` (training)
refuse either model. A copy or a pickle round trip rebuilds the model over
a copy of `params`.

Checkpoints are a single file: one line of compact JSON (the manifest:
architecture, parameter shapes, iteration, run id, and an "rng_state" that
is always null, kept so files stay byte-identical) terminated by a newline,
followed by the flat parameter vector as raw little-endian float64 bytes.
Round trips are bit-exact.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import check_labels
from .errors import FormatError, UsageError, ValidationError
from .regularizers import DropoutSpec, batch_dropout_mask

__all__ = [
    "ResidualBlockParams",
    "ResidualModel",
    "Checkpoint",
    "new_residual_model",
    "forward",
    "StackedStep",
    "check_labels",
    "block_contributions",
    "reinit_head",
    "checkpoint_from_model",
    "model_from_checkpoint",
    "load_checkpoint",
]

PROVENANCE_TAGS = ("scratch", "pretrained-plain", "pretrained-rich")

EVAL_CHUNK_ROWS = 512  # rows per chunk of `ResidualModel.predict_proba`


@dataclass
class ResidualBlockParams:
    """Parameters of one block: f(h) = w2 . relu(w1 . h + b1) + b2."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor


@dataclass
class ResidualModel:
    proj_w: ad.Tensor
    proj_b: ad.Tensor
    blocks: list[ResidualBlockParams]
    head_w: ad.Tensor
    head_b: ad.Tensor
    params: np.ndarray  # the flat vector every tensor above is a view of
    meta: dict = field(default_factory=dict)
    # params, then the parameters' arrays in named_parameters order, as last found at their offsets
    _placed: tuple = field(default=(), init=False, repr=False, compare=False)

    def __reduce__(self):
        """Copies and pickles rebuild the model over a copy of params, so a copy views its own vector."""
        shapes = [(name, t.shape) for name, t in self.named_parameters()]
        return _assemble, (_attached_params(self).copy(), shapes, dict(self.meta))

    @property
    def input_dim(self) -> int:
        return self.proj_w.shape[0]

    @property
    def width(self) -> int:
        return self.proj_w.shape[1]

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def num_classes(self) -> int:
        return self.head_w.shape[1]

    def arch(self) -> dict:
        """Architecture dims, the part of the manifest load-time checks compare."""
        return {
            "input_dim": self.input_dim,
            "width": self.width,
            "depth": self.depth,
            "block_hidden": self.blocks[0].w1.shape[1] if self.blocks else self.width,
            "num_classes": self.num_classes,
        }

    def named_parameters(self) -> list[tuple[str, ad.Tensor]]:
        """Canonical (name, tensor) order: the order of the views in `params`, and so of checkpoints."""
        out = [("proj_w", self.proj_w), ("proj_b", self.proj_b)]
        for i, blk in enumerate(self.blocks):
            out += [
                (f"block{i}.w1", blk.w1),
                (f"block{i}.b1", blk.b1),
                (f"block{i}.w2", blk.w2),
                (f"block{i}.b2", blk.b2),
            ]
        out += [("head_w", self.head_w), ("head_b", self.head_b)]
        return out

    def parameters(self) -> list[ad.Tensor]:
        return [t for _, t in self.named_parameters()]

    def trunk_parameters(self) -> list[ad.Tensor]:
        return [t for name, t in self.named_parameters() if not name.startswith("head")]

    def head_parameters(self) -> list[ad.Tensor]:
        return [t for name, t in self.named_parameters() if name.startswith("head")]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities for an [n, input_dim] batch.

        Equal bit for bit to `ad.softmax(forward(model, x)[0].data)`. The
        rows go through in chunks of EVAL_CHUNK_ROWS, each op writing into
        per-call chunk buffers or the output, so no activation of the whole
        batch is ever held. A one-row remainder joins the chunk before it:
        numpy multiplies a single row with gemv, whose bits can differ from
        the gemm row the whole batch would get.
        """
        x = _check_batch(self, np.asarray(x, dtype=np.float64, order="C"))
        n, classes = x.shape[0], self.num_classes
        out = np.empty((n, classes))
        rows = min(n, EVAL_CHUNK_ROWS + 1)
        h = np.empty((rows, self.width))
        a = np.empty((rows, self.arch()["block_hidden"]))
        f = np.empty((rows, self.width))
        top, total = np.empty((rows, 1)), np.empty((rows, 1))
        start = 0
        while start < n:
            stop = n if n - start <= EVAL_CHUNK_ROWS + 1 else start + EVAL_CHUNK_ROWS
            m = stop - start
            hc, ac, fc, p = h[:m], a[:m], f[:m], out[start:stop]
            np.matmul(x[start:stop], self.proj_w.data, out=hc)
            hc += self.proj_b.data
            for blk in self.blocks:
                np.matmul(hc, blk.w1.data, out=ac)
                ac += blk.b1.data
                _relu_inplace(ac)
                np.matmul(ac, blk.w2.data, out=fc)
                fc += blk.b2.data
                hc += fc
            np.matmul(hc, self.head_w.data, out=p)
            p += self.head_b.data
            _softmax_rows(p, top[:m], total[:m])
            start = stop
        return out


def _relu_inplace(a: np.ndarray) -> None:
    """a = np.where(a > 0, a, 0.0) in place, with the same bits.

    np.fmax maps NaN to 0 and is several times faster than np.where;
    adding +0.0 then turns a -0.0 it may keep into +0.0.
    """
    np.fmax(a, 0.0, out=a)
    a += 0.0


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray, tile: np.ndarray) -> np.ndarray:
    """out = x @ w + b, adding b (broadcast over out's rows) through tile (out's shape):
    numpy adds a broadcast row through a temporary of up to 64 KiB, tiling it is no slower."""
    np.matmul(x, w, out=out)
    np.copyto(tile, b)
    out += tile
    return out


def _reduce_classes(op: np.ufunc, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op.reduce(p, -1, keepdims=True, out=out) bit for bit, for op np.maximum or np.add.

    From 2 to 7 classes it folds the class columns, one elementwise op per
    column over all rows instead of numpy's inner loop per row, in the
    reduction's order and from its start: +0.0 for a sum, and for a max the
    first column with a NaN made numpy's default NaN. The columns are strided,
    so numpy's scalar loop keeps a tie's first operand, as the reduction does.
    From 8 classes numpy sums pairwise, which a fold would not repeat."""
    classes = p.shape[-1]
    if not 1 < classes < 8:
        return op.reduce(p, -1, keepdims=True, out=out)
    if op is np.add:
        np.add(p[..., :1], 0.0, out=out)
    else:
        np.fmax(np.nan, p[..., :1], out=out)
    for j in range(1, classes):
        op(out, p[..., j : j + 1], out=out)
    return out


def _softmax_rows(p: np.ndarray, top: np.ndarray, total: np.ndarray) -> None:
    """`ad.softmax` in place on p, with [rows, 1] scratch for its row max and sum."""
    _reduce_classes(np.maximum, p, top)
    p -= top
    np.exp(p, out=p)
    _reduce_classes(np.add, p, total)
    p /= total


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _param_shapes(input_dim, width, depth, num_classes, block_hidden=None, provenance="scratch"):
    """Validated (name, shape) list in named_parameters order."""
    if input_dim < 1 or width < 1 or num_classes < 1:
        raise ValidationError(
            f"dims must be >= 1, got input_dim={input_dim} width={width} num_classes={num_classes}"
        )
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    hidden = width if block_hidden is None else int(block_hidden)
    if hidden < 1:
        raise ValidationError(f"block_hidden must be >= 1, got {hidden}")
    if provenance not in PROVENANCE_TAGS:
        raise ValidationError(f"provenance must be one of {PROVENANCE_TAGS}, got {provenance!r}")
    shapes = [("proj_w", (input_dim, width)), ("proj_b", (width,))]
    for i in range(depth):
        shapes += [
            (f"block{i}.w1", (width, hidden)),
            (f"block{i}.b1", (hidden,)),
            (f"block{i}.w2", (hidden, width)),
            (f"block{i}.b2", (width,)),
        ]
    return shapes + [("head_w", (width, num_classes)), ("head_b", (num_classes,))]


def _assemble(params: np.ndarray, shapes: list, meta: dict) -> ResidualModel:
    """Model whose leaves are views of `params`, cut by shapes, a `_param_shapes` list.

    The vector is taken over, not copied; the head is the last two.
    """
    leaves, offset = [], 0
    for _, shape in shapes:
        leaves.append(ad.Tensor(params[offset : offset + math.prod(shape)].reshape(shape), requires_grad=True))
        offset += math.prod(shape)
    proj_w, proj_b, *body, head_w, head_b = leaves
    blocks = [ResidualBlockParams(*body[i : i + 4]) for i in range(0, len(body), 4)]
    model = ResidualModel(proj_w, proj_b, blocks, head_w, head_b, params, meta)
    model._placed = (params, *(t.data for t in leaves))
    return model


def new_residual_model(
    input_dim: int,
    width: int,
    depth: int,
    num_classes: int,
    seed: int,
    block_hidden: int | None = None,
    provenance: str = "scratch",
) -> ResidualModel:
    """Deterministically initialized model; same (dims, seed) gives identical bits.

    Weights are fan-in-scaled uniform, biases zero, and the second layer of
    each block is zero so every f_i starts as the zero function. depth may
    be 0, in which case phi(x) is just the projected input.
    """
    shapes = _param_shapes(input_dim, width, depth, num_classes, block_hidden, provenance)
    rng = np.random.default_rng(seed)
    arrays = [
        _uniform_fan_in(rng, shape[0], shape) if name.endswith(("_w", ".w1")) else np.zeros(shape)
        for name, shape in shapes
    ]
    meta = {"seed": int(seed), "provenance": provenance}
    return _assemble(np.concatenate([a.ravel() for a in arrays]), shapes, meta)


def _trunk(model: ResidualModel, x: ad.Tensor) -> tuple[ad.Tensor, list[ad.Tensor]]:
    # Single code path for forward and block_contributions: the running sum
    # h is folded left to right, so summing the returned terms in order is
    # the exact same float op sequence.
    h = ad.add_bias(ad.matmul(x, model.proj_w), model.proj_b)
    terms = [h]
    for blk in model.blocks:
        z = ad.relu(ad.add_bias(ad.matmul(h, blk.w1), blk.b1))
        f = ad.add_bias(ad.matmul(z, blk.w2), blk.b2)
        terms.append(f)
        h = ad.add(h, f)
    return h, terms


def _check_batch(model: ResidualModel, x: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValidationError(f"input must be [batch, {model.input_dim}], got shape {x.shape}")
    return x


def _as_batch(model: ResidualModel, x) -> ad.Tensor:
    xt = x if isinstance(x, ad.Tensor) else ad.Tensor(x)
    _check_batch(model, xt.data)
    return xt


def forward(model: ResidualModel, x, dropout: DropoutSpec | None = None):
    """(logits, phi) for an [n, input_dim] batch.

    phi is the pre-dropout penultimate representation. With an active
    train-mode dropout spec, a fresh per-example mask is applied to phi and
    survivors are rescaled by 1/(1-rate) before the head; in eval mode, or
    at rate 0, the head sees phi unchanged and the mask rng is never
    touched, so a rate-0 run is bit-equivalent to having no dropout at all.
    """
    xt = _as_batch(model, x)
    phi, _ = _trunk(model, xt)
    if dropout is not None and dropout.active:
        mask = batch_dropout_mask(phi.shape[0], phi.shape[1], dropout.rate, dropout._require_rng())
        masked = ad.elementwise_mul(phi, ad.Tensor(mask))
        head_in = ad.scale(masked, 1.0 / (1.0 - dropout.rate))
    else:
        head_in = phi
    logits = ad.add_bias(ad.matmul(head_in, model.head_w), model.head_b)
    return logits, phi


class StackedStep:
    """One training step of K models of one architecture, as [K, ...] array arithmetic.

    The caller writes each step's inputs: model k's batch rows into `x[k]`,
    its labels into `labels[k]` and, at a dropout rate above 0, its
    `batch_dropout_mask` into `mask[k]`. `forward` copies each model's
    `params` into row k of `w`, a [K, P] matrix, and returns the K mean
    cross-entropies; `backward` then fills `grad`, a [K, P] matrix laid out
    like `w`. `grads[k]` are row k's views, one per parameter of model k in
    named_parameters order and each at its weight's offset, so an optimizer
    over model k reads them in place. Each step overwrites the last one's.
    A model whose parameters left their offsets in `params` (a rebound
    `.data`, blocks reordered in place) is refused, as `checkpoint_from_model`
    refuses it. `hs` keeps each block's input, then phi dropped out in place;
    `zs` each relu output, which `backward` turns into its mask in place.

    Every float operation is the one the tape ops perform on one model:
    products are `np.matmul` over [K, m, n] views, which numpy runs as one
    gemm per model on that model's rows; bias gradients are `np.add.reduce`
    over the batch axis; the softmax's class max and sum are `_reduce_classes`,
    below 8 classes a fold of the class columns over all K x batch rows in
    the order of the tape's per-row reductions. So model k's loss and
    gradients equal `forward` + `ad.softmax_cross_entropy` + `ad.backward` on
    model k alone, bit for bit, and a step on K = 1 is a step on one model.
    """

    def __init__(self, models: list, batch: int, rate: float = 0.0):
        if not models:
            raise ValidationError("a stacked step needs at least one model")
        if batch < 1:
            raise ValidationError(f"batch must be >= 1, got {batch}")
        first, k = models[0], len(models)
        for model in models:
            _attached_params(model)  # so each parameter sits at its canonical offset
            if model.arch() != first.arch():
                raise ValidationError(f"stacked models must share one architecture: {model.arch()} vs {first.arch()}")
        shapes = [t.shape for t in first.parameters()]
        stops = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        layout = list(zip([0, *stops], stops, shapes))  # (start, stop, shape) of each parameter in params
        width, hidden, classes = first.width, first.arch()["block_hidden"], first.num_classes
        self.models, self.batch, self.rate = list(models), batch, float(rate)
        self.x = np.empty((k, batch, first.input_dim))
        self.labels = np.empty((k, batch), dtype=np.intp)
        self.mask = np.empty((k, batch, width)) if rate > 0.0 else None  # each model's dropout mask
        self.scale = 1.0 / (1.0 - rate)
        self.row_starts = np.arange(k * batch).reshape(k, batch) * classes  # flat offset of each row's logits
        self.label_at = np.empty((k, batch), dtype=np.intp)  # flat offset of each row's label
        self.picked = np.empty((k, batch))  # the label entries of log_probs, then of d
        self.sums, self.loss = np.empty(k), np.empty(k)
        self.hs = [np.empty((k, batch, width)) for _ in range(first.depth + 1)]  # block inputs, then the head's
        self.zs = [np.empty((k, batch, hidden)) for _ in range(first.depth)]  # relu outputs, then their masks
        self.logits, self.probs, self.d = (np.empty((k, batch, classes)) for _ in range(3))
        self.top, self.total = np.empty((k, batch, 1)), np.empty((k, batch, 1))  # softmax row max and sum
        self.dh = (np.empty((k, batch, width)), np.empty((k, batch, width)))  # the current one and a spare
        self.dz = np.empty((k, batch, hidden))
        self.w, self.grad = np.empty((k, first.params.size)), np.empty((k, first.params.size))
        # per parameter: [K, m, n] weights and gradients, and [K, 1, n] biases with [K, n] gradients
        self._w = [self.w[:, a:b].reshape((k, 1) + shape if len(shape) == 1 else (k,) + shape)
                   for a, b, shape in layout]
        self._g = [self.grad[:, a:b].reshape((k,) + shape) for a, b, shape in layout]
        self.grads = [tuple(self.grad[i, a:b].reshape(shape) for a, b, shape in layout) for i in range(k)]

    def rows(self, keep: list) -> "StackedStep":
        """A step over the models at indices keep, holding their rows of this step's inputs."""
        step = StackedStep([self.models[i] for i in keep], self.batch, self.rate)
        np.take(self.x, keep, axis=0, out=step.x)
        np.take(self.labels, keep, axis=0, out=step.labels)
        if self.mask is not None:
            np.take(self.mask, keep, axis=0, out=step.mask)
        return step

    def forward(self) -> np.ndarray:
        """The K mean cross-entropies of the loaded inputs, keeping what `backward` reads."""
        for row, model in zip(self.w, self.models):
            np.copyto(row, model.params)
        ws, tile_w, tile_hidden, tile_classes = self._w, self.dh[0], self.dz, self.d  # scratch until backward
        h = _affine(self.x, ws[0], ws[1], self.hs[0], tile_w)
        for i, (z, h_next) in enumerate(zip(self.zs, self.hs[1:])):
            w1, b1, w2, b2 = ws[2 + 4 * i : 6 + 4 * i]
            _affine(h, w1, b1, z, tile_hidden)
            _relu_inplace(z)
            _affine(z, w2, b2, h_next, tile_w)
            h_next += h
            h = h_next
        if self.mask is not None:  # in place: no later read wants phi before dropout
            h *= self.mask
            h *= self.scale
        logits = _affine(h, ws[-2], ws[-1], self.logits, tile_classes)
        log_probs = self.probs
        _reduce_classes(np.maximum, logits, self.top)
        np.subtract(logits, self.top, out=log_probs)
        _reduce_classes(np.add, np.exp(log_probs, out=self.d), self.total)
        log_probs -= np.log(self.total, out=self.total)
        np.add(self.row_starts, self.labels, out=self.label_at)
        picked = np.take(log_probs, self.label_at, out=self.picked, mode="clip")  # "raise" would buffer out
        np.add.reduce(picked, 1, out=self.sums)
        np.divide(self.sums, self.batch, out=self.loss)
        np.negative(self.loss, out=self.loss)  # the bits of -picked.mean(), per model
        np.exp(log_probs, out=self.probs)
        return self.loss

    def backward(self) -> None:
        """Every model's gradients of its loss, into `grad`, from what the last `forward` left.

        Repeats the tape's vector-Jacobian products: `g @ w.T` and `a.T @ g`
        for products, `g.sum(axis=0)` for biases, `g * mask` for dropout and
        `g * (z > 0)` for relu, made in place of the relu output once `dw2`
        has read it. Where the tape adds a block input's two gradients, the
        sum has two terms, so its order cannot change the bits.
        """
        ws, gs, d = self._w, self._g, self.d
        np.copyto(d, self.probs)
        picked = np.take(d, self.label_at, out=self.picked, mode="clip")
        picked -= 1.0
        d.put(self.label_at, picked)
        d *= 1.0 / self.batch
        np.matmul(self.hs[-1].transpose(0, 2, 1), d, out=gs[-2])
        np.add.reduce(d, 1, out=gs[-1])
        dh, spare = self.dh
        np.matmul(d, ws[-2].transpose(0, 2, 1), out=dh)
        if self.mask is not None:
            dh *= self.scale
            dh *= self.mask
        da = self.dz  # a block's dz, made its da in place
        for i in reversed(range(len(self.zs))):
            w1, _, w2, _ = ws[2 + 4 * i : 6 + 4 * i]
            dw1, db1, dw2, db2 = gs[2 + 4 * i : 6 + 4 * i]
            np.matmul(dh, w2.transpose(0, 2, 1), out=da)
            np.matmul(self.zs[i].transpose(0, 2, 1), dh, out=dw2)
            np.add.reduce(dh, 1, out=db2)
            da *= np.greater(self.zs[i], 0.0, out=self.zs[i])  # relu(z) > 0 iff z > 0, NaN and -0.0 included
            np.matmul(self.hs[i].transpose(0, 2, 1), da, out=dw1)
            np.add.reduce(da, 1, out=db1)
            np.matmul(da, w1.transpose(0, 2, 1), out=spare)  # never into dh: a matmul must not write its input
            spare += dh
            dh, spare = spare, dh
        np.matmul(self.x.transpose(0, 2, 1), dh, out=gs[0])
        np.add.reduce(dh, 1, out=gs[1])


def block_contributions(model: ResidualModel, x) -> list[ad.Tensor]:
    """The addends [proj(x), f_1(.), ..., f_depth(.)] whose ordered sum is phi."""
    xt = _as_batch(model, x)
    _, terms = _trunk(model, xt)
    return terms


def reinit_head(model: ResidualModel, num_classes: int, seed: int) -> ResidualModel:
    """Fresh copy with the trunk bit-identical and a newly initialized head."""
    shapes = _param_shapes(model.input_dim, model.width, model.depth, num_classes, model.arch()["block_hidden"])
    rng = np.random.default_rng(seed)
    head_w = _uniform_fan_in(rng, model.width, (model.width, num_classes))
    trunk = _attached_params(model)[: -(model.width + 1) * model.num_classes]
    return _assemble(np.concatenate([trunk, head_w.ravel(), np.zeros(num_classes)]), shapes, dict(model.meta))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Flat parameter vector plus the manifest that interprets it."""

    params: np.ndarray
    manifest: dict
    iteration: int
    run_id: str

    @property
    def provenance(self) -> str:
        return self.manifest.get("provenance", "scratch")


def _attached_params(model: ResidualModel) -> np.ndarray:
    """model.params, once each parameter is checked to view it at its named_parameters offset.

    Arrays found in place before are checked by identity; the offsets are
    compared only when the vector, an array or the order changed, as
    rebinding `params` or a `.data`, or reordering `blocks` in place, does.
    """
    named = model.named_parameters()
    arrays = (model.params, *(t.data for _, t in named))
    if len(arrays) == len(model._placed) and all(map(operator.is_, arrays, model._placed)):
        return model.params
    params, offset = model.params, 0
    for (name, _), a in zip(named, arrays[1:]):
        if a.base is not params:
            raise UsageError(f"parameter {name} no longer views model.params: write it in place, t.data[...] = v")
        if not a.flags.c_contiguous or a.ctypes.data != params.ctypes.data + 8 * offset:
            raise UsageError(f"parameter {name} is not at its offset {offset} in model.params: "
                             "the blocks were reordered in place, or its .data rebound to another view")
        offset += a.size
    model._placed = arrays
    return params


def checkpoint_from_model(model: ResidualModel, iteration: int = 0, run_id: str = "") -> Checkpoint:
    params = _attached_params(model)
    manifest = {
        "schema_version": 1,
        "arch": model.arch(),
        "param_shapes": [[name, list(t.shape)] for name, t in model.named_parameters()],
        "total": params.size,
        "seed": model.meta.get("seed"),
        "provenance": model.meta.get("provenance", "scratch"),
    }
    return Checkpoint(params.copy(), manifest, int(iteration), str(run_id))


def _manifest_shapes(manifest: dict) -> list:
    """The (name, shape) list of a manifest's arch, after checking that its
    param_shapes and total agree with it."""
    arch = manifest["arch"] if isinstance(manifest["arch"], dict) else {}
    for key in ("input_dim", "width", "depth", "num_classes", "block_hidden"):
        if type(arch.get(key)) is not int and (key in arch or key != "block_hidden"):  # it defaults to the width
            raise ValidationError(f"manifest arch {key} must be an integer, got {arch.get(key)!r}")
    shapes = _param_shapes(arch["input_dim"], arch["width"], arch["depth"], arch["num_classes"],
                           arch.get("block_hidden"), manifest.get("provenance", "scratch"))
    if len(manifest["param_shapes"]) != len(shapes):
        raise ValidationError(
            f"manifest lists {len(manifest['param_shapes'])} parameters, architecture has {len(shapes)}"
        )
    for (name, shape), (m_name, m_shape) in zip(shapes, manifest["param_shapes"]):
        if name != m_name or list(shape) != list(m_shape):
            raise ValidationError(
                f"manifest entry {m_name}{m_shape} does not match architecture slot {name}{list(shape)}"
            )
    total, expected = manifest["total"], sum(math.prod(shape) for _, shape in shapes)
    if type(total) is not int or total != expected:
        raise ValidationError(f"manifest total {total!r} is not the {expected} parameters of its architecture")
    return shapes


def model_from_checkpoint(ckpt: Checkpoint) -> ResidualModel:
    """Rebuild a model from a checkpoint; inverse of checkpoint_from_model.

    The model views a copy of the checkpoint's vector, never the vector itself.
    """
    manifest, params = ckpt.manifest, np.array(ckpt.params, dtype=np.float64)
    shapes, provenance = _manifest_shapes(manifest), manifest.get("provenance", "scratch")
    if params.shape != (manifest["total"],):
        raise ValidationError(
            f"parameter vector of shape {params.shape} does not match manifest total {manifest['total']}"
        )
    return _assemble(params, shapes, {"seed": int(manifest.get("seed") or 0), "provenance": provenance})


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    header = dict(ckpt.manifest)
    header["iteration"] = ckpt.iteration
    header["run_id"] = ckpt.run_id
    header["rng_state"] = None
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(ckpt.params, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; refuses truncated files and mismatched manifests.

    A NaN or infinite parameter raises FormatError naming the file and the
    first such index, so a bad start checkpoint is refused before any training.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FormatError("no manifest line found", offset=0)
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}", offset=0) from exc
    for key in ("arch", "param_shapes", "total"):
        if key not in header:
            raise FormatError(f"manifest is missing required key {key!r}", offset=0)
    _manifest_shapes(header)
    body = raw[newline + 1 :]
    expected_bytes = header["total"] * 8
    if len(body) != expected_bytes:
        raise FormatError(
            f"parameter block has {len(body)} bytes, manifest promises {expected_bytes}",
            offset=newline + 1,
        )
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise FormatError(f"{path}: parameter {bad[0]} is {params[bad[0]]}, not finite",
                          offset=newline + 1 + 8 * int(bad[0]))
    manifest = {k: header[k] for k in header if k not in ("iteration", "run_id", "rng_state")}
    return Checkpoint(params, manifest, int(header.get("iteration", 0)), str(header.get("run_id", "")))
