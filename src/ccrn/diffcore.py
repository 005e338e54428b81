"""Minimal reverse-mode differentiation engine.

Provides exactly the layer set the enhancement networks need (1-D
convolution, batch normalization, PReLU, residual/concat/cost glue), a
deterministic backward pass, and finite-difference gradient checking.

Activations are time-major: one example is (T, C) and a batch (B, T, C),
with channels on the last axis, so per-channel ops broadcast over it and
reduce over the others. Convolution weights keep the checkpoint layout
(C_out, C_in, k). Arrays are kept in whatever float dtype they enter
with: training runs in float32 (matching the checkpoint wire format),
gradient checks in float64.
Graphs are single-threaded; parameter values are treated as immutable
during a forward/backward pass. Inside ``no_grad()`` ops build no graph,
for inference, and batch normalization uses its running statistics.
Every gradient lands through ``_accumulate``: a node's first gradient
becomes its slot as is and later ones add into it, so each op hands over
arrays that nothing else reads or writes (a copy where one ``g`` feeds
several parents, or where it is a view).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

Array = np.ndarray

_node_ids = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Inference block: nodes made inside keep no parents and no backward closure.

    Nothing computed inside can be backpropagated, and every intermediate
    value is freed as soon as no later op needs it. The previous mode is
    restored on exit, also when the block raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Node:
    """One value in the computation graph plus its gradient slot.

    Leaves wrap parameters (``requires_grad=True``) or constants; interior
    nodes remember their parents and a closure that routes the incoming
    output gradient back to them (outside ``no_grad`` only). An interior
    node's gradient lives only while ``backprop`` runs. Leaf gradients
    accumulate until reset, so two passes over the same leaves double
    them, whether through one graph or two identically built ones.
    """

    __slots__ = ("value", "grad", "parents", "requires_grad", "op", "_backward", "_id")

    def __init__(
        self,
        value,
        *,
        parents: tuple["Node", ...] = (),
        backward: Callable[[Array], None] | None = None,
        requires_grad: bool = False,
        op: str = "leaf",
    ):
        if not _grad_enabled:
            parents, backward = (), None
        self.value = np.asarray(value)
        self.grad: Array | None = None
        self.parents = parents
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.op = op
        self._backward = backward
        self._id = next(_node_ids)

    def __repr__(self) -> str:
        return f"Node(op={self.op}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def parameter(value) -> Node:
    """Wrap an array as a trainable leaf."""
    return Node(np.asarray(value), requires_grad=True, op="param")


@dataclass(slots=True)
class BatchNormState:
    """Learnable scale/shift plus running statistics of one BN layer.

    Statistics are taken per channel over the time axis and, for batched
    input, the batch axis; the running variance uses the biased estimator.
    The running-average momentum and the variance epsilon are fixed. Which
    statistics normalize is the graph mode (see ``batchnorm1d``), not a
    field; slots make setting any other attribute an error.
    """

    momentum: ClassVar[float] = 0.1
    eps: ClassVar[float] = 1e-5

    gamma: Node
    beta: Node
    running_mean: Array
    running_var: Array

    def __post_init__(self):
        if np.any(self.running_var < 0):
            raise ValueError("running variance must be elementwise non-negative")


def _accumulate(node: Node, g: Array) -> None:
    """Add ``g`` to ``node``'s gradient; an empty slot takes ``g`` itself, uncopied."""
    if not node.requires_grad:
        return
    if g.shape != node.value.shape or g.dtype != node.value.dtype:
        raise ValueError(
            f"gradient {g.dtype}{g.shape} does not match {node.op} value {node.value.dtype}{node.value.shape}"
        )
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


def _channel_axes(a: Array, what: str) -> tuple[int, ...]:
    """The axes a per-channel op reduces over: all but the last (channel) axis."""
    if a.ndim not in (2, 3):
        raise ValueError(f"{what}: expected a (T, C) or (B, T, C) array, got shape {a.shape}")
    return tuple(range(a.ndim - 1))


def conv1d(x: Node, weight: Node, bias: Node) -> Node:
    """1-D convolution (cross-correlation) along the time axis as flat GEMMs.

    x is (T, C_in) or (B, T, C_in); weight is (C_out, C_in, k) with k odd
    (the checkpoint layout). Each example is zero-padded by p = (k-1)/2
    frames at both ends, so the output keeps the input length T, and the
    padded batch is flattened to X of shape (B*(T+2p), C_in). With
    R = B*(T+2p) - 2p:

        out_flat[:R] = bias + sum_j X[j:j+R] @ W[:, :, j].T

    Row b*(T+2p) + t of out_flat is output frame t of example b; the 2p
    rows after each example's T frames mix two examples and are dropped.
    The forward picks whichever operand is smaller to rearrange. When
    R >= C_out (a training batch of 8 x 200 frames), it runs one GEMM per
    tap on the strided view ``W[:, :, j].T`` and reads the input in place.
    When R < C_out (paper-size inference, one file at 512 channels),
    gathering those views would cost more than the products, so it
    unfolds the input instead: ``cols[:, :, j] = X[j:j+R]`` into one
    (R, C_in, k) buffer, then a single
    ``cols.reshape(R, C_in*k) @ W.reshape(C_out, C_in*k).T`` reads the
    stored weight as-is. The rule depends on shapes alone.
    The backward pass reads the same sum in reverse, one GEMM per tap
    whatever the shapes, with the output gradient G zero on the dropped
    rows:
    dW[:, :, j] = G[:R].T @ X[j:j+R] and dX[j:j+R] += G[:R] @ W[:, :, j],
    then crops the padding. Differentiable w.r.t. input, weight and bias.
    The backward pass keeps no padded copy of x: it rebuilds X with the
    same ``np.pad`` from x's value when the weight needs a gradient, and
    sizes dX from the shape alone.
    """
    w = weight.value
    if w.ndim != 3:
        raise ValueError(f"conv1d: weight must be (C_out, C_in, k), got shape {w.shape}")
    c_out, c_in, k = w.shape
    if k % 2 == 0:
        raise ValueError(f"conv1d: kernel size must be odd, got {k}")
    padding = (k - 1) // 2
    _channel_axes(x.value, "conv1d")
    unbatched = x.value.ndim == 2
    xv = x.value[None] if unbatched else x.value
    b, t, c = xv.shape
    if c != c_in:
        raise ValueError(f"conv1d: input has {c} channels but weight expects {c_in}")
    if t < 1:
        raise ValueError("conv1d: 0 frames are too few, need at least 1")

    span = t + 2 * padding
    rows = b * span - 2 * padding
    pad = ((0, 0), (padding, padding), (0, 0))
    flat = np.pad(xv, pad).reshape(b * span, c_in)
    out = np.empty((b * span, c_out), dtype=np.result_type(flat, w))
    if rows < c_out:
        cols = np.empty((rows, c_in, k), dtype=flat.dtype)
        for j in range(k):
            cols[:, :, j] = flat[j:j + rows]
        np.matmul(cols.reshape(rows, c_in * k), w.reshape(c_out, c_in * k).T, out=out[:rows])
    else:
        np.matmul(flat[:rows], w[:, :, 0].T, out=out[:rows])
        for j in range(1, k):
            out[:rows] += flat[j:j + rows] @ w[:, :, j].T
    out[:rows] += bias.value
    out3 = out.reshape(b, span, c_out)[:, :t]

    def backward(g: Array) -> None:
        g3 = g[None] if unbatched else g
        _accumulate(bias, g3.sum(axis=(0, 1)))
        if not (weight.requires_grad or x.requires_grad):
            return
        # G: g per example, zero on the 2p rows that straddle two examples
        gflat = np.empty((b * span, c_out), dtype=g.dtype)
        gflat.reshape(b, span, c_out)[:, :t] = g3
        gflat.reshape(b, span, c_out)[:, t:] = 0
        gflat = gflat[:rows]
        if weight.requires_grad:
            flat = np.pad(xv, pad).reshape(b * span, c_in)
            dw = np.empty_like(w)
            for j in range(k):
                dw[:, :, j] = gflat.T @ flat[j:j + rows]
            _accumulate(weight, dw)
        if x.requires_grad:
            dflat = np.empty((b * span, c_in), dtype=xv.dtype)
            np.matmul(gflat, w[:, :, 0], out=dflat[:rows])
            dflat[rows:] = 0
            for j in range(1, k):
                dflat[j:j + rows] += gflat @ w[:, :, j]
            dx = dflat.reshape(b, span, c_in)[:, padding:padding + t]
            _accumulate(x, (dx[0] if unbatched else dx).copy())

    return Node(
        out3[0] if unbatched else out3,
        parents=(x, weight, bias),
        backward=backward,
        op="conv1d",
    )


def batchnorm1d(x: Node, state: BatchNormState) -> Node:
    """Per-channel normalization of a (T, C) or (B, T, C) input over all but the last axis.

    Building a graph, it normalizes with the batch statistics and folds
    them into the running estimates; inside ``no_grad`` it normalizes with
    the running estimates and changes nothing. Differentiable w.r.t. input,
    gamma and beta. The backward pass keeps x's value, the batch mean and
    the inverse deviation, not the normalized input: it recomputes
    ``xhat = (x - mean) * inv_std`` with the forward's ufuncs, so the bits
    are the same.
    """
    xv = x.value
    axes = _channel_axes(xv, "batchnorm1d")
    c = xv.shape[-1]
    gamma, beta = state.gamma, state.beta
    if gamma.value.shape != (c,):
        raise ValueError(f"batchnorm1d: state has {gamma.value.shape[0]} channels, input has {c}")
    m = math.prod(xv.shape[:-1])

    if _grad_enabled:
        if m < 2:
            raise ValueError("batchnorm1d: batch statistics need at least 2 samples per channel")
        mu = xv.mean(axis=axes)
        xhat = xv - mu
        out = xhat * xhat  # the squared deviations, then the output
        var = np.mean(out, axis=axes)
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat *= inv_std
        state.running_mean += state.momentum * (mu - state.running_mean)
        state.running_var += state.momentum * (var - state.running_var)
    else:  # no graph is built, so no backward reads mu
        inv_std = (1.0 / np.sqrt(state.running_var + state.eps)).astype(xv.dtype)
        xhat = out = xv - state.running_mean
        xhat *= inv_std
    # out = gamma * xhat + beta
    np.multiply(gamma.value, xhat, out=out)
    out += beta.value

    def backward(g: Array) -> None:
        _accumulate(beta, g.sum(axis=axes))
        xhat = xv - mu
        xhat *= inv_std
        product = np.empty_like(xhat)
        if gamma.requires_grad:
            _accumulate(gamma, np.multiply(g, xhat, out=product).sum(axis=axes))
        if x.requires_grad:
            dxhat = g * gamma.value
            s1 = dxhat.sum(axis=axes)
            s2 = np.multiply(dxhat, xhat, out=product).sum(axis=axes)
            del product
            # dx = (dxhat - (s1 + xhat * s2) / m) * inv_std, in place
            xhat *= s2
            xhat += s1
            xhat /= m
            dxhat -= xhat
            dxhat *= inv_std
            _accumulate(x, dxhat)

    return Node(out, parents=(x, gamma, beta), backward=backward, op="batchnorm1d")


def prelu(x: Node, slope: Node) -> Node:
    """PReLU with one learnable slope per channel (the last axis).

    out = max(x, 0) + slope_c * min(x, 0), which is x where x > 0 and
    slope_c * x elsewhere. At x = 0 (either sign) the gradient takes the
    negative-branch slope, and the slope's gradient gets 0 (fixed
    subgradient choice). The backward pass keeps no array but x: it
    recomputes the branch from x's sign, with mask arithmetic rather than a
    masked copy, since a masked copy branches on every element.
    """
    xv = x.value
    axes = _channel_axes(xv, "prelu")
    s = slope.value
    if s.shape != (xv.shape[-1],):
        raise ValueError(f"prelu: slope has shape {s.shape}, input has {xv.shape[-1]} channels")
    out = np.minimum(xv, 0)
    out *= s
    out += np.maximum(xv, 0)

    def backward(g: Array) -> None:
        if slope.requires_grad:
            _accumulate(slope, (g * np.minimum(xv, 0)).sum(axis=axes))
        if x.requires_grad:
            positive = xv > 0
            dx = s * ~positive  # derivative: slope_c where x <= 0, 0 elsewhere
            dx += positive  # and 1 where x > 0
            dx *= g
            _accumulate(x, dx)

    return Node(out, parents=(x, slope), backward=backward, op="prelu")


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of two same-shape nodes (the residual connection)."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"add: shape mismatch {a.value.shape} vs {b.value.shape}")

    def backward(g: Array) -> None:
        _accumulate(a, g)
        _accumulate(b, g.copy())

    return Node(a.value + b.value, parents=(a, b), backward=backward, op="add")


def concat_channels(a: Node, b: Node) -> Node:
    """Stack two nodes along the channel axis (the last)."""
    if a.value.ndim != b.value.ndim:
        raise ValueError("concat_channels: rank mismatch")
    ca = a.value.shape[-1]

    def backward(g: Array) -> None:
        _accumulate(a, g[..., :ca].copy())
        _accumulate(b, g[..., ca:].copy())

    return Node(
        np.concatenate([a.value, b.value], axis=-1),
        parents=(a, b),
        backward=backward,
        op="concat",
    )


def mse(x: Node, target: Array) -> Node:
    """Scalar mean of squared elementwise differences against a constant.

    The backward pass keeps no difference array: it recomputes
    ``x - target`` from x's value and the target.
    """
    target = np.asarray(target)
    if x.value.shape != target.shape:
        raise ValueError(f"mse: shape mismatch {x.value.shape} vs {target.shape}")
    diff = x.value - target
    out = np.asarray(np.mean(diff * diff))

    def backward(g: Array) -> None:
        _accumulate(x, g * (2.0 / x.value.size) * (x.value - target))

    return Node(out, parents=(x,), backward=backward, op="mse")


def scale(x: Node, factor: float) -> Node:
    def backward(g: Array) -> None:
        _accumulate(x, g * factor)

    return Node(x.value * factor, parents=(x,), backward=backward, op="scale")


def add_scalars(nodes: Sequence[Node]) -> Node:
    """Sum of scalar nodes."""
    if not nodes:
        raise ValueError("add_scalars: empty sequence")
    total = nodes[0].value
    for n in nodes[1:]:
        total = total + n.value

    def backward(g: Array) -> None:
        for n in nodes:
            _accumulate(n, g.copy())

    return Node(total, parents=tuple(nodes), backward=backward, op="sum")


def backprop(loss: Node) -> None:
    """Populate gradients of ``loss`` w.r.t. every reachable parameter.

    Traversal is reverse creation order (a fixed topological order), so
    repeated runs on identical graphs are bit-deterministic. Each interior
    node's gradient is dropped once its backward has run; leaf gradients
    accumulate: call ``zero_grads`` between independent passes.
    """
    if loss.value.size != 1:
        raise ValueError(f"backprop: loss must be scalar, got shape {loss.value.shape}")
    visited: set[int] = set()
    ordered: list[Node] = []
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        ordered.append(node)
        stack.extend(node.parents)
    ordered.sort(key=lambda n: n._id, reverse=True)

    _accumulate(loss, np.ones_like(loss.value))
    for node in ordered:
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def zero_grads(nodes: Iterable[Node]) -> None:
    for node in nodes:
        node.grad = None


def kink_margin(root: Node) -> float:
    """Smallest |input| feeding any PReLU in the graph under ``root``.

    Finite-difference gradient checks are only trustworthy when every
    PReLU input stays on one side of zero across the perturbation; callers
    should require a margin comfortably above the step size.
    """
    margin = math.inf
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "prelu":
            margin = min(margin, float(np.min(np.abs(node.parents[0].value))))
        stack.extend(node.parents)
    return margin


def grad_check(loss_fn: Callable[[], Node], params: Sequence[Node], h: float = 1e-5) -> float:
    """Worst relative error of analytic vs central-difference gradients.

    ``loss_fn`` rebuilds the scalar loss from the current parameter values;
    it must be deterministic (checked by evaluating twice). Relative error
    per element is |a - n| / max(|a|, |n|, 1e-8), and inf when either is
    not finite. Gradients whose analytic and numeric values both sit below
    the central-difference resolution limit eps*|f|/h (cancellation noise)
    count as exact zeros, so an identically-zero loss reports 0 rather than
    NaN. A step so small that this limit covers every element while some
    analytic gradient is non-zero compares nothing, and is a ``ValueError``.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"grad_check: step size must be positive and finite, got {h}")
    first = float(loss_fn().value)
    second = float(loss_fn().value)
    if first != second:
        raise ValueError("grad_check: loss function is not deterministic")
    noise_floor = np.finfo(np.float64).eps * max(1.0, abs(first)) / h

    zero_grads(params)
    backprop(loss_fn())
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.value) for p in params
    ]

    worst, compared = 0.0, 0
    for p, a in zip(params, analytic):
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + h
            f_plus = float(loss_fn().value)
            p.value[idx] = orig - h
            f_minus = float(loss_fn().value)
            p.value[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            exact = float(a[idx])
            if not (math.isfinite(exact) and math.isfinite(numeric)):
                return math.inf
            if abs(exact) < noise_floor and abs(numeric) < noise_floor:
                continue
            compared += 1
            worst = max(worst, abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8))
    if not compared and any(np.any(a) for a in analytic):
        raise ValueError(
            f"grad_check: step size {h} is too small: every gradient is under the noise floor {noise_floor:.1e}"
        )
    return worst
