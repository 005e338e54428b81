"""Minimal reverse-mode differentiation engine.

Provides exactly the layer set the enhancement networks need (1-D
convolution, batch normalization, PReLU, residual/concat/cost glue), a
deterministic backward pass, and finite-difference gradient checking.

Arrays are kept in whatever float dtype they enter with: training runs in
float32 (matching the checkpoint wire format), gradient checks in float64.
Graphs are single-threaded; parameter values are treated as immutable
during a forward/backward pass. Inside ``no_grad()`` ops build no graph,
for inference.
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
    output gradient back to them (outside ``no_grad`` only). Gradients
    accumulate until reset, so running ``backprop`` twice on the same graph
    doubles them.
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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def ensure_grad(self) -> Array:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self.grad

    def __repr__(self) -> str:
        return f"Node(op={self.op}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def parameter(value) -> Node:
    """Wrap an array as a trainable leaf."""
    return Node(np.asarray(value), requires_grad=True, op="param")


def constant(value) -> Node:
    return Node(np.asarray(value), op="const")


@dataclass
class BatchNormState:
    """Learnable scale/shift plus running statistics of one BN layer.

    Statistics are taken per channel over the time axis and, for batched
    input, the batch axis; the running variance uses the biased estimator.
    The running-average momentum and the variance epsilon are fixed.
    """

    momentum: ClassVar[float] = 0.1
    eps: ClassVar[float] = 1e-5

    gamma: Node
    beta: Node
    running_mean: Array
    running_var: Array
    training: bool = True

    def __post_init__(self):
        if np.any(self.running_var < 0):
            raise ValueError("running variance must be elementwise non-negative")


def batchnorm_state(channels: int, dtype=np.float32) -> BatchNormState:
    """Fresh BN state: gamma=1, beta=0, running stats at the identity."""
    return BatchNormState(
        gamma=parameter(np.ones(channels, dtype=dtype)),
        beta=parameter(np.zeros(channels, dtype=dtype)),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
    )


def _as_batched(a: Array, what: str) -> tuple[Array, bool]:
    """View ``a`` as (batch, channels, time); return (view, had_no_batch)."""
    if a.ndim == 2:
        return a[None], True
    if a.ndim == 3:
        return a, False
    raise ValueError(f"{what}: expected a (C, T) or (B, C, T) array, got shape {a.shape}")


def conv1d(x: Node, weight: Node, bias: Node) -> Node:
    """1-D convolution (cross-correlation) along the time axis, as k shifted matmuls.

    weight is (C_out, C_in, k) with k odd; the input is zero-padded by
    p = (k-1)/2 frames at both ends, so the output keeps the input length
    T. With x_pad the padded input:

        out = bias + sum_j W[:, :, j] @ x_pad[..., j:j+T]

    The backward pass reads the same sum in reverse,
    dW[:, :, j] = sum_b g @ x_pad[..., j:j+T]^T and
    dx_pad[..., j:j+T] += W[:, :, j]^T @ g, then crops the padding.
    Differentiable w.r.t. input, weight and bias.
    """
    w = weight.value
    if w.ndim != 3:
        raise ValueError(f"conv1d: weight must be (C_out, C_in, k), got shape {w.shape}")
    c_out, c_in, k = w.shape
    if k % 2 == 0:
        raise ValueError(f"conv1d: kernel size must be odd, got {k}")
    padding = (k - 1) // 2
    xv, unbatched = _as_batched(x.value, "conv1d")
    _, c, t = xv.shape
    if c != c_in:
        raise ValueError(f"conv1d: input has {c} channels but weight expects {c_in}")
    if t < 1:
        raise ValueError("conv1d: 0 frames are too few, need at least 1")

    xp = np.pad(xv, ((0, 0), (0, 0), (padding, padding))) if padding else xv
    out3 = w[:, :, 0] @ xp[:, :, :t]
    for j in range(1, k):
        out3 += w[:, :, j] @ xp[:, :, j:j + t]
    out3 += bias.value[:, None]

    def backward(g: Array) -> None:
        g3 = g if g.ndim == 3 else g[None]
        if bias.requires_grad:
            bias.ensure_grad()[...] += g3.sum(axis=(0, 2))
        if weight.requires_grad:
            dw = weight.ensure_grad()
            for j in range(k):
                dw[:, :, j] += (g3 @ xp[:, :, j:j + t].transpose(0, 2, 1)).sum(axis=0)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for j in range(k):
                dxp[:, :, j:j + t] += w[:, :, j].T @ g3
            dx = dxp[:, :, padding:padding + t]
            x.ensure_grad()[...] += dx[0] if unbatched else dx

    return Node(
        out3[0] if unbatched else out3,
        parents=(x, weight, bias),
        backward=backward,
        op="conv1d",
    )


def batchnorm1d(x: Node, state: BatchNormState) -> Node:
    """Per-channel normalization over the time (and batch) axes.

    Training mode normalizes with the batch statistics and folds them into
    the running estimates; inference mode normalizes with the running
    estimates. Differentiable w.r.t. input, gamma and beta.
    """
    xv, unbatched = _as_batched(x.value, "batchnorm1d")
    b, c, t = xv.shape
    gamma, beta = state.gamma, state.beta
    if gamma.value.shape != (c,):
        raise ValueError(f"batchnorm1d: state has {gamma.value.shape[0]} channels, input has {c}")

    if state.training:
        if b * t < 2:
            raise ValueError("batchnorm1d: training mode needs at least 2 samples per channel")
        mu = xv.mean(axis=(0, 2))
        xc = xv - mu[:, None]
        var = np.mean(xc * xc, axis=(0, 2))
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat = xc * inv_std[:, None]
        state.running_mean += state.momentum * (mu - state.running_mean)
        state.running_var += state.momentum * (var - state.running_var)
    else:
        inv_std = (1.0 / np.sqrt(state.running_var + state.eps)).astype(xv.dtype)
        xhat = (xv - state.running_mean[:, None]) * inv_std[:, None]
    out = gamma.value[:, None] * xhat + beta.value[:, None]

    m = b * t
    in_training = state.training

    def backward(g: Array) -> None:
        g3 = g if g.ndim == 3 else g[None]
        if beta.requires_grad:
            beta.ensure_grad()[...] += g3.sum(axis=(0, 2))
        if gamma.requires_grad:
            gamma.ensure_grad()[...] += (g3 * xhat).sum(axis=(0, 2))
        if x.requires_grad:
            dxhat = g3 * gamma.value[:, None]
            if in_training:
                s1 = dxhat.sum(axis=(0, 2))
                s2 = (dxhat * xhat).sum(axis=(0, 2))
                dx = (dxhat - (s1[:, None] + xhat * s2[:, None]) / m) * inv_std[:, None]
            else:
                dx = dxhat * inv_std[:, None]
            x.ensure_grad()[...] += dx[0] if unbatched else dx

    return Node(
        out[0] if unbatched else out,
        parents=(x, gamma, beta),
        backward=backward,
        op="batchnorm1d",
    )


def prelu(x: Node, slope: Node) -> Node:
    """PReLU with one learnable slope per channel.

    out = x where x > 0, else slope_c * x. At x = 0 the gradient takes the
    negative-branch slope (fixed subgradient choice).
    """
    xv, unbatched = _as_batched(x.value, "prelu")
    c = xv.shape[1]
    if slope.value.shape != (c,):
        raise ValueError(f"prelu: slope has shape {slope.value.shape}, input has {c} channels")
    positive = xv > 0
    out = np.where(positive, xv, slope.value[:, None] * xv)

    def backward(g: Array) -> None:
        g3 = g if g.ndim == 3 else g[None]
        if slope.requires_grad:
            slope.ensure_grad()[...] += np.where(positive, 0.0, g3 * xv).sum(axis=(0, 2))
        if x.requires_grad:
            dx = np.where(positive, g3, g3 * slope.value[:, None])
            x.ensure_grad()[...] += dx[0] if unbatched else dx

    return Node(
        out[0] if unbatched else out,
        parents=(x, slope),
        backward=backward,
        op="prelu",
    )


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of two same-shape nodes (the residual connection)."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"add: shape mismatch {a.value.shape} vs {b.value.shape}")

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.ensure_grad()[...] += g
        if b.requires_grad:
            b.ensure_grad()[...] += g

    return Node(a.value + b.value, parents=(a, b), backward=backward, op="add")


def concat_channels(a: Node, b: Node) -> Node:
    """Stack two nodes along the channel axis (second to last)."""
    if a.value.ndim != b.value.ndim:
        raise ValueError("concat_channels: rank mismatch")
    ca = a.value.shape[-2]

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.ensure_grad()[...] += g[..., :ca, :]
        if b.requires_grad:
            b.ensure_grad()[...] += g[..., ca:, :]

    return Node(
        np.concatenate([a.value, b.value], axis=-2),
        parents=(a, b),
        backward=backward,
        op="concat",
    )


def mse(x: Node, target: Array) -> Node:
    """Scalar mean of squared elementwise differences against a constant."""
    target = np.asarray(target)
    if x.value.shape != target.shape:
        raise ValueError(f"mse: shape mismatch {x.value.shape} vs {target.shape}")
    diff = x.value - target
    out = np.asarray(np.mean(diff * diff))

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * (2.0 / diff.size) * diff

    return Node(out, parents=(x,), backward=backward, op="mse")


def scale(x: Node, factor: float) -> Node:
    def backward(g: Array) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * factor

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
            if n.requires_grad:
                n.ensure_grad()[...] += g

    return Node(total, parents=tuple(nodes), backward=backward, op="sum")


def backprop(loss: Node) -> None:
    """Populate gradients of ``loss`` w.r.t. every reachable parameter.

    Traversal is reverse creation order (a fixed topological order), so
    repeated runs on identical graphs are bit-deterministic. Gradients are
    accumulated: call ``zero_grads`` between independent passes.
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

    loss.ensure_grad()[...] += 1.0
    for node in ordered:
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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
    per element is |a - n| / max(|a|, |n|, 1e-8). Gradients whose analytic
    and numeric values both sit below the central-difference resolution
    limit eps*|f|/h (cancellation noise) count as exact zeros, so an
    identically-zero loss reports 0 rather than NaN.
    """
    if h <= 0:
        raise ValueError(f"grad_check: step size must be positive, got {h}")
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

    worst = 0.0
    for p, a in zip(params, analytic):
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + h
            f_plus = float(loss_fn().value)
            p.value[idx] = orig - h
            f_minus = float(loss_fn().value)
            p.value[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            if abs(float(a[idx])) < noise_floor and abs(numeric) < noise_floor:
                continue
            err = abs(float(a[idx]) - numeric) / max(abs(float(a[idx])), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
