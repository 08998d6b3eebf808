"""Reverse-mode automatic differentiation over a fixed kernel set.

Values are float64 numpy arrays throughout. Each kernel computes its forward
result eagerly and, when any input requires gradients, records a backward
closure on the output node. backward() topologically sorts the recorded graph
once and accumulates gradients into the .grad buffers of the leaves.

The kernel set is exactly what the model pipeline needs (elementwise
arithmetic, matmul with numpy batching, one row gather along an axis,
softmax, relu, sigmoid, log, group/grid normalization and pooling, 1x1 and
3x3 convolutions, bilinear resampling); there is no general broadcasting
machinery beyond it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

EPS_GROUP_NORM = 1e-12

# Finiteness is an error state, not a warning. The scan costs one pass per
# kernel; acceptable at this scale and it catches divergence at the source.
STRICT_FINITE = True


class AutodiffError(RuntimeError):
    pass


class ShapeError(AutodiffError):
    pass


class NonFiniteError(AutodiffError):
    pass


class GraphConsumedError(AutodiffError):
    pass


ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """A float64 array plus an optional slot in the recorded graph."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, values: ArrayLike, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._op: Optional[str] = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item: tensor has {self.values.size} elements")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.values)

    def accumulate_grad(self, g: np.ndarray) -> None:
        # Copy on first touch: g may be shared with a sibling's contribution.
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, op={self._op}, grad={self.requires_grad})"


def constant(values: ArrayLike) -> Tensor:
    return Tensor(values, requires_grad=False)


def _check_finite(values: np.ndarray, op: str) -> None:
    # One reduction instead of an isfinite bool map: any NaN/Inf poisons the
    # sum. Pipeline magnitudes are bounded well below overflow territory.
    if STRICT_FINITE and not math.isfinite(float(np.sum(values))):
        if np.all(np.isfinite(values)):
            return
        raise NonFiniteError(f"{op}: non-finite values in result")


def _make(values: np.ndarray, op: str, parents: Iterable[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(values, op)
    parents = tuple(parents)
    out = Tensor(values, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural kernels
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: extents {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.values.shape))

    return _make(values, "add", (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: extents {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.values, b.values.shape))

    return _make(values, "mul", (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _make(a.values * c, "scale", (a,), backward)


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)

    return _make(a.values + c, "add_scalar", (a,), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        values = a.values.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: {a.shape} -> {shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.values.shape))

    return _make(values, "reshape", (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.transpose(inverse))

    return _make(a.values.transpose(axes), "transpose", (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    values = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return _make(values, "concat", tensors, backward)


def take(a: Tensor, axis: int, index: Sequence[int]) -> Tensor:
    """Gather the entries at `index` along `axis`; indices must not repeat."""
    index = np.asarray(index, dtype=np.intp)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.values)
            idx = [slice(None)] * a.values.ndim
            idx[axis] = index
            buf[tuple(idx)] = g
            a.accumulate_grad(buf)

    return _make(np.take(a.values, index, axis=axis), "take", (a,), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    values = a.values.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.full_like(a.values, 1.0) * g)
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(gg, a.values.shape).copy())

    return _make(values, "sum", (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.values.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.values.shape[i] for i in axes]))
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            values = np.log(a.values)
        except FloatingPointError:
            raise NonFiniteError("log: non-positive input")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g / a.values)

    return _make(values, "log", (a,), backward)


def relu(a: Tensor) -> Tensor:
    values = np.maximum(a.values, 0.0)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.values > 0.0))

    return _make(values, "relu", (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign to avoid overflow in exp.
    x = a.values
    values = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                      np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * values * (1.0 - values))

    return _make(values, "sigmoid", (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    values = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * values).sum(axis=axis, keepdims=True)
            a.accumulate_grad(values * (g - dot))

    return _make(values, "softmax", (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """numpy matmul semantics, including stacked (batched) operands."""
    try:
        values = np.matmul(a.values, b.values)
    except ValueError:
        raise ShapeError(f"matmul: extents {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.values, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.values.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.values, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.values.shape))

    return _make(values, "matmul", (a, b), backward)


# ---------------------------------------------------------------------------
# spatial kernels
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """2-D convolution on a (Cin, H, W) map with a (Cout, Cin, k, k) kernel.

    k is 1 or 3; k=3 zero-pads by one cell so spatial extents are preserved.
    """
    cin, h, wdt = x.values.shape
    cout, cin_w, kh, kw = w.values.shape
    if cin_w != cin or kh != kw or kh not in (1, 3):
        raise ShapeError(f"conv2d: kernel {w.shape} does not fit input {x.shape}")
    pad = kh // 2
    xp = np.pad(x.values, ((0, 0), (pad, pad), (pad, pad))) if pad else x.values
    values = np.zeros((cout, h, wdt))
    for di in range(kh):
        for dj in range(kw):
            patch = xp[:, di:di + h, dj:dj + wdt]
            values += np.tensordot(w.values[:, :, di, dj], patch, axes=([1], [0]))
    if b is not None:
        if b.values.shape != (cout,):
            raise ShapeError(f"conv2d: bias {b.shape}, expected ({cout},)")
        values = values + b.values[:, None, None]

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for di in range(kh):
                for dj in range(kw):
                    gxp[:, di:di + h, dj:dj + wdt] += np.tensordot(
                        w.values[:, :, di, dj], g, axes=([0], [0]))
            gx = gxp[:, pad:pad + h, pad:pad + wdt] if pad else gxp
            x.accumulate_grad(gx)
        if w.requires_grad:
            gw = np.zeros_like(w.values)
            for di in range(kh):
                for dj in range(kw):
                    patch = xp[:, di:di + h, dj:dj + wdt]
                    gw[:, :, di, dj] = np.tensordot(g, patch, axes=([1, 2], [1, 2]))
            w.accumulate_grad(gw)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=(1, 2)))

    return _make(values, "conv2d", parents, backward)


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int = 4) -> Tensor:
    """Normalize each channel group of the last axis independently per row."""
    c = x.values.shape[-1]
    if c % groups != 0:
        raise ShapeError(f"group_norm: {c} channels not divisible into {groups} groups")
    if gamma.values.shape != (c,) or beta.values.shape != (c,):
        raise ShapeError(f"group_norm: scale/shift extents must be ({c},)")
    gshape = x.values.shape[:-1] + (groups, c // groups)
    xg = x.values.reshape(gshape)
    mu = xg.mean(axis=-1, keepdims=True)
    var = xg.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + EPS_GROUP_NORM)
    y = ((xg - mu) * inv).reshape(x.values.shape)
    values = y * gamma.values + beta.values

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * y).reshape(-1, c).sum(axis=0))
        if beta.requires_grad:
            beta.accumulate_grad(g.reshape(-1, c).sum(axis=0))
        if x.requires_grad:
            gh = (g * gamma.values).reshape(gshape)
            yg = y.reshape(gshape)
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * yg).mean(axis=-1, keepdims=True)
            gx = (gh - m1 - yg * m2) * inv
            x.accumulate_grad(gx.reshape(x.values.shape))

    return _make(values, "group_norm", (x, gamma, beta), backward)


def avg_pool_grid(x: Tensor, grid: tuple, k: int) -> Tensor:
    """Non-overlapping k x k mean pooling of (..., h*w, C) rows on a grid."""
    h, w = grid
    if h % k or w % k:
        raise ShapeError(f"avg_pool_grid: kernel {k} does not tile grid {grid}")
    lead = x.values.shape[:-2]
    c = x.values.shape[-1]
    if x.values.shape[-2] != h * w:
        raise ShapeError(f"avg_pool_grid: {x.values.shape[-2]} rows != grid {grid}")
    xg = x.values.reshape(lead + (h // k, k, w // k, k, c))
    values = xg.mean(axis=(-4, -2)).reshape(lead + ((h // k) * (w // k), c))

    def backward(g):
        if not x.requires_grad:
            return
        gg = g.reshape(lead + (h // k, 1, w // k, 1, c)) / (k * k)
        gx = np.broadcast_to(gg, lead + (h // k, k, w // k, k, c))
        x.accumulate_grad(gx.reshape(x.values.shape).copy())

    return _make(values, "avg_pool_grid", (x,), backward)


def interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-interpolation matrix for 1-D bilinear resampling.

    Half-pixel source mapping clamped to the valid range: identical extents
    give the identity, and a single input cell broadcasts as a constant.
    """
    r = np.zeros((n_out, n_in))
    for o in range(n_out):
        src = (o + 0.5) * n_in / n_out - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        lo = int(math.floor(src))
        hi = min(lo + 1, n_in - 1)
        t = src - lo
        r[o, lo] += 1.0 - t
        r[o, hi] += t
    return r


def bilinear_resize(x: Tensor, out_hw: tuple) -> Tensor:
    """Bilinearly resample the trailing two axes of (..., H, W)."""
    h, w = x.values.shape[-2], x.values.shape[-1]
    oh, ow = out_hw
    if (oh, ow) == (h, w):
        return x
    ry = constant(interp_matrix(h, oh))
    rx = constant(interp_matrix(w, ow).T)
    return matmul(matmul(ry, x), rx)


def bilinear_resize_array(x: np.ndarray, out_hw: tuple) -> np.ndarray:
    """Plain-array twin of bilinear_resize for non-differentiable plumbing."""
    h, w = x.shape[-2], x.shape[-1]
    oh, ow = out_hw
    if (oh, ow) == (h, w):
        return np.array(x, dtype=np.float64)
    ry = interp_matrix(h, oh)
    rx = interp_matrix(w, ow)
    return np.matmul(np.matmul(ry, np.asarray(x, dtype=np.float64)), rx.T)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes of a (C, H, W) map -> (C,)."""
    if x.values.ndim != 3:
        raise ShapeError(f"global_avg_pool: expected (C, H, W), got {x.shape}")
    return mean(x, axis=(1, 2))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Run reverse accumulation from a scalar loss.

    Gradients land in the .grad buffers of every requires_grad leaf reachable
    from the loss. The recorded graph is single-use: closures are dropped on
    the way out and a second call raises GraphConsumedError.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward: loss has {loss.values.size} elements, expected 1")
    if not loss.requires_grad:
        raise AutodiffError("backward: loss has no recorded graph")
    if loss._op == "__consumed__":
        raise GraphConsumedError("backward: graph already consumed")

    order: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node.grad is None:
            node.zero_grad()
        node._backward(node.grad)
        node._backward = None
        node._parents = ()
        if node is not loss:
            node._op = None
            node.grad = None
    loss._op = "__consumed__"
