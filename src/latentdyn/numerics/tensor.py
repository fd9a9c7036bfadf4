"""Reverse-mode autodiff over numpy arrays.

Tensors are immutable once created; each op records its parents and a
closure producing the vector-Jacobian product, and ``backward`` walks the
tape in reverse topological order. Every op result is checked for NaN/Inf
(a NumericsError, never a silent propagation). Training runs in float32,
gradient checks in float64; binary ops refuse mixed dtypes so the split
stays explicit.

``gelu_max`` is the tokenizer's fused GELU + max-pool node. GELU falls on
(-inf, c] and rises on [c, inf), c ~ -0.752, so a group's max of GELU is
GELU at the group's min or max: only those two values go through GELU, and
the VJP writes one value per group.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_LN_EPS = 1e-5  # layer_norm's variance floor


class NumericsError(ValueError):
    """Raised on NaN/Inf values, shape violations, or a malformed graph."""


def _check_finite(data: np.ndarray, where: str) -> None:
    if not np.isfinite(data).all():
        raise NumericsError(f"non-finite values produced by {where}")


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor creation")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    # -- operators -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and not isinstance(shape[0], int):
            shape = tuple(shape[0])
        return reshape(self, shape)

    # -- autodiff ------------------------------------------------------
    def backward(self) -> None:
        """Reverse-mode pass from a scalar; accumulates into .grad of
        every requires_grad tensor reachable through the tape."""
        if self.size != 1:
            raise NumericsError(f"backward requires a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._parents == ():
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS topological order; rejects cycles (impossible via the
    public API, but a corrupted tape should fail loudly)."""
    order: list[Tensor] = []
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[id(node)] = 2
            order.append(node)
            continue
        s = state.get(id(node))
        if s == 2:
            continue
        if s == 1:
            raise NumericsError("cycle detected in computation graph")
        state[id(node)] = 1
        stack.append((node, True))
        for p in node._parents:
            if state.get(id(p)) is None:
                stack.append((p, False))
            elif state.get(id(p)) == 1:
                raise NumericsError("cycle detected in computation graph")
    return order


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _result(data: np.ndarray, parents: Sequence[Tensor], vjp, op_name: str) -> Tensor:
    _check_finite(data, op_name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that were broadcast to produce the given shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _binary_prep(a, b):
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if a.dtype != b.dtype:
            raise NumericsError(f"mixed dtypes {a.dtype} vs {b.dtype}")
        return a, b
    if isinstance(a, Tensor):
        return a, _as_tensor(b, a.dtype)
    return _as_tensor(a, b.dtype), b


# -- elementwise binary ops ---------------------------------------------

def add(a, b) -> Tensor:
    a, b = _binary_prep(a, b)
    data = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _result(data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _binary_prep(a, b)
    data = a.data - b.data

    def vjp(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _result(data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _binary_prep(a, b)
    data = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = _binary_prep(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data  # non-finite results are caught in _result

    def vjp(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _result(data, (a, b), vjp, "div")


def maximum(a, b) -> Tensor:
    """Elementwise max; at ties the gradient goes to the first argument."""
    a, b = _binary_prep(a, b)
    data = np.maximum(a.data, b.data)
    mask = a.data >= b.data

    def vjp(g):
        return (_unbroadcast(g * mask, a.shape), _unbroadcast(g * (~mask), b.shape))

    return _result(data, (a, b), vjp, "maximum")


# -- matmul and shape ops -------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _binary_prep(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise NumericsError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise NumericsError(f"matmul inner-dim mismatch: {a.shape} @ {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        # one big GEMM instead of many tiny batched ones
        k = a.shape[-1]
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[-1],))

        def vjp(g):
            g2 = g.reshape(-1, b.shape[-1])
            ga = (g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None
            gb = a2.T @ g2 if b.requires_grad else None
            return (ga, gb)

        return _result(data, (a, b), vjp, "matmul")
    data = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return (ga, gb)

    return _result(data, (a, b), vjp, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape) if not isinstance(shape, int) else (shape,)
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _result(data, (a,), vjp, "reshape")


def transpose_last(a: Tensor) -> Tensor:
    data = np.swapaxes(a.data, -1, -2)

    def vjp(g):
        return (np.swapaxes(g, -1, -2),)

    return _result(data, (a,), vjp, "transpose_last")


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """The tensors joined along their last axis."""
    dt = tensors[0].dtype
    for t in tensors:
        if t.dtype != dt:
            raise NumericsError("concat requires matching dtypes")
    data = np.concatenate([t.data for t in tensors], axis=-1)
    splits = np.cumsum([t.shape[-1] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=-1))

    return _result(data, tuple(tensors), vjp, "concat")


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    data = a.data[..., start:stop]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _result(data, (a,), vjp, "slice_last")


# -- reductions -----------------------------------------------------------

def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def vjp(g):
        gx = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gx, a.shape).astype(a.dtype, copy=False),)

    return _result(np.asarray(data), (a,), vjp, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else a.shape[axis]

    def vjp(g):
        gx = g if keepdims or axis is None else np.expand_dims(g, axis)
        return ((np.broadcast_to(gx, a.shape) / count).astype(a.dtype, copy=False),)

    return _result(np.asarray(data), (a,), vjp, "mean")


def tmax(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; ties route gradient to the lowest index."""
    data = a.data.max(axis=axis)
    idx = np.argmax(a.data, axis=axis)

    def vjp(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return (full,)

    return _result(data, (a,), vjp, "max")


# -- elementwise unary ops -------------------------------------------------

def tsqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def vjp(g):
        return (g * (0.5 / data),)

    return _result(data, (a,), vjp, "sqrt")


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def vjp(g):
        return (g * (2.0 * a.data),)

    return _result(data, (a,), vjp, "square")


# -- neural building blocks -------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x @ W + b. W is (in, out); x is (..., in) with at least one batch axis."""
    return add(matmul(x, weight), bias)


def _gelu_phi(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), in x's dtype."""
    phi = x * _INV_SQRT2
    _erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def _gelu_grad(g: np.ndarray, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """g * GELU'(x) = g * (Phi(x) + x * pdf(x)), with phi = Phi(x)."""
    d = x * -0.5
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= x
    d += phi
    d *= g
    return d


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x), fused (single tape node)."""
    phi = _gelu_phi(x.data)
    data = x.data * phi

    def vjp(g):
        return (_gelu_grad(g, x.data, phi),)

    return _result(data, (x,), vjp, "gelu")


def gelu_max(a: Tensor) -> Tensor:
    """tmax(gelu(a), axis=-2) as one tape node.

    GELU is unimodal with its minimum at c ~ -0.752, so over each group
    only the group's min and max go through GELU and the larger is kept
    (on equal values, the max). The gradient goes to the lowest index that
    holds the chosen input, as tmax routes ties.
    """
    hi = a.data.max(axis=-2)
    lo = a.data.min(axis=-2)
    phi_hi = _gelu_phi(hi)
    phi_lo = _gelu_phi(lo)
    gelu_hi = hi * phi_hi
    gelu_lo = lo * phi_lo
    take_lo = gelu_lo > gelu_hi
    data = np.where(take_lo, gelu_lo, gelu_hi)
    _check_finite(gelu_lo, "gelu_max")  # a -inf min never wins the where

    def vjp(g):
        pick = np.where(take_lo, lo, hi)
        idx = np.expand_dims(np.argmax(a.data == np.expand_dims(pick, -2), axis=-2), -2)
        full = np.zeros_like(a.data)
        grad = _gelu_grad(g, pick, np.where(take_lo, phi_lo, phi_hi))
        np.put_along_axis(full, idx, np.expand_dims(grad, -2), axis=-2)
        return (full,)

    return _result(data, (a,), vjp, "gelu_max")


def layer_norm(x: Tensor) -> Tensor:
    """Normalize over the last dim; constant rows map to zero via _LN_EPS."""
    if x.ndim < 1 or x.shape[-1] < 1:
        raise NumericsError("layer_norm needs a non-empty last dimension")
    m = tmean(x, axis=-1, keepdims=True)
    d = sub(x, m)
    v = tmean(square(d), axis=-1, keepdims=True)
    return div(d, tsqrt(add(v, _LN_EPS)))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    s = np.exp(shifted)
    s /= s.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _result(s, (x,), vjp, "softmax")


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Single-head scaled dot-product attention over (..., M, D) tokens."""
    if q.shape != k.shape or q.shape != v.shape:
        raise NumericsError(f"attention shape mismatch: q={q.shape} k={k.shape} v={v.shape}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = mul(matmul(q, transpose_last(k)), scale)
    return matmul(softmax(scores), v)
