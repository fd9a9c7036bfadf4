"""Named parameter collections, and the dense and attention layers over them.

A dense layer `name` is the pair `{name}.w` (in, out) and `{name}.b`; a
self-attention layer `prefix` is the four bias-free projections
`{prefix}.wq/.wk/.wv/.wo`. Stores create them with `add_dense` and
`add_attention`; `dense` and `self_attention` apply them.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RandomStream
from .tensor import NumericsError, Tensor, attention, linear, matmul


class ParamStore:
    """name -> Tensor mapping; insertion order is the iteration order, so
    optimizer updates and checkpoints are bit-reproducible across runs."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise NumericsError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def _add_weight(self, name: str, fan_in: int, fan_out: int,
                    stream: RandomStream | None = None) -> None:
        """A trainable float32 (fan_in, fan_out) weight: N(0, 1/fan_in)
        draws from stream, or zeros without one."""
        if stream is None:
            w = np.zeros((fan_in, fan_out))
        else:
            w = stream.normal((fan_in, fan_out)) / math.sqrt(fan_in)
        self.add(name, Tensor(w.astype(np.float32), requires_grad=True))

    def add_dense(self, name: str, fan_in: int, fan_out: int,
                  stream: RandomStream | None = None) -> None:
        """{name}.w as `_add_weight` makes it, and a zero {name}.b."""
        self._add_weight(f"{name}.w", fan_in, fan_out, stream)
        self.add(f"{name}.b", Tensor(np.zeros(fan_out, dtype=np.float32), requires_grad=True))

    def add_attention(self, prefix: str, dim: int, stream: RandomStream) -> None:
        for proj in ("wq", "wk", "wv", "wo"):
            self._add_weight(f"{prefix}.{proj}", dim, dim, stream)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy(self, requires_grad: bool | None = None) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            rg = t.requires_grad if requires_grad is None else requires_grad
            out.add(name, Tensor(t.data.copy(), requires_grad=rg))
        return out

    def astype(self, dtype) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            out.add(name, Tensor(t.data.astype(dtype), requires_grad=t.requires_grad))
        return out


def dense(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """x @ {name}.w + {name}.b."""
    return linear(x, params[f"{name}.w"], params[f"{name}.b"])


def self_attention(params: ParamStore, prefix: str, x: Tensor) -> Tensor:
    """Single-head self-attention over (..., M, D) tokens, projected out by {prefix}.wo."""
    q = matmul(x, params[f"{prefix}.wq"])
    k = matmul(x, params[f"{prefix}.wk"])
    v = matmul(x, params[f"{prefix}.wv"])
    return matmul(attention(q, k, v), params[f"{prefix}.wo"])
