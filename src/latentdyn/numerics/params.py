"""Named parameter collections with stable iteration order."""

from __future__ import annotations

from .tensor import NumericsError, Tensor


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
