"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore
from .tensor import NumericsError


@dataclass
class OptState:
    """Per-parameter moment accumulators plus the shared step counter."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParamStore, lr: float = 1e-4, beta1: float = 0.9,
                   beta2: float = 0.999, weight_decay: float = 0.0) -> "OptState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, weight_decay=weight_decay)
        for name, t in params.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def adamw_step(params: ParamStore, opt: OptState) -> None:
    """One bias-corrected Adam update with decoupled weight decay.

    Reads the .grad buffers left by backward(); parameters with no gradient
    this step are treated as zero-gradient (moments still decay).
    """
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for parameter {name!r}")
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        update = m_hat / (np.sqrt(v_hat) + opt.eps)
        if opt.weight_decay != 0.0:
            update = update + opt.weight_decay * p.data
        p.data -= (opt.lr * update).astype(p.data.dtype)
