"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamStore
from .tensor import NumericsError

_EPS = 1e-8  # added to sqrt(v_hat) in the update's denominator


@dataclass
class OptState:
    """Per-parameter moment accumulators plus the shared step counter."""

    lr: float
    beta1: float
    beta2: float
    weight_decay: float
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: ParamStore, lr: float, beta1: float, beta2: float,
                   weight_decay: float) -> "OptState":
        """Zero moments for every parameter, at step 0."""
        return cls(lr=lr, beta1=beta1, beta2=beta2, weight_decay=weight_decay, step=0,
                   m={name: np.zeros_like(t.data) for name, t in params.items()},
                   v={name: np.zeros_like(t.data) for name, t in params.items()})


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
        update = m_hat / (np.sqrt(v_hat) + _EPS)
        if opt.weight_decay != 0.0:
            update = update + opt.weight_decay * p.data
        p.data -= (opt.lr * update).astype(p.data.dtype)
