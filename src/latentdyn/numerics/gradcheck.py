"""Finite-difference verification of the reverse-mode gradients.

grad_check compares the analytic gradient of a scalar-valued closure
against central differences, coordinate by coordinate, in float64. The
closure must rebuild its graph from the ParamStore values on every call so
the finite-difference evaluations see perturbed parameters.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .params import ParamStore
from .tensor import NumericsError, Tensor


FD_STEP = 1e-5  # central-difference step h


def grad_check(closure: Callable[[ParamStore], Tensor], point: ParamStore) -> float:
    """Max over coordinates of the relative analytic-vs-central-difference
    error, |a - cd| / (|a| + |cd| + 1e-12). 64-bit only."""
    for name, t in point.items():
        if t.dtype != np.float64:
            raise NumericsError(f"grad_check requires float64 parameters ({name} is {t.dtype})")

    point.zero_grad()
    loss = closure(point)
    if loss.size != 1:
        raise NumericsError("grad_check closure must return a scalar")
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in point.items()
    }

    worst = 0.0
    for name, t in point.items():
        flat = t.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = closure(point).item()
            flat[i] = orig - FD_STEP
            f_minus = closure(point).item()
            flat[i] = orig
            cd = (f_plus - f_minus) / (2.0 * FD_STEP)
            a = a_flat[i]
            rel = abs(a - cd) / (abs(a) + abs(cd) + 1e-12)
            if rel > worst:
                worst = rel
    return worst
