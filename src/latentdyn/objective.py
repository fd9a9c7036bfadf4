"""Variance-regularized representation matching and the bidirectional loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Models, branch_predict
from .encoder import encode_groups, pool
from .numerics import (
    NumericsError,
    Tensor,
    matmul,
    maximum,
    mul,
    square,
    sub,
    tmean,
    tsqrt,
    tsum,
    transpose_last,
)

_VAR_EPS = 1e-4


@dataclass
class VicregWeights:
    """Loss weights and the variance hinge; `TrainConfig.vicreg_weights`
    makes them from the config's lambda_* fields, which TrainConfig checks."""

    invariance: float
    variance: float
    covariance: float
    var_threshold: float


@dataclass
class LossBreakdown:
    inv: float
    var: float
    cov: float
    total_future: float
    total_history: float
    total: float


def combine_vicreg(w: VicregWeights, inv, var, cov):
    return w.invariance * inv + w.variance * var + w.covariance * cov


def _variance_term(x: Tensor, threshold: float) -> Tensor:
    """Hinge on per-dimension std over the batch: mean(max(0, g - std_d))."""
    b = x.shape[0]
    mu = tmean(x, axis=0, keepdims=True)
    centered = sub(x, mu)
    var = mul(tsum(square(centered), axis=0), 1.0 / (b - 1))
    std = tsqrt(var + _VAR_EPS)
    return tmean(maximum(threshold - std, 0.0))


def _covariance_term(x: Tensor) -> Tensor:
    """Sum of squared off-diagonal covariance entries over the feature dim."""
    b, d = x.shape
    centered = sub(x, tmean(x, axis=0, keepdims=True))
    cov = mul(matmul(transpose_last(centered), centered), 1.0 / (b - 1))
    off_mask = (1.0 - np.eye(d)).astype(str(x.dtype))
    return mul(tsum(square(mul(cov, off_mask))), 1.0 / d)


def vicreg(pred: Tensor, target: Tensor, w: VicregWeights) -> dict[str, Tensor]:
    """Invariance/variance/covariance terms on (B, D) pooled features.

    Variance and covariance apply to prediction and target separately and
    are averaged; the target side is stop-gradient by construction, so it
    contributes loss value but no training signal.
    """
    if pred.shape != target.shape:
        raise NumericsError(f"vicreg shape mismatch: {pred.shape} vs {target.shape}")
    if pred.ndim != 2 or pred.shape[0] < 2:
        raise NumericsError("vicreg needs a (B, D) batch with B >= 2")
    inv = mse_only_loss(pred, target)
    var = mul(_variance_term(pred, w.var_threshold) + _variance_term(target, w.var_threshold), 0.5)
    cov = mul(_covariance_term(pred) + _covariance_term(target), 0.5)
    total = combine_vicreg(w, inv, var, cov)
    return {"inv": inv, "var": var, "cov": cov, "total": total}


def mse_only_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Plain mean squared error (the collapse-ablation objective)."""
    if pred.shape != target.shape:
        raise NumericsError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    return tmean(square(sub(pred, target)))


def _branch_terms(pred: Tensor, teacher: Tensor, w: VicregWeights,
                  objective: str, token_level_inv: bool) -> dict[str, Tensor]:
    pred_pooled = pool(pred)
    teach_pooled = pool(teacher)
    if objective == "mse":
        inv = mse_only_loss(pred_pooled, teach_pooled)
        zero = Tensor(np.zeros((), dtype=str(inv.dtype)))
        return {"inv": inv, "var": zero, "cov": zero, "total": inv}
    terms = vicreg(pred_pooled, teach_pooled, w)
    if token_level_inv:
        inv = mse_only_loss(pred, teacher)
        terms["total"] = terms["total"] + w.invariance * (inv - terms["inv"])
        terms["inv"] = inv
    return terms


def bidirectional_loss(models: Models, feats_t: np.ndarray, feats_tk: np.ndarray, taus,
                       eps_future, eps_history, w: VicregWeights, objective: str,
                       no_history: bool, token_level_inv: bool) -> tuple[Tensor, LossBreakdown]:
    """Predict-future plus predict-history loss over one batch of pairs.

    feats_t and feats_tk are the (B, M, g, 6) grouped features of the
    pairs' frames, from `Models.tokenize`. Both branches reuse the same
    encodings and the same per-element taus; each branch gets its own
    noise draw. Weighting is 1:1; `no_history` drops the history branch
    (the inverse-consistency ablation).
    """
    if objective not in ("vicreg", "mse"):
        raise NumericsError(f"unknown objective {objective!r}")
    if len(feats_t) < 2:
        raise NumericsError("bidirectional loss needs batch size >= 2")
    z_t = encode_groups(models.online, feats_t)
    z_tk = encode_groups(models.online, feats_tk)
    teacher_tk = encode_groups(models.target, feats_tk)

    pred_f = branch_predict(models, z_t, z_tk, teacher_tk, taus, eps_future, "forward")
    terms_f = _branch_terms(pred_f, teacher_tk, w, objective, token_level_inv)

    if no_history:
        zero = Tensor(np.zeros((), dtype=str(terms_f["total"].dtype)))
        terms_h = {"inv": zero, "var": zero, "cov": zero, "total": zero}
    else:
        teacher_t = encode_groups(models.target, feats_t)
        pred_h = branch_predict(models, z_t, z_tk, teacher_t, taus, eps_history, "backward")
        terms_h = _branch_terms(pred_h, teacher_t, w, objective, token_level_inv)

    sums = {key: terms_f[key].item() + terms_h[key].item()
            for key in ("inv", "var", "cov", "total")}
    breakdown = LossBreakdown(**sums, total_future=terms_f["total"].item(),
                              total_history=terms_h["total"].item())
    return terms_f["total"] + terms_h["total"], breakdown
