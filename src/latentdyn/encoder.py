"""Point-cloud tokenizer, online encoder, and the EMA target encoder.

`group_features` picks M group centers by farthest-point sampling and
gathers the group_size nearest neighbors of each center; grouped points
enter the shared MLP as [relative xyz | center xyz] so pooled features keep
absolute position (without it, pooled differences could not encode motion).
A per-group max-pool and one single-head attention mixing layer produce the
(..., M, D) token Tensor; the online and target encoders are the same
function over different parameter stores.
"""

from __future__ import annotations

import math

import numpy as np

from .data.geometry import DataError, PointCloud, fps_indices
from .numerics import (
    NumericsError,
    ParamStore,
    RandomStream,
    Tensor,
    dense,
    gelu,
    gelu_max,
    layer_norm,
    self_attention,
    tmean,
)


def group_features(cloud: PointCloud, m_tokens: int, group_size: int) -> np.ndarray:
    """(M, group_size, 6) per-point features: [relative xyz | center xyz].

    Centers come from FPS starting at point 0; neighbor ties are broken by
    lowest point index so the grouping is deterministic.
    """
    pts = cloud.points
    if m_tokens > cloud.n:
        raise DataError(f"cannot place {m_tokens} token centers on {cloud.n} points")
    if group_size > cloud.n:
        raise DataError(f"group size {group_size} exceeds cloud size {cloud.n}")
    center_idx = fps_indices(pts, m_tokens, start_index=0)
    centers = pts[center_idx]
    d2 = ((pts[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)
    neighbor_idx = np.argsort(d2, axis=1, kind="stable")[:, :group_size]
    groups = pts[neighbor_idx] - centers[:, None, :]
    centers_rep = np.broadcast_to(centers[:, None, :], groups.shape)
    return np.concatenate([groups, centers_rep], axis=2)


def init_encoder_params(feat_dim: int, stream: RandomStream) -> ParamStore:
    params = ParamStore()
    params.add_dense("tok.fc1", 6, feat_dim, stream)
    params.add_dense("tok.fc2", feat_dim, feat_dim, stream)
    params.add_attention("mix", feat_dim, stream)
    return params


def encode_groups(params: ParamStore, feats: np.ndarray) -> Tensor:
    """Grouped features (..., M, g, 6) -> tokens (..., M, D)."""
    dtype = params["tok.fc1.w"].dtype
    x = Tensor(np.asarray(feats, dtype=dtype))
    h = gelu(dense(params, "tok.fc1", x))
    # GELU then max-pool over the group (order-invariant), as one node
    raw = gelu_max(dense(params, "tok.fc2", h))
    # pre-LN keeps mixing scale-invariant
    return raw + self_attention(params, "mix", layer_norm(raw))


def pool(tokens: Tensor) -> Tensor:
    """Mean over the token axis: (..., M, D) -> (..., D)."""
    return tmean(tokens, axis=-2)


def ema_update(target: ParamStore, online: ParamStore, momentum: float) -> None:
    """xi <- m*xi + (1-m)*phi, in place on the target store.

    m=0 copies and m=1 is a no-op, special-cased so the endpoint identities
    are exact down to signed zeros.
    """
    if not 0.0 <= momentum <= 1.0:
        raise NumericsError(f"EMA momentum must be in [0, 1], got {momentum}")
    if target.names() != online.names():
        raise NumericsError("EMA target/online parameter names differ")
    if momentum == 1.0:
        return
    for name, t in target.items():
        o = online[name]
        if t.shape != o.shape:
            raise NumericsError(f"EMA shape mismatch for {name}: {t.shape} vs {o.shape}")
        if momentum == 0.0:
            t.data[...] = o.data
        else:
            t.data *= momentum
            t.data += (1.0 - momentum) * o.data


def momentum_schedule(step: int, total_steps: int, m0: float) -> float:
    """Cosine ramp from m0 at step 0 to 1.0 at the final step."""
    if not 0 <= step <= total_steps:
        raise NumericsError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return 1.0
    return 1.0 - (1.0 - m0) * (math.cos(math.pi * step / total_steps) + 1.0) / 2.0
