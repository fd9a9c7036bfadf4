"""Latent-action inverse dynamics and the diffusion forward dynamics model.

Features and latent actions are plain Tensors: (..., M, D) tokens from
`encoder.encode_groups` and (..., action_dim) actions. `branch_predict`
decides which encoder's tokens feed which input and which direction the
action explains.

The IDM is a 3-layer GELU MLP over pooled feature differences (or raw
concatenated pairs under the leakage ablation). The FDM is a 4-block DiT:
conditioning from [pooled current feature | latent action | timestep
embedding], adaptive LayerNorm with zero-initialized scale/shift heads and
zero-initialized residual gates, and an identity-initialized final
projector — at init the whole denoiser is LN(noisy input). Denoising is a
single pass; there is no iterative sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data.geometry import PointCloud
from .encoder import group_features, init_encoder_params, pool
from .numerics import (
    NumericsError,
    ParamStore,
    RandomStream,
    Tensor,
    attention,
    concat,
    gelu,
    linear,
    matmul,
    mul,
    reshape,
    slice_last,
    sub,
    layer_norm,
)

DIRECTIONS = ("forward", "backward")
IDM_INPUT_MODES = ("diff", "concat")
SINUSOID_DIM = 32  # width of the timestep embedding fed to the cond.t MLP
SCHEDULE_OFFSET = 0.008  # cosine-schedule offset s (Nichol & Dhariwal 2021)
ABAR_FLOOR = 1e-4  # lower clamp on abar; NoiseSchedule needs every abar > 0


@dataclass
class NoiseSchedule:
    """Cumulative signal weights abar[0..T], abar[0] = 1, strictly decreasing."""

    steps: int
    abar: np.ndarray

    def __post_init__(self):
        self.abar = np.asarray(self.abar, dtype=np.float64)
        if self.abar.shape != (self.steps + 1,):
            raise NumericsError(f"schedule needs {self.steps + 1} entries, got {self.abar.shape}")
        if self.abar[0] != 1.0:
            raise NumericsError("abar[0] must be exactly 1")
        if np.any(self.abar <= 0.0) or np.any(self.abar > 1.0):
            raise NumericsError("abar values must lie in (0, 1]")
        if np.any(np.diff(self.abar) >= 0.0):
            raise NumericsError("abar must be strictly decreasing after index 0")


def make_noise_schedule(steps: int) -> NoiseSchedule:
    """Cosine abar schedule, clamped below at ABAR_FLOOR, abar[0] pinned to 1."""
    if steps < 1:
        raise NumericsError(f"schedule needs at least 1 step, got {steps}")
    tau = np.arange(steps + 1, dtype=np.float64)
    f = np.cos((tau / steps + SCHEDULE_OFFSET) / (1.0 + SCHEDULE_OFFSET) * (math.pi / 2.0)) ** 2
    abar = np.clip(f / f[0], ABAR_FLOOR, 1.0)
    abar[0] = 1.0
    return NoiseSchedule(steps=steps, abar=abar)


def noise_feature(tokens: Tensor, tau, eps: np.ndarray, sched: NoiseSchedule) -> Tensor:
    """z^(tau) = sqrt(abar)*z + sqrt(1-abar)*eps.

    tau may be a scalar step or one step per leading batch element. The
    abar=1 case returns the input tokens exactly (no float round-trip).
    """
    if np.isscalar(tau) or np.ndim(tau) == 0:
        tau = int(tau)
        if not 0 <= tau <= sched.steps:
            raise NumericsError(f"tau {tau} outside schedule range [0, {sched.steps}]")
        if sched.abar[tau] == 1.0:
            return tokens
        a = sched.abar[tau]
        coeff_signal, coeff_noise = math.sqrt(a), math.sqrt(1.0 - a)
    else:
        tau = np.asarray(tau, dtype=np.int64)
        if np.any(tau < 0) or np.any(tau > sched.steps):
            raise NumericsError("tau outside schedule range")
        a = sched.abar[tau].reshape(tau.shape + (1, 1))
        coeff_signal, coeff_noise = np.sqrt(a), np.sqrt(1.0 - a)
    if np.shape(eps) != tokens.shape:
        raise NumericsError(f"noise shape {np.shape(eps)} != tokens shape {tokens.shape}")
    noise_term = np.asarray(coeff_noise * eps, dtype=str(tokens.dtype))
    return mul(tokens, coeff_signal) + noise_term


# -- inverse dynamics ------------------------------------------------------

def init_idm_params(input_dim: int, hidden: int, action_dim: int,
                    stream: RandomStream, dtype=np.float32) -> ParamStore:
    params = ParamStore()
    for name, fan_in, fan_out in (("fc1", input_dim, hidden),
                                  ("fc2", hidden, hidden),
                                  ("fc3", hidden, action_dim)):
        w = stream.normal((fan_in, fan_out)) / math.sqrt(fan_in)
        params.add(f"{name}.w", Tensor(w.astype(dtype), requires_grad=True))
        params.add(f"{name}.b", Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True))
    return params


def idm_forward(params: ParamStore, x: Tensor) -> Tensor:
    h = gelu(linear(x, params["fc1.w"], params["fc1.b"]))
    h = gelu(linear(h, params["fc2.w"], params["fc2.b"]))
    return linear(h, params["fc3.w"], params["fc3.b"])


def infer_latent_action(params: ParamStore, z_a: Tensor, z_b: Tensor,
                        direction: str, input_mode: str = "diff") -> Tensor:
    """Latent action for the temporally ordered pair (z_a, z_b) = (t, t+k).

    forward explains t -> t+k from pool(z_b) - pool(z_a); backward explains
    t+k -> t from the negated difference. Under input_mode="concat" the MLP
    sees the raw pooled pair instead (the feature-leakage ablation), with
    the pair order swapped for the backward direction.
    """
    if direction not in DIRECTIONS:
        raise NumericsError(f"unknown direction {direction!r}")
    if input_mode not in IDM_INPUT_MODES:
        raise NumericsError(f"unknown idm input mode {input_mode!r}")
    if z_a.shape != z_b.shape:
        raise NumericsError(f"feature shape mismatch: {z_a.shape} vs {z_b.shape}")
    pa, pb = pool(z_a), pool(z_b)
    if input_mode == "diff":
        inp = sub(pb, pa) if direction == "forward" else sub(pa, pb)
    else:
        inp = concat([pa, pb], axis=-1) if direction == "forward" else concat([pb, pa], axis=-1)
    return idm_forward(params, inp)


# -- conditioning and DiT blocks -------------------------------------------

def sinusoidal_embedding(tau) -> np.ndarray:
    """Interleaved [sin(t*f_i), cos(t*f_i)] with f_i = 10000^(-2i/SINUSOID_DIM)."""
    tau = np.asarray(tau, dtype=np.float64)
    half = SINUSOID_DIM // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half) / SINUSOID_DIM)
    angles = tau[..., None] * freqs
    emb = np.empty(tau.shape + (SINUSOID_DIM,))
    emb[..., 0::2] = np.sin(angles)
    emb[..., 1::2] = np.cos(angles)
    return emb


def _cond_mlp(params: ParamStore, prefix: str, x: Tensor) -> Tensor:
    h = gelu(linear(x, params[f"{prefix}.fc1.w"], params[f"{prefix}.fc1.b"]))
    return linear(h, params[f"{prefix}.fc2.w"], params[f"{prefix}.fc2.b"])


def condition_vector(params: ParamStore, z_pool: Tensor, action: Tensor, tau) -> Tensor:
    """(..., 3 * cond_width) conditioning [z part | action part | time part]."""
    temb = sinusoidal_embedding(tau)
    if np.ndim(tau) == 0 and z_pool.ndim > 1:
        temb = np.broadcast_to(temb, z_pool.shape[:-1] + (SINUSOID_DIM,))
    z_part = _cond_mlp(params, "cond.z", z_pool)
    a_part = _cond_mlp(params, "cond.a", action)
    t_part = _cond_mlp(params, "cond.t", Tensor(temb.astype(str(z_pool.dtype))))
    return concat([z_part, a_part, t_part], axis=-1)


def adaln(x: Tensor, c: Tensor, head_w: Tensor, head_b: Tensor) -> Tensor:
    """LN(x) * (1 + gamma(c)) + beta(c), gamma/beta shared across tokens."""
    d = x.shape[-1]
    gb = linear(c, head_w, head_b)
    if gb.shape[-1] != 2 * d:
        raise NumericsError(f"AdaLN head emits {gb.shape[-1]} values, tokens need {2 * d}")
    gamma = reshape(slice_last(gb, 0, d), gb.shape[:-1] + (1, d))
    beta = reshape(slice_last(gb, d, 2 * d), gb.shape[:-1] + (1, d))
    return layer_norm(x) * (gamma + 1.0) + beta


def init_fdm_params(feat_dim: int, action_dim: int, cond_width: int, ffn_mult: int,
                    n_blocks: int, stream: RandomStream, dtype=np.float32) -> ParamStore:
    params = ParamStore()
    cond_dim = 3 * cond_width

    def dense(name, fan_in, fan_out, zero=False):
        if zero:
            w = np.zeros((fan_in, fan_out))
        else:
            w = stream.normal((fan_in, fan_out)) / math.sqrt(fan_in)
        params.add(f"{name}.w", Tensor(w.astype(dtype), requires_grad=True))
        params.add(f"{name}.b", Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True))

    for prefix, fan_in in (("cond.z", feat_dim), ("cond.a", action_dim),
                           ("cond.t", SINUSOID_DIM)):
        dense(f"{prefix}.fc1", fan_in, cond_width)
        dense(f"{prefix}.fc2", cond_width, cond_width)
    for i in range(n_blocks):
        dense(f"blk{i}.adaln1", cond_dim, 2 * feat_dim, zero=True)
        dense(f"blk{i}.gate1", cond_dim, feat_dim, zero=True)
        for name in ("wq", "wk", "wv", "wo"):
            w = stream.normal((feat_dim, feat_dim)) / math.sqrt(feat_dim)
            params.add(f"blk{i}.attn.{name}", Tensor(w.astype(dtype), requires_grad=True))
        dense(f"blk{i}.adaln2", cond_dim, 2 * feat_dim, zero=True)
        dense(f"blk{i}.gate2", cond_dim, feat_dim, zero=True)
        dense(f"blk{i}.ffn.fc1", feat_dim, ffn_mult * feat_dim)
        dense(f"blk{i}.ffn.fc2", ffn_mult * feat_dim, feat_dim)
    dense("final.adaln", cond_dim, 2 * feat_dim, zero=True)
    params.add("final.proj.w", Tensor(np.eye(feat_dim, dtype=dtype), requires_grad=True))
    params.add("final.proj.b", Tensor(np.zeros(feat_dim, dtype=dtype), requires_grad=True))
    return params


def _gate(params: ParamStore, name: str, c: Tensor, d: int) -> Tensor:
    g = linear(c, params[f"{name}.w"], params[f"{name}.b"])
    return reshape(g, g.shape[:-1] + (1, d))


def fdm_block(params: ParamStore, index: int, x: Tensor, c: Tensor) -> Tensor:
    d = x.shape[-1]
    pre = f"blk{index}"
    h = adaln(x, c, params[f"{pre}.adaln1.w"], params[f"{pre}.adaln1.b"])
    q = matmul(h, params[f"{pre}.attn.wq"])
    k = matmul(h, params[f"{pre}.attn.wk"])
    v = matmul(h, params[f"{pre}.attn.wv"])
    att = matmul(attention(q, k, v), params[f"{pre}.attn.wo"])
    x = x + _gate(params, f"{pre}.gate1", c, d) * att
    h2 = adaln(x, c, params[f"{pre}.adaln2.w"], params[f"{pre}.adaln2.b"])
    ffn = linear(gelu(linear(h2, params[f"{pre}.ffn.fc1.w"], params[f"{pre}.ffn.fc1.b"])),
                 params[f"{pre}.ffn.fc2.w"], params[f"{pre}.ffn.fc2.b"])
    return x + _gate(params, f"{pre}.gate2", c, d) * ffn


def fdm_denoise(params: ParamStore, z_noisy: Tensor, z_cond: Tensor, action: Tensor,
                tau, sched: NoiseSchedule, n_blocks: int = 4) -> Tensor:
    """Single-pass denoise of the noisy tokens under (z_cond, action, tau)."""
    taus = np.asarray(tau)
    if np.any(taus < 0) or np.any(taus > sched.steps):
        raise NumericsError(f"tau outside schedule range [0, {sched.steps}]")
    cond = condition_vector(params, pool(z_cond), action, tau)
    x = z_noisy
    for i in range(n_blocks):
        x = fdm_block(params, i, x, cond)
    y = adaln(x, cond, params["final.adaln.w"], params["final.adaln.b"])
    return linear(y, params["final.proj.w"], params["final.proj.b"])


# -- model bundle and the two prediction branches ---------------------------

@dataclass
class ModelConfig:
    feat_dim: int = 64
    tokens: int = 8
    group_size: int = 32
    action_dim: int = 16
    idm_hidden: int = 64
    idm_input: str = "diff"
    cond_width: int = 64
    ffn_mult: int = 4
    n_blocks: int = 4
    diffusion_steps: int = 100

    def validate(self) -> None:
        if self.idm_input not in IDM_INPUT_MODES:
            raise NumericsError(f"idm_input must be one of {IDM_INPUT_MODES}")
        for name in ("feat_dim", "tokens", "group_size", "action_dim", "idm_hidden",
                     "cond_width", "ffn_mult", "n_blocks", "diffusion_steps"):
            if getattr(self, name) < 1:
                raise NumericsError(f"{name} must be >= 1")

    @property
    def idm_input_dim(self) -> int:
        return self.feat_dim * (2 if self.idm_input == "concat" else 1)


@dataclass
class Models:
    """The online and target (EMA teacher) encoders, the IDM and the FDM.

    `tokenize` is the one way frames become encoder input: it depends only
    on the clouds, so callers tokenize each frame once and pass the grouped
    (B, M, g, 6) array to `encode_groups` with the online store, the
    target store or both.
    """

    config: ModelConfig
    online: ParamStore
    target: ParamStore
    idm: ParamStore
    fdm: ParamStore
    sched: NoiseSchedule = field(init=False)

    def __post_init__(self):
        self.sched = make_noise_schedule(self.config.diffusion_steps)

    def tokenize(self, clouds: list[PointCloud]) -> np.ndarray:
        """Clouds -> (B, M, g, 6) grouped features at the config's token shape."""
        return np.stack([group_features(c, self.config.tokens, self.config.group_size)
                         for c in clouds])

    def trainables(self) -> ParamStore:
        """One store of shared references so backward/optimizer see every
        trainable parameter in a fixed global order (never the target)."""
        combined = ParamStore()
        for prefix, store in (("enc", self.online), ("idm", self.idm), ("fdm", self.fdm)):
            for name, tensor in store.items():
                combined.add(f"{prefix}.{name}", tensor)
        return combined


def init_models(cfg: ModelConfig, seed: int, dtype=np.float32) -> Models:
    cfg.validate()
    stream = RandomStream.derive(seed, "init")
    online = init_encoder_params(cfg.feat_dim, stream, dtype)
    target = online.copy(requires_grad=False)  # exact copy at step 0
    idm = init_idm_params(cfg.idm_input_dim, cfg.idm_hidden, cfg.action_dim, stream, dtype)
    fdm = init_fdm_params(cfg.feat_dim, cfg.action_dim, cfg.cond_width, cfg.ffn_mult,
                          cfg.n_blocks, stream, dtype)
    return Models(config=cfg, online=online, target=target, idm=idm, fdm=fdm)


def branch_predict(models: Models, z_t: Tensor, z_tk: Tensor, z_teacher: Tensor, tau,
                   eps: np.ndarray, direction: str) -> Tensor:
    """One prediction branch over already-encoded features.

    forward: condition on z_t, denoise toward the teacher's t+k feature.
    backward: condition on z_tk, denoise toward the teacher's t feature.
    (z_t, z_tk) are always passed in temporal order.
    """
    cfg = models.config
    action = infer_latent_action(models.idm, z_t, z_tk, direction, cfg.idm_input)
    z_cond = z_t if direction == "forward" else z_tk
    z_noisy = noise_feature(z_teacher, tau, eps, models.sched)
    return fdm_denoise(models.fdm, z_noisy, z_cond, action, tau, models.sched,
                       n_blocks=cfg.n_blocks)
