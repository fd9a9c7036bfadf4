"""Latent-action inverse dynamics and the diffusion forward dynamics model.

Features and latent actions are plain Tensors: (..., M, D) tokens from
`encoder.encode_groups` and (..., action_dim) actions. `branch_predict`
decides which encoder's tokens feed which input and which direction the
action explains.

The IDM is a 3-layer GELU MLP over pooled feature differences (or raw
concatenated pooled pairs under the leakage ablation). The FDM is a DiT
with `n_blocks` blocks (the denoiser counts them in its parameter store):
conditioning from [pooled current feature | latent action | timestep
embedding], adaptive LayerNorm with zero-initialized scale/shift heads and
zero-initialized residual gates, and an identity-initialized final
projector — at init the whole denoiser is LN(noisy input). Denoising is a
single pass; there is no iterative sampling. A scalar timestep is a batch
of shape (): it goes with unbatched features and actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data.geometry import DataError, PointCloud, check_at_least
from .encoder import group_features, init_encoder_params, pool
from .numerics import (
    NumericsError,
    ParamStore,
    RandomStream,
    Tensor,
    concat,
    dense,
    gelu,
    layer_norm,
    mul,
    reshape,
    self_attention,
    slice_last,
    sub,
)

DIRECTIONS = ("forward", "backward")
IDM_INPUT_MODES = ("diff", "concat")
SINUSOID_DIM = 32  # width of the timestep embedding fed to the cond.t MLP
SCHEDULE_OFFSET = 0.008  # cosine-schedule offset s (Nichol & Dhariwal 2021)
ABAR_FLOOR = 1e-4  # lower clamp on abar; NoiseSchedule needs every abar > 0


@dataclass
class NoiseSchedule:
    """Cumulative signal weights abar[0..T], abar[0] = 1, strictly decreasing
    until they reach ABAR_FLOOR, where equal neighbours may follow."""

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
        step = np.diff(self.abar)
        if np.any(step > 0.0) or np.any((step == 0.0) & (self.abar[1:] != ABAR_FLOOR)):
            raise NumericsError("abar must be strictly decreasing above ABAR_FLOOR")


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
    """z^(tau) = sqrt(abar)*z + sqrt(1-abar)*eps, one tau per leading batch
    element of the (..., M, D) tokens. At abar=1 the values equal the
    input tokens exactly: z*1 + 0*eps."""
    tau = np.asarray(tau, dtype=np.int64)
    if np.any(tau < 0) or np.any(tau > sched.steps):
        raise NumericsError(f"tau outside schedule range [0, {sched.steps}]")
    if np.shape(eps) != tokens.shape:
        raise NumericsError(f"noise shape {np.shape(eps)} != tokens shape {tokens.shape}")
    a = sched.abar[tau].reshape(tau.shape + (1, 1))
    noise_term = np.asarray(np.sqrt(1.0 - a) * eps, dtype=str(tokens.dtype))
    return mul(tokens, np.sqrt(a)) + noise_term


# -- inverse dynamics ------------------------------------------------------

def init_idm_params(input_dim: int, hidden: int, action_dim: int,
                    stream: RandomStream) -> ParamStore:
    params = ParamStore()
    params.add_dense("fc1", input_dim, hidden, stream)
    params.add_dense("fc2", hidden, hidden, stream)
    params.add_dense("fc3", hidden, action_dim, stream)
    return params


def idm_forward(params: ParamStore, x: Tensor) -> Tensor:
    h = gelu(dense(params, "fc1", x))
    h = gelu(dense(params, "fc2", h))
    return dense(params, "fc3", h)


def infer_latent_action(params: ParamStore, pa: Tensor, pb: Tensor,
                        direction: str, input_mode: str) -> Tensor:
    """Latent action for the temporally ordered pair of pooled (..., D)
    features (pa, pb) = (t, t+k).

    forward explains t -> t+k from pb - pa; backward explains t+k -> t from
    the negated difference. Under input_mode="concat" the MLP sees the raw
    pooled pair instead (the feature-leakage ablation), with the pair order
    swapped for the backward direction.
    """
    if direction not in DIRECTIONS:
        raise NumericsError(f"unknown direction {direction!r}")
    if input_mode not in IDM_INPUT_MODES:
        raise NumericsError(f"unknown idm input mode {input_mode!r}")
    if pa.shape != pb.shape:
        raise NumericsError(f"feature shape mismatch: {pa.shape} vs {pb.shape}")
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
    return dense(params, f"{prefix}.fc2", gelu(dense(params, f"{prefix}.fc1", x)))


def condition_vector(params: ParamStore, z_pool: Tensor, action: Tensor, tau) -> Tensor:
    """(..., 3 * cond_width) conditioning [z part | action part | time part],
    one tau per batch element of the (..., D) pooled features."""
    temb = sinusoidal_embedding(tau)
    z_part = _cond_mlp(params, "cond.z", z_pool)
    a_part = _cond_mlp(params, "cond.a", action)
    t_part = _cond_mlp(params, "cond.t", Tensor(temb.astype(str(z_pool.dtype))))
    return concat([z_part, a_part, t_part], axis=-1)


def adaln(params: ParamStore, head: str, x: Tensor, c: Tensor) -> Tensor:
    """LN(x) * (1 + gamma(c)) + beta(c), with [gamma | beta] from the dense
    head `head`, shared across tokens."""
    d = x.shape[-1]
    gb = dense(params, head, c)
    if gb.shape[-1] != 2 * d:
        raise NumericsError(f"AdaLN head emits {gb.shape[-1]} values, tokens need {2 * d}")
    gamma = reshape(slice_last(gb, 0, d), gb.shape[:-1] + (1, d))
    beta = reshape(slice_last(gb, d, 2 * d), gb.shape[:-1] + (1, d))
    return layer_norm(x) * (gamma + 1.0) + beta


def init_fdm_params(feat_dim: int, action_dim: int, cond_width: int, ffn_mult: int,
                    n_blocks: int, stream: RandomStream) -> ParamStore:
    """Conditioning MLPs, then n_blocks DiT blocks, then the final head.
    Without a stream, add_dense makes the AdaLN heads and gates zero."""
    params = ParamStore()
    cond_dim = 3 * cond_width
    for prefix, fan_in in (("cond.z", feat_dim), ("cond.a", action_dim),
                           ("cond.t", SINUSOID_DIM)):
        params.add_dense(f"{prefix}.fc1", fan_in, cond_width, stream)
        params.add_dense(f"{prefix}.fc2", cond_width, cond_width, stream)
    for i in range(n_blocks):
        params.add_dense(f"blk{i}.adaln1", cond_dim, 2 * feat_dim)
        params.add_dense(f"blk{i}.gate1", cond_dim, feat_dim)
        params.add_attention(f"blk{i}.attn", feat_dim, stream)
        params.add_dense(f"blk{i}.adaln2", cond_dim, 2 * feat_dim)
        params.add_dense(f"blk{i}.gate2", cond_dim, feat_dim)
        params.add_dense(f"blk{i}.ffn.fc1", feat_dim, ffn_mult * feat_dim, stream)
        params.add_dense(f"blk{i}.ffn.fc2", ffn_mult * feat_dim, feat_dim, stream)
    params.add_dense("final.adaln", cond_dim, 2 * feat_dim)
    params.add_dense("final.proj", feat_dim, feat_dim)
    np.fill_diagonal(params["final.proj.w"].data, 1.0)  # identity projector
    return params


def _gate(params: ParamStore, name: str, c: Tensor, d: int) -> Tensor:
    g = dense(params, name, c)
    return reshape(g, g.shape[:-1] + (1, d))


def fdm_block(params: ParamStore, index: int, x: Tensor, c: Tensor) -> Tensor:
    d = x.shape[-1]
    pre = f"blk{index}"
    att = self_attention(params, f"{pre}.attn", adaln(params, f"{pre}.adaln1", x, c))
    x = x + _gate(params, f"{pre}.gate1", c, d) * att
    h2 = adaln(params, f"{pre}.adaln2", x, c)
    ffn = dense(params, f"{pre}.ffn.fc2", gelu(dense(params, f"{pre}.ffn.fc1", h2)))
    return x + _gate(params, f"{pre}.gate2", c, d) * ffn


def fdm_denoise(params: ParamStore, z_noisy: Tensor, z_cond: Tensor, action: Tensor,
                tau, sched: NoiseSchedule) -> Tensor:
    """Single-pass denoise of the noisy tokens under (z_cond, action, tau),
    through every block the store holds."""
    taus = np.asarray(tau)
    if np.any(taus < 0) or np.any(taus > sched.steps):
        raise NumericsError(f"tau outside schedule range [0, {sched.steps}]")
    cond = condition_vector(params, pool(z_cond), action, tau)
    x = z_noisy
    for i in range(sum(name.endswith(".gate1.w") for name in params.names())):
        x = fdm_block(params, i, x, cond)
    return dense(params, "final.proj", adaln(params, "final.adaln", x, cond))


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

    def __post_init__(self):
        if self.idm_input not in IDM_INPUT_MODES:
            raise DataError(f"idm_input must be one of {IDM_INPUT_MODES}")
        check_at_least(self, feat_dim=1, tokens=1, group_size=1, action_dim=1, idm_hidden=1,
                       cond_width=1, ffn_mult=1, n_blocks=1, diffusion_steps=1)

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


def init_models(cfg: ModelConfig, seed: int) -> Models:
    stream = RandomStream.derive(seed, "init")
    online = init_encoder_params(cfg.feat_dim, stream)
    target = online.copy(requires_grad=False)  # exact copy at step 0
    idm = init_idm_params(cfg.idm_input_dim, cfg.idm_hidden, cfg.action_dim, stream)
    fdm = init_fdm_params(cfg.feat_dim, cfg.action_dim, cfg.cond_width, cfg.ffn_mult,
                          cfg.n_blocks, stream)
    return Models(config=cfg, online=online, target=target, idm=idm, fdm=fdm)


def branch_predict(models: Models, z_t: Tensor, z_tk: Tensor, z_teacher: Tensor, tau,
                   eps: np.ndarray, direction: str) -> Tensor:
    """One prediction branch over already-encoded features.

    forward: condition on z_t, denoise toward the teacher's t+k feature.
    backward: condition on z_tk, denoise toward the teacher's t feature.
    (z_t, z_tk) are always passed in temporal order.
    """
    action = infer_latent_action(models.idm, pool(z_t), pool(z_tk), direction,
                                 models.config.idm_input)
    z_cond = z_t if direction == "forward" else z_tk
    z_noisy = noise_feature(z_teacher, tau, eps, models.sched)
    return fdm_denoise(models.fdm, z_noisy, z_cond, action, tau, models.sched)
