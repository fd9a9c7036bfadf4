"""Finite-difference verification suite over every differentiable op.

Each check builds a float64 ParamStore, a scalar closure (op output
contracted against a fixed random projection so every output coordinate
contributes), and compares analytic gradients against central differences
at h=1e-5. The suite is the CLI's numerical gate: any entry above its
threshold is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data.geometry import PointCloud
from .data.synthetic import SceneConfig, generate_trajectory
from .dynamics import (
    adaln,
    fdm_block,
    fdm_denoise,
    idm_forward,
    init_models,
    make_noise_schedule,
)
from .encoder import encode_groups
from .numerics import (
    ParamStore,
    RandomStream,
    Tensor,
    attention,
    concat,
    div,
    gelu,
    gelu_max,
    grad_check,
    layer_norm,
    linear,
    matmul,
    maximum,
    mul,
    slice_last,
    softmax,
    square,
    sub,
    tmax,
    tmean,
    tsqrt,
    tsum,
    transpose_last,
)
from .objective import bidirectional_loss, mse_only_loss, vicreg
from .trainer import TrainConfig

DEFAULT_TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _store(stream: RandomStream, shapes: dict) -> ParamStore:
    params = ParamStore()
    for name, shape in shapes.items():
        params.add(name, Tensor(stream.normal(shape), requires_grad=True))
    return params


def _primitive_checks(stream: RandomStream):
    """(name, shapes, closure-builder) for each primitive op."""

    def scalarize(out, r):
        return tsum(mul(out, r))

    checks = []

    def add_check(name, shapes, fn):
        checks.append((name, shapes, fn))

    add_check("add", {"a": (3, 4), "b": (3, 4)},
              lambda p, r: scalarize(p["a"] + p["b"], r((3, 4))))
    add_check("add_broadcast", {"a": (3, 4), "b": (4,)},
              lambda p, r: scalarize(p["a"] + p["b"], r((3, 4))))
    add_check("sub", {"a": (3, 4), "b": (3, 4)},
              lambda p, r: scalarize(sub(p["a"], p["b"]), r((3, 4))))
    add_check("mul", {"a": (3, 4), "b": (3, 4)},
              lambda p, r: scalarize(mul(p["a"], p["b"]), r((3, 4))))
    add_check("div", {"a": (3, 4), "b": (3, 4)},
              lambda p, r: scalarize(div(p["a"], 3.0 + square(p["b"])), r((3, 4))))
    add_check("matmul", {"a": (3, 4), "b": (4, 5)},
              lambda p, r: scalarize(matmul(p["a"], p["b"]), r((3, 5))))
    add_check("matmul_batched", {"a": (2, 3, 4), "b": (4, 5)},
              lambda p, r: scalarize(matmul(p["a"], p["b"]), r((2, 3, 5))))
    add_check("sum", {"a": (3, 4)}, lambda p, r: scalarize(tsum(p["a"], axis=0), r((4,))))
    add_check("mean", {"a": (3, 4)}, lambda p, r: scalarize(tmean(p["a"], axis=-1), r((3,))))
    add_check("max_pool", {"a": (3, 5, 4)},
              lambda p, r: scalarize(tmax(p["a"], axis=-2), r((3, 4))))
    add_check("gelu_max_pool", {"a": (3, 5, 4)},
              lambda p, r: scalarize(gelu_max(p["a"], axis=-2), r((3, 4))))
    add_check("maximum_hinge", {"a": (3, 4)},
              lambda p, r: scalarize(maximum(p["a"], 0.25), r((3, 4))))
    add_check("sqrt", {"a": (3, 4)},
              lambda p, r: scalarize(tsqrt(square(p["a"]) + 1.0), r((3, 4))))
    add_check("square", {"a": (3, 4)}, lambda p, r: scalarize(square(p["a"]), r((3, 4))))
    add_check("concat_slice", {"a": (3, 4), "b": (3, 2)},
              lambda p, r: scalarize(slice_last(concat([p["a"], p["b"]], axis=-1), 1, 5),
                                     r((3, 4))))
    add_check("reshape_transpose", {"a": (3, 4)},
              lambda p, r: scalarize(transpose_last(p["a"].reshape(2, 6)), r((6, 2))))
    add_check("softmax", {"a": (3, 4)}, lambda p, r: scalarize(softmax(p["a"]), r((3, 4))))
    add_check("linear", {"x": (3, 4), "w": (4, 5), "b": (5,)},
              lambda p, r: scalarize(linear(p["x"], p["w"], p["b"]), r((3, 5))))
    add_check("gelu", {"a": (3, 4)}, lambda p, r: scalarize(gelu(p["a"]), r((3, 4))))
    add_check("layer_norm", {"a": (3, 6)},
              lambda p, r: scalarize(layer_norm(p["a"]), r((3, 6))))
    add_check("attention", {"q": (3, 4), "k": (3, 4), "v": (3, 4)},
              lambda p, r: scalarize(attention(p["q"], p["k"], p["v"]), r((3, 4))))
    add_check("gelu_chain", {"x": (2, 5), "w1": (5, 5), "w2": (5, 3)},
              lambda p, r: scalarize(matmul(gelu(matmul(gelu(p["x"]), p["w1"])), p["w2"]),
                                     r((2, 3))))
    return checks


def _tiny_config() -> TrainConfig:
    return TrainConfig(feat_dim=6, tokens=3, group_size=4, action_dim=3, idm_hidden=5,
                       cond_width=4, ffn_mult=2, n_blocks=2, diffusion_steps=8)


def _composite_results(seed: int) -> list[CheckResult]:
    stream = RandomStream.derive(seed, "gradcheck-composite")
    results = []
    cfg = _tiny_config()
    sched = make_noise_schedule(cfg.diffusion_steps)

    # IDM MLP over a pooled difference
    models = init_models(cfg, seed)
    idm64 = models.idm.astype(np.float64)
    x = stream.normal((2, cfg.feat_dim))
    r = stream.normal((2, cfg.action_dim))
    results.append(CheckResult(
        "idm_mlp",
        grad_check(lambda p: tsum(mul(idm_forward(p, Tensor(x)), r)), idm64),
        DEFAULT_TOLERANCE))

    # AdaLN with non-zero heads (the zero-init point is exactly LN)
    adaln_store = _store(stream, {"head.w": (5, 12), "head.b": (12,), "x": (2, 3, 6),
                                  "c": (2, 5)})
    r_adaln = stream.normal((2, 3, 6))
    results.append(CheckResult(
        "adaln",
        grad_check(lambda p: tsum(mul(adaln(p, "head", p["x"], p["c"]), r_adaln)), adaln_store),
        DEFAULT_TOLERANCE))

    # One DiT block and the full single-pass denoiser at a perturbed point
    fdm64 = models.fdm.astype(np.float64)
    jitter = RandomStream.derive(seed, "gradcheck-jitter")
    for name, t in fdm64.items():
        t.data += 0.05 * jitter.normal(t.shape)  # move heads/gates off exact zero
    tokens = stream.normal((2, cfg.tokens, cfg.feat_dim))
    cond = stream.normal((2, 3 * cfg.cond_width))
    r_block = stream.normal((2, cfg.tokens, cfg.feat_dim))
    results.append(CheckResult(
        "fdm_block",
        grad_check(lambda p: tsum(mul(fdm_block(p, 0, Tensor(tokens), Tensor(cond)), r_block)),
                   fdm64),
        DEFAULT_TOLERANCE))

    z_noisy = stream.normal((2, cfg.tokens, cfg.feat_dim))
    z_cond = stream.normal((2, cfg.tokens, cfg.feat_dim))
    alpha_vec = stream.normal((2, cfg.action_dim))
    taus = np.array([2, 5])
    r_fdm = stream.normal((2, cfg.tokens, cfg.feat_dim))

    def fdm_closure(p):
        out = fdm_denoise(p, Tensor(z_noisy), Tensor(z_cond), Tensor(alpha_vec), taus, sched)
        return tsum(mul(out, r_fdm))

    results.append(CheckResult("fdm_denoise", grad_check(fdm_closure, fdm64),
                               DEFAULT_TOLERANCE))

    # Encoder over real grouped clouds
    enc64 = models.online.astype(np.float64)
    scene = SceneConfig(n_points=32, length=3, n_distractors=1)
    traj = generate_trajectory(scene, seed)
    feats = models.tokenize([PointCloud(f.points.astype(np.float64)) for f in traj.frames[:2]])
    r_enc = stream.normal((2, cfg.tokens, cfg.feat_dim))
    results.append(CheckResult(
        "encode",
        grad_check(lambda p: tsum(mul(encode_groups(p, feats), r_enc)), enc64),
        DEFAULT_TOLERANCE))

    # VICReg and plain-MSE heads
    w = cfg.vicreg_weights()
    vr_store = _store(stream, {"pred": (4, 5), "target": (4, 5)})
    results.append(CheckResult(
        "vicreg",
        grad_check(lambda p: vicreg(p["pred"], p["target"], w)["total"], vr_store),
        DEFAULT_TOLERANCE))
    mse_store = _store(stream, {"pred": (4, 5), "target": (4, 5)})
    results.append(CheckResult(
        "mse_only",
        grad_check(lambda p: mse_only_loss(p["pred"], p["target"]), mse_store),
        DEFAULT_TOLERANCE))

    return results


def _full_loss_results(seed: int) -> list[CheckResult]:
    """Gradient of the complete bidirectional training loss w.r.t. every
    trainable parameter of a tiny model, against central differences.

    Checked at two points: exact init (the AdaLN-Zero structure makes the
    blocked paths exactly zero on both sides) and after a short optimization
    warmup, where every path carries gradient. The check loss averages two
    (tau, noise) draws so no single draw can push an individual parameter's
    gradient down to the finite-difference noise floor. The fixed clouds are
    tokenized once, so no closure call repeats the grouping.
    """
    from .numerics import OptState, adamw_step

    results = []
    for label, warmup_steps in (("bidirectional_loss_init", 0),
                                ("bidirectional_loss_trained", 100)):
        cfg = replace(_tiny_config(), n_blocks=1)
        models = init_models(cfg, seed)
        for store in (models.online, models.idm, models.fdm):
            for _, t in store.items():
                t.data = t.data.astype(np.float64)
        models.target = models.target.astype(np.float64)

        combined = models.trainables()

        scene = SceneConfig(n_points=24, length=4, n_distractors=0)
        trajs = [generate_trajectory(scene, seed + 1 + i) for i in range(2)]
        feats_t = models.tokenize([PointCloud(t.frames[0].points.astype(np.float64))
                                   for t in trajs])
        feats_tk = models.tokenize([PointCloud(t.frames[3].points.astype(np.float64))
                                    for t in trajs])
        w = cfg.vicreg_weights()

        def loss(taus, ef, eh):
            total, _ = bidirectional_loss(models, feats_t, feats_tk, taus, ef, eh, w,
                                          objective=cfg.objective, no_history=cfg.no_history,
                                          token_level_inv=cfg.token_level_inv)
            return total

        warm_noise = RandomStream.derive(seed, "warm0")
        opt = OptState.for_params(combined, lr=3e-3, beta1=cfg.beta1, beta2=cfg.beta2,
                                  weight_decay=0.0)
        for _ in range(warmup_steps):
            taus = warm_noise.integers(1, cfg.diffusion_steps + 1, 2)
            ef = warm_noise.normal((2, cfg.tokens, cfg.feat_dim))
            eh = warm_noise.normal((2, cfg.tokens, cfg.feat_dim))
            combined.zero_grad()
            loss(taus, ef, eh).backward()
            adamw_step(combined, opt)

        fixed = RandomStream.derive(seed, "eval0")
        draws = []
        for _ in range(2):
            taus = fixed.integers(1, cfg.diffusion_steps + 1, 2)
            ef = fixed.normal((2, cfg.tokens, cfg.feat_dim))
            eh = fixed.normal((2, cfg.tokens, cfg.feat_dim))
            draws.append((taus, ef, eh))

        def closure(_params):
            return (loss(*draws[0]) + loss(*draws[1])) * 0.5

        results.append(CheckResult(label, grad_check(closure, combined), DEFAULT_TOLERANCE))
    return results


def run_gradcheck_suite(seed: int = 0, points_per_op: int = 20) -> list[CheckResult]:
    """The full numerical gate; returns one result per op plus the
    composite closures and the end-to-end loss."""
    results = []
    for name, shapes, fn in _primitive_checks(RandomStream.derive(seed, "gradcheck-spec")):
        worst = 0.0
        for point in range(points_per_op):
            stream = RandomStream.derive(seed + point, f"gradcheck-{name}")
            params = _store(stream, shapes)
            projections: dict[tuple, np.ndarray] = {}

            def r(shape):
                key = tuple(shape)
                if key not in projections:
                    projections[key] = stream.normal(shape)
                return projections[key]

            worst = max(worst, grad_check(lambda p: fn(p, r), params))
        results.append(CheckResult(name, worst, DEFAULT_TOLERANCE))
    results.extend(_composite_results(seed))
    results.extend(_full_loss_results(seed))
    return results
