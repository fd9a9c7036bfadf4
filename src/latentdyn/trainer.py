"""Pre-training loop: pair batching, optimization, EMA updates, checkpoints.

`train` tokenizes every frame of the dataset once, before the first epoch,
into one (L, M, g, 6) array per trajectory; batches are stacked from those
arrays, so no frame is grouped twice however many epochs run.

Checkpoint layout (little-endian):
  magic "AFCK" | u32 version=1 | u64 step | u32 tensor_count
  per tensor: u16 name_len | name utf-8 | u32 ndim | u64 dims[] | f32 data[]
  u64 rng[4] (shuffle key/counter, noise key/counter)
  u32 config_len | config JSON utf-8

Metrics are JSONL: one header line, then one record per training step.
A resumed run first cuts the file back to the header and the records up to
the checkpoint's step, then appends.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data.geometry import DataError, check_at_least
from .data.io import atomic_writer, config_from_dict, json_object, read_exact
from .data.synthetic import Trajectory
from .dynamics import ModelConfig, Models, init_models
from .encoder import ema_update, momentum_schedule
from .numerics import NumericsError, OptState, ParamStore, RandomStream, adamw_step
from .objective import LossBreakdown, VicregWeights, bidirectional_loss

CKPT_MAGIC = b"AFCK"
CKPT_VERSION = 1


@dataclass
class TrainConfig(ModelConfig):
    """The model's hyperparameters (inherited from ModelConfig) plus the
    data, optimizer, teacher, objective and bookkeeping settings."""

    # data / sampling
    k: int = 4
    epochs: int = 300
    batch_size: int = 128
    pairs_per_traj: int = 4
    seed: int = 0
    # optimizer
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    # teacher
    ema_m0: float = 0.996
    # objective
    lambda_inv: float = 25.0
    lambda_var: float = 25.0
    lambda_cov: float = 1.0
    var_threshold: float = 1.0
    token_level_inv: bool = False
    # ablation switches
    no_history: bool = False
    objective: str = "vicreg"
    # bookkeeping
    checkpoint_every: int = 10

    def __post_init__(self):
        super().__post_init__()
        check_at_least(self, k=1, epochs=1, batch_size=2, pairs_per_traj=1, checkpoint_every=1,
                       weight_decay=0, lambda_inv=0, lambda_var=0, lambda_cov=0, var_threshold=0)
        if not self.lr > 0:
            raise DataError("lr must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise DataError("beta1 and beta2 must be in [0, 1)")
        if not 0 <= self.ema_m0 <= 1:
            raise DataError("ema_m0 must be in [0, 1]")
        if self.objective not in ("vicreg", "mse"):
            raise DataError(f"objective must be vicreg or mse, got {self.objective!r}")

    @classmethod
    def desk_preset(cls, **overrides) -> "TrainConfig":
        base = dict(epochs=50, batch_size=32)
        base.update(overrides)
        return cls(**base)

    def vicreg_weights(self) -> VicregWeights:
        return VicregWeights(invariance=self.lambda_inv, variance=self.lambda_var,
                             covariance=self.lambda_cov, var_threshold=self.var_threshold)


@dataclass
class MetricsRecord(LossBreakdown):
    """One step's loss breakdown plus its bookkeeping."""

    epoch: int
    step: int
    ema_m: float
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


@dataclass
class TrainState:
    config: TrainConfig
    models: Models
    trainable: ParamStore
    opt: OptState
    shuffle_stream: RandomStream
    noise_stream: RandomStream
    step: int = 0
    total_steps: int = 0


def init_train_state(cfg: TrainConfig, total_steps: int = 0) -> TrainState:
    models = init_models(cfg, cfg.seed)
    trainable = models.trainables()
    opt = OptState.for_params(trainable, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                              weight_decay=cfg.weight_decay)
    return TrainState(
        config=cfg, models=models, trainable=trainable, opt=opt,
        shuffle_stream=RandomStream.derive(cfg.seed, "shuffle"),
        noise_stream=RandomStream.derive(cfg.seed, "noise"),
        total_steps=total_steps,
    )


def training_step(state: TrainState, feats_t: np.ndarray, feats_tk: np.ndarray,
                  epoch: int = 0) -> MetricsRecord:
    """One optimization step on the grouped features of a batch of (t, t+k) pairs."""
    cfg = state.config
    b = len(feats_t)
    if b < 2:
        raise DataError("training batch must have >= 2 pairs")
    t0 = time.perf_counter()
    shape = (b, cfg.tokens, cfg.feat_dim)
    taus = state.noise_stream.integers(1, cfg.diffusion_steps + 1, b)
    eps_future = state.noise_stream.normal(shape, dtype=np.float32)
    eps_history = None if cfg.no_history else state.noise_stream.normal(shape, dtype=np.float32)

    state.trainable.zero_grad()
    total, breakdown = bidirectional_loss(
        state.models, feats_t, feats_tk, taus, eps_future, eps_history,
        cfg.vicreg_weights(), objective=cfg.objective, no_history=cfg.no_history,
        token_level_inv=cfg.token_level_inv,
    )
    total.backward()
    adamw_step(state.trainable, state.opt)
    ema_m = momentum_schedule(state.step, max(state.total_steps, 1), cfg.ema_m0)
    ema_update(state.models.target, state.models.online, ema_m)
    state.step += 1
    return MetricsRecord(**dataclasses.asdict(breakdown), epoch=epoch, step=state.step,
                         ema_m=ema_m, wall_ms=(time.perf_counter() - t0) * 1e3)


def _epoch_batches(state: TrainState, dataset: list[Trajectory]) -> list[list[tuple[int, int]]]:
    """Deterministic per-epoch batches of (trajectory index, start frame)."""
    cfg = state.config
    samples: list[tuple[int, int]] = []
    for i, traj in enumerate(dataset):
        ts = state.shuffle_stream.integers(0, traj.length - cfg.k, cfg.pairs_per_traj)
        samples.extend((i, int(t)) for t in ts)
    samples = [samples[j] for j in state.shuffle_stream.permutation(len(samples))]
    return [samples[i * cfg.batch_size:(i + 1) * cfg.batch_size]
            for i in range(steps_per_epoch(cfg, len(dataset)))]


def steps_per_epoch(cfg: TrainConfig, n_traj: int) -> int:
    """Batches per epoch: the full ones, plus a short one of >= 2 pairs."""
    n_samples = n_traj * cfg.pairs_per_traj
    full, rem = divmod(n_samples, cfg.batch_size)
    return full + (1 if rem >= 2 else 0)


def _cut_metrics(path: Path, step: int) -> None:
    """Keep the header and the complete records of steps <= step."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    kept = [line for line in lines[1:]
            if line.endswith("\n") and json.loads(line)["step"] <= step]
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines[:1] + kept)


def train(cfg: TrainConfig, dataset: list[Trajectory], out_dir,
          resume_from=None) -> Path:
    """Full pre-training run; returns the final checkpoint path.

    Checkpoints land in out_dir every `checkpoint_every` epochs and at the
    end; metrics stream to out_dir/metrics.jsonl (header + one line per
    step). Resuming from an epoch-boundary checkpoint reproduces the
    uninterrupted run bit-for-bit.
    """
    if not dataset:
        raise DataError("training dataset is empty")
    for i, traj in enumerate(dataset):
        if traj.length < cfg.k + 1:
            raise DataError(f"trajectory {i} has length {traj.length} < k+1 = {cfg.k + 1}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    spe = steps_per_epoch(cfg, len(dataset))
    if spe == 0:
        raise DataError("dataset too small to form a single batch of >= 2 pairs")
    total_steps = cfg.epochs * spe

    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if dataclasses.asdict(state.config) != dataclasses.asdict(cfg):
            raise DataError("resume config does not match checkpoint config")
        state.total_steps = total_steps
        if state.step % spe != 0:
            raise DataError("can only resume from an epoch-boundary checkpoint")
        start_epoch = state.step // spe
    else:
        state = init_train_state(cfg, total_steps)
        start_epoch = 0

    tokens = [state.models.tokenize(traj.frames) for traj in dataset]
    metrics_path = out_dir / "metrics.jsonl"
    resuming = resume_from is not None and metrics_path.exists()
    if resuming:
        _cut_metrics(metrics_path, state.step)
    with open(metrics_path, "a" if resuming else "w", encoding="utf-8") as metrics:
        if not resuming:
            header = {"type": "header", "total_steps": total_steps,
                      "steps_per_epoch": spe, "n_trajectories": len(dataset),
                      "config": dataclasses.asdict(cfg)}
            metrics.write(json.dumps(header, sort_keys=True) + "\n")
        for epoch in range(start_epoch, cfg.epochs):
            for batch in _epoch_batches(state, dataset):
                feats_t = np.stack([tokens[i][t] for i, t in batch])
                feats_tk = np.stack([tokens[i][t + cfg.k] for i, t in batch])
                try:
                    record = training_step(state, feats_t, feats_tk, epoch=epoch)
                except NumericsError as err:
                    _dump_diagnostics(state, out_dir, epoch, batch, err)
                    raise
                metrics.write(record.to_json() + "\n")
            if (epoch + 1) % cfg.checkpoint_every == 0 and (epoch + 1) < cfg.epochs:
                save_checkpoint(state, out_dir / f"epoch_{epoch + 1:04d}.afck")
    final_path = out_dir / "final.afck"
    save_checkpoint(state, final_path)
    return final_path


def _dump_diagnostics(state: TrainState, out_dir: Path, epoch: int,
                      batch: list[tuple[int, int]], err: Exception) -> None:
    """diagnostics.json for a failed step: the error (it names the op), the
    step's number as metrics.jsonl counts it, and its (traj, t) pairs."""
    diag = {
        "error": str(err),
        "epoch": epoch,
        "step": state.step + 1,
        "batch": batch,
        "param_norms": {name: float(np.linalg.norm(t.data))
                        for name, t in state.trainable.items()},
    }
    with open(out_dir / "diagnostics.json", "w", encoding="utf-8") as f:
        json.dump(diag, f, indent=2, sort_keys=True)


# -- checkpoint serialization ----------------------------------------------

def _checkpoint_tensors(state: TrainState) -> list[tuple[str, np.ndarray]]:
    tensors = [(name, t.data) for name, t in state.trainable.items()]
    tensors += [(f"tgt.{name}", t.data) for name, t in state.models.target.items()]
    tensors += [(f"opt.m.{name}", state.opt.m[name]) for name in state.trainable.names()]
    tensors += [(f"opt.v.{name}", state.opt.v[name]) for name in state.trainable.names()]
    return tensors


def save_checkpoint(state: TrainState, path) -> None:
    """Write the checkpoint through a temp file, so a crash mid-write
    leaves any previous file at path intact."""
    tensors = _checkpoint_tensors(state)
    config_json = json.dumps(dataclasses.asdict(state.config), sort_keys=True).encode("utf-8")
    with atomic_writer(path) as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<Q", state.step))
        f.write(struct.pack("<I", len(tensors)))
        for name, data in tensors:
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
        rng = (*state.shuffle_stream.state(), *state.noise_stream.state())
        f.write(struct.pack("<4Q", *rng))
        f.write(struct.pack("<I", len(config_json)))
        f.write(config_json)


class CheckpointFormatError(DataError):
    """Bad magic, unsupported version, truncated payload, or tensors that do
    not fit the config's model."""


def load_checkpoint(path) -> TrainState:
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n, what):
            return read_exact(f, n, what, CheckpointFormatError, size)

        if read(4, "magic") != CKPT_MAGIC:
            raise CheckpointFormatError(f"bad checkpoint magic in {path}")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != CKPT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        (step,) = struct.unpack("<Q", read(8, "step"))
        (tensor_count,) = struct.unpack("<I", read(4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        order: list[str] = []
        for i in range(tensor_count):
            (name_len,) = struct.unpack("<H", read(2, f"tensor {i} name length"))
            try:
                name = read(name_len, f"tensor {i} name").decode("utf-8")
            except UnicodeDecodeError as err:
                raise CheckpointFormatError(f"tensor {i} name is not UTF-8: {err}") from err
            (ndim,) = struct.unpack("<I", read(4, f"{name} ndim"))
            dims = struct.unpack(f"<{ndim}Q", read(8 * ndim, f"{name} dims"))
            count = math.prod(dims)
            data = np.frombuffer(read(4 * count, f"{name} data"), dtype="<f4")
            tensors[name] = data.reshape(dims)
            order.append(name)
        rng = struct.unpack("<4Q", read(32, "rng state"))
        (config_len,) = struct.unpack("<I", read(4, "config length"))
        cfg_dict = json_object(read(config_len, "config echo"), "config echo",
                               CheckpointFormatError)
        if f.read(1):
            raise CheckpointFormatError("trailing bytes after checkpoint payload")

    state = init_train_state(config_from_dict(TrainConfig, cfg_dict, "", CheckpointFormatError))
    state.step = step
    destinations = _checkpoint_tensors(state)
    if order != [name for name, _ in destinations]:
        raise CheckpointFormatError("checkpoint tensor names do not match the config's model")
    for name, dst in destinations:
        if tensors[name].shape != dst.shape:
            raise CheckpointFormatError(
                f"{name} has shape {tensors[name].shape}, the config's model needs {dst.shape}")
        dst[...] = tensors[name]
    state.opt.step = step
    state.shuffle_stream = RandomStream(rng[0], rng[1])
    state.noise_stream = RandomStream(rng[2], rng[3])
    return state
