"""The benchmark's inputs, its three stages and the metrics each stage yields.

A stage round calls latentdyn through module attributes at call time, so
the wrappers of a traced run (spans.py) see every call. Rounds of a stage
repeat the same work on the same inputs.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import latentdyn.checks as lchecks
import latentdyn.data as ldata
import latentdyn.encoder as lencoder
import latentdyn.evaluate as levaluate
import latentdyn.objective as lobjective
import latentdyn.trainer as ltrainer

from . import reference, verify
from .spans import StepClock

SCENE = ldata.SceneConfig()  # 512 points, 40 frames, one pushed box, two static
TRAIN_TRAJ = 16              # x 4 pairs each = 64 pairs = 2 batches of 32
EPOCHS = 8
CHECKPOINT_EVERY = 4
PROBE_TRAJ = 8
GRADCHECK_SEED = 0           # the suite's own seed, as gate A1 runs it
GRADCHECK_POINTS = 20
GRADCHECK_COORDS = 32        # finite-difference coordinates per check, at most
FD_STEP = 1e-4


def desk_config(seed: int) -> ltrainer.TrainConfig:
    return ltrainer.TrainConfig.desk_preset(epochs=EPOCHS, checkpoint_every=CHECKPOINT_EVERY,
                                            seed=seed)


@dataclass
class Bench:
    """Inputs made in set-up, and what the stages hand to each other."""

    seed: int
    work: Path
    clock: StepClock
    sampler: "SampledGradCheck"
    train_set: list
    checkpoint: Path | None = None
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    probe: dict = field(default_factory=dict)  # the latest probe round's outputs


def setup(seed: int, work: Path, clock: StepClock, sampler: "SampledGradCheck") -> Bench:
    """Generate the training trajectories from the workload seed."""
    work.mkdir(parents=True, exist_ok=True)
    trajs = [ldata.generate_trajectory(SCENE, ldata.trajectory_seed(seed, i))
             for i in range(TRAIN_TRAJ)]
    return Bench(seed=seed, work=work, clock=clock, sampler=sampler, train_set=trajs)


# -- gradcheck's sampled finite differences ----------------------------------------

class SampledGradCheck:
    """numerics.grad_check with at most `budget` coordinates per call.

    The same analytic-vs-central-difference error, over every coordinate
    of a store of at most `budget` values (all primitive checks) and over a
    seeded sample of `budget` coordinates of a larger one. The full suite
    takes about two minutes, longer than a run may; the sample keeps every
    check, closure and warm-up of the suite. reset() makes rounds repeat.
    """

    def __init__(self, seed: int, budget: int = GRADCHECK_COORDS):
        self.seed = seed
        self.budget = budget
        self.calls = 0

    def reset(self) -> None:
        self.calls = 0

    def __call__(self, closure, point, h: float = 1e-5) -> float:
        for name, t in point.items():
            if t.dtype != np.float64:
                raise ValueError(f"grad_check requires float64 parameters ({name} is {t.dtype})")
        point.zero_grad()
        closure(point).backward()
        entries = [(t.data.reshape(-1), np.zeros(t.size) if t.grad is None
                    else t.grad.reshape(-1).copy()) for _, t in point.items()]
        offsets = np.cumsum([0] + [flat.size for flat, _ in entries])
        picks = np.arange(offsets[-1])
        if picks.size > self.budget:
            rng = np.random.default_rng([self.seed, self.calls])
            picks = np.sort(rng.choice(picks.size, self.budget, replace=False))
        self.calls += 1
        worst = 0.0
        for j in picks:
            e = int(np.searchsorted(offsets, j, side="right")) - 1
            flat, grad = entries[e]
            i = j - offsets[e]
            orig = flat[i]
            flat[i] = orig + h
            f_plus = closure(point).item()
            flat[i] = orig - h
            f_minus = closure(point).item()
            flat[i] = orig
            cd = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, abs(grad[i] - cd) / (abs(grad[i]) + abs(cd) + 1e-12))
        return worst


# -- the three stages -----------------------------------------------------------------

def train_round(b: Bench) -> dict:
    """One trainer.train() call at desk shape over the set-up trajectories."""
    cfg = desk_config(b.seed)
    out = b.work / "train"
    first = len(b.clock.step_ms)
    t0 = time.perf_counter()
    final = ltrainer.train(cfg, b.train_set, out)
    wall = time.perf_counter() - t0
    with open(out / "metrics.jsonl", encoding="utf-8") as f:
        records = [json.loads(line) for line in f][1:]
    step_ms = b.clock.step_ms[first:]
    b.problems += verify.training_records(records, EPOCHS, TRAIN_TRAJ * cfg.pairs_per_traj,
                                          cfg.batch_size)
    if len(step_ms) != len(records):
        b.problems.append(f"{len(step_ms)} training_step calls timed, {len(records)} recorded")
    b.checkpoint = final
    b.attempted += 1
    return {"wall_s": wall, "pairs": EPOCHS * TRAIN_TRAJ * cfg.pairs_per_traj,
            "step_ms": step_ms}


def gradcheck_round(b: Bench) -> dict:
    """checks.run_gradcheck_suite, with grad_check sampled (SampledGradCheck)."""
    b.sampler.reset()
    t0 = time.perf_counter()
    results = lchecks.run_gradcheck_suite(seed=GRADCHECK_SEED, points_per_op=GRADCHECK_POINTS)
    wall = time.perf_counter() - t0
    failures = verify.gradcheck_failures(results)
    b.attempted += len(results)
    b.failed += len(failures)
    return {"wall_s": wall}


def probe_round(b: Bench) -> dict:
    """gen-data, then probe and embed with the latest training checkpoint."""
    path = b.work / "probe.afro"
    t0 = time.perf_counter()
    trajs = [ldata.generate_trajectory(SCENE, ldata.trajectory_seed(b.seed, TRAIN_TRAJ + i))
             for i in range(PROBE_TRAJ)]
    ldata.write_dataset(trajs, path, SCENE, b.seed)
    t1 = time.perf_counter()
    read = ldata.read_dataset(path)
    state = ltrainer.load_checkpoint(b.checkpoint)
    report = levaluate.run_probe(state, read)
    t2 = time.perf_counter()
    coords = levaluate.export_embedding(state, read, b.work / "embedding.csv")
    t3 = time.perf_counter()
    b.problems += verify.dataset_roundtrip(trajs, read)
    b.problems += verify.actuated_box(read)
    b.problems += verify.probe_report(report, PROBE_TRAJ, SCENE.length, state.config.k)
    b.attempted += PROBE_TRAJ + 5
    b.probe = {"trajs": read, "report": report, "coords": coords, "path": path}
    return {"wall_s": t3 - t0, "gen_s": t1 - t0, "probe_s": t2 - t1, "embed_s": t3 - t2}


# Stage order matters once: probe needs the checkpoint training writes.
STAGES = {"train": train_round, "gradcheck": gradcheck_round, "probe": probe_round}


# -- checks that run once, after the measured window -----------------------------------

def directional_check(b: Bench) -> list[str]:
    """The final checkpoint loads at the expected step, and its float64
    loss passes the directional check at desk shape on set-up pairs."""
    state = ltrainer.load_checkpoint(b.checkpoint)
    cfg = state.config
    expected = EPOCHS * (TRAIN_TRAJ * cfg.pairs_per_traj // cfg.batch_size)
    problems = [] if state.step == expected else [
        f"final checkpoint is at step {state.step}, expected {expected}"]
    rng = np.random.default_rng([b.seed, 1])
    idx = rng.integers(0, len(b.train_set), cfg.batch_size)
    ts = rng.integers(0, SCENE.length - cfg.k, cfg.batch_size)
    clouds_t = [b.train_set[i].frames[t] for i, t in zip(idx, ts)]
    clouds_tk = [b.train_set[i].frames[t + cfg.k] for i, t in zip(idx, ts)]
    return problems + verify.directional_derivative(
        *directional_pair(state, clouds_t, clouds_tk, rng))


def directional_pair(state, clouds_t, clouds_tk, rng) -> tuple[float, float]:
    """(backward pass, central difference) of the float64 training loss at
    the state's point along one random unit direction of its parameters."""
    cfg = state.config
    models = state.models
    for store in (models.online, models.idm, models.fdm, models.target):
        for _, t in store.items():
            t.data = t.data.astype(np.float64)

    def grouped(clouds):
        return np.stack([lencoder.group_features(c, cfg.tokens, cfg.group_size)
                         for c in clouds])

    feats_t, feats_tk = grouped(clouds_t), grouped(clouds_tk)
    b = len(clouds_t)
    taus = rng.integers(1, cfg.diffusion_steps + 1, b)
    shape = (b, cfg.tokens, cfg.feat_dim)
    eps_f, eps_h = rng.standard_normal(shape), rng.standard_normal(shape)

    def loss():
        total, _ = lobjective.bidirectional_loss(
            models, feats_t, feats_tk, taus, eps_f, eps_h, cfg.vicreg_weights(),
            objective=cfg.objective, no_history=cfg.no_history,
            token_level_inv=cfg.token_level_inv)
        return total

    params = state.trainable
    params.zero_grad()
    loss().backward()
    direction = {name: rng.standard_normal(t.shape) for name, t in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((t.grad * direction[name]).sum()) for name, t in params.items()
                   if t.grad is not None) / norm
    base = {name: t.data.copy() for name, t in params.items()}
    values = []
    for sign in (1.0, -1.0):
        for name, t in params.items():
            t.data = base[name] + (sign * FD_STEP / norm) * direction[name]
        values.append(loss().item())
    for name, t in params.items():
        t.data = base[name]
    return analytic, (values[0] - values[1]) / (2.0 * FD_STEP)


def reference_check(b: Bench) -> list[str]:
    """Probe statistics and the embedding against the plain-numpy encoder."""
    last = b.probe
    cfg = desk_config(b.seed)
    clouds = [f.points for traj in last["trajs"] for f in traj.frames]
    feats = reference.encoder_features(b.checkpoint, clouds, cfg.tokens, cfg.group_size)
    with open(b.work / "embedding.csv", encoding="utf-8") as f:
        csv_rows = sum(1 for _ in f) - 1
    return (verify.probe_report(last["report"], PROBE_TRAJ, SCENE.length, cfg.k,
                                reference=reference.std_stats(feats["tgt"]))
            + verify.pca_embedding(last["coords"], feats["enc"], csv_rows))


FINAL_CHECKS = {"train": directional_check, "gradcheck": lambda b: [], "probe": reference_check}


# -- metrics -------------------------------------------------------------------------

def stage_metrics(stage: str, rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one stage from its rounds, as (value, unit)."""
    med = statistics.median
    if stage == "train":
        steps = np.concatenate([r["step_ms"] for r in rounds])
        return {
            "train_pairs_per_s": (med(r["pairs"] / r["wall_s"] for r in rounds), "pairs/s"),
            "train_step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
            "train_step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
        }
    if stage == "gradcheck":
        return {"gradcheck_s": (med(r["wall_s"] for r in rounds), "s")}
    return {
        "gen_data_ms_per_traj": (med(r["gen_s"] for r in rounds) * 1e3 / PROBE_TRAJ, "ms"),
        "probe_s": (med(r["probe_s"] for r in rounds), "s"),
        "embed_s": (med(r["embed_s"] for r in rounds), "s"),
    }
