"""Probes of the learned representation: latent-action decodability,
collapse statistics, and 2D PCA export."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .data.geometry import DataError
from .data.synthetic import Trajectory
from .dynamics import Models, infer_latent_action
from .encoder import encode_groups, pool
from .numerics import RandomStream, Tensor
from .trainer import TrainState

_RIDGE = 1e-6  # fallback ridge for rank-deficient probe designs
_TRAIN_FRAC = 0.8  # share of probe pairs in the fit split
_SHUFFLE_SEED = 1  # seed of the shuffled-action control probe
_ENCODE_CHUNK = 64  # frames per encoder call when pooling features


def _fit_ols(x_train: np.ndarray, y_train: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Least squares with intercept via normal equations on centered data.

    Returns (coef, intercept, used_ridge); the ridge fallback handles
    rank-deficient designs (e.g. constant features), in which case the
    prediction degrades gracefully to the training mean.
    """
    x_mean = x_train.mean(axis=0)
    y_mean = y_train.mean(axis=0)
    xc = x_train - x_mean
    yc = y_train - y_mean
    gram = xc.T @ xc
    rhs = xc.T @ yc
    used_ridge = False
    try:
        coef = np.linalg.solve(gram, rhs)
        if not np.all(np.isfinite(coef)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        used_ridge = True
        coef = np.linalg.solve(gram + _RIDGE * np.eye(gram.shape[0]), rhs)
    intercept = y_mean - x_mean @ coef
    return coef, intercept, used_ridge


def linear_probe(alphas: np.ndarray, actions: np.ndarray, split_seed: int = 0) -> dict:
    """Held-out R^2 of an OLS map from latent actions to ground-truth
    actions (per action dimension, averaged). 80/20 split by a seeded
    permutation."""
    alphas = np.asarray(alphas, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    n, d_act = alphas.shape
    if n <= d_act + 1:
        raise DataError(f"probe needs more than {d_act + 1} samples, got {n}")
    if actions.shape[0] != n:
        raise DataError("alphas and actions disagree on sample count")

    perm = RandomStream.derive(split_seed, "probe-split").permutation(n)
    n_train = int(round(n * _TRAIN_FRAC))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    coef, intercept, used_ridge = _fit_ols(alphas[train_idx], actions[train_idx])
    pred = alphas[test_idx] @ coef + intercept
    y = actions[test_idx]
    r2_per_dim = []
    for j in range(y.shape[1]):
        ss_res = float(((y[:, j] - pred[:, j]) ** 2).sum())
        ss_tot = float(((y[:, j] - y[:, j].mean()) ** 2).sum())
        r2_per_dim.append(1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    return {
        "r2": float(np.mean(r2_per_dim)),
        "r2_per_dim": [float(v) for v in r2_per_dim],
        "used_ridge": used_ridge,
        "n_train": int(n_train),
        "n_test": int(n - n_train),
    }


def collapse_metrics(features: np.ndarray) -> dict:
    """Unbiased per-dimension stds plus their min and median."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise DataError("collapse metrics need an (N >= 2, D) feature matrix")
    std = features.std(axis=0, ddof=1)
    return {
        "per_dim_std": [float(v) for v in std],
        "min_std": float(std.min()),
        "median_std": float(np.median(std)),
    }


def pca_embed(features: np.ndarray, n_components: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Top principal components with a deterministic sign convention
    (largest-magnitude loading positive). Returns (coords, evr)."""
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if n < 3:
        raise DataError("PCA embedding needs at least 3 samples")
    centered = features - features.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    comps = eigvecs[:, order]
    for j in range(comps.shape[1]):
        pivot = int(np.argmax(np.abs(comps[:, j])))
        if comps[pivot, j] < 0:
            comps[:, j] = -comps[:, j]
    total = float(np.clip(eigvals, 0.0, None).sum())
    evr = np.clip(eigvals[order], 0.0, None) / total if total > 0 else np.zeros(n_components)
    return centered @ comps, evr


def _pooled_features(models: Models, trajs: list[Trajectory],
                     stores: tuple[str, ...]) -> dict[str, list[np.ndarray]]:
    """Per-trajectory (L, D) pooled features from each named encoder
    ("online", "target"); each frame is tokenized once for all of them."""
    out: dict[str, list[np.ndarray]] = {store: [] for store in stores}
    for traj in trajs:
        feats = models.tokenize(traj.frames)
        for store in stores:
            params = getattr(models, store)
            rows = [pool(encode_groups(params, feats[start:start + _ENCODE_CHUNK])).data
                    for start in range(0, traj.length, _ENCODE_CHUNK)]
            out[store].append(np.concatenate(rows, axis=0))
    return out


def _probe_pairs(models: Models, trajs: list[Trajectory], k: int,
                 pooled_online: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Latent actions for every (t, t+k) pair vs the summed push over the
    window [t, t+k)."""
    alpha_rows = []
    action_rows = []
    for traj, pooled in zip(trajs, pooled_online):
        if traj.length < k + 1:
            raise DataError(f"trajectory too short for interval k={k}")
        ts = np.arange(traj.length - k)
        alpha_rows.append(infer_latent_action(models.idm, Tensor(pooled[ts]),
                                              Tensor(pooled[ts + k]), models.config.idm_input).data)
        cum = np.cumsum(np.concatenate([np.zeros((1, traj.actions.shape[1])),
                                        traj.actions], axis=0), axis=0)
        action_rows.append(cum[ts + k] - cum[ts])
    return np.concatenate(alpha_rows, axis=0), np.concatenate(action_rows, axis=0)


def run_probe(state: TrainState, dataset: list[Trajectory]) -> dict:
    """Full probe report: decodability R^2, shuffled control, collapse
    stats of pooled teacher features over every frame."""
    if not dataset:
        raise DataError("probe dataset is empty")
    models = state.models
    k = state.config.k
    pooled = _pooled_features(models, dataset, ("online", "target"))
    alphas, actions = _probe_pairs(models, dataset, k, pooled["online"])

    probe = linear_probe(alphas, actions, split_seed=state.config.seed)
    shuffle = RandomStream.derive(_SHUFFLE_SEED, "probe-shuffle").permutation(len(actions))
    probe_shuffled = linear_probe(alphas, actions[shuffle], split_seed=state.config.seed)

    collapse = collapse_metrics(np.concatenate(pooled["target"], axis=0))

    return {
        "r2": probe["r2"],
        "r2_shuffled": probe_shuffled["r2"],
        "per_dim_std": collapse["per_dim_std"],
        "min_std": collapse["min_std"],
        "median_std": collapse["median_std"],
        "n_samples": int(len(alphas)),
        "used_ridge": probe["used_ridge"],
        "config": dataclasses.asdict(state.config),
    }


def write_probe_report(report: dict, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def export_embedding(state: TrainState, dataset: list[Trajectory], path) -> np.ndarray:
    """PCA of pooled online features over all frames, written as CSV
    rows "index,x,y,traj_id,frame"."""
    pooled = _pooled_features(state.models, dataset, ("online",))["online"]
    features = np.concatenate(pooled, axis=0)
    coords, _ = pca_embed(features, 2)
    with open(Path(path), "w", encoding="utf-8") as f:
        f.write("index,x,y,traj_id,frame\n")
        idx = 0
        for traj_id, block in enumerate(pooled):
            for frame in range(block.shape[0]):
                x, y = coords[idx]
                f.write(f"{idx},{x:.8g},{y:.8g},{traj_id},{frame}\n")
                idx += 1
    return coords
