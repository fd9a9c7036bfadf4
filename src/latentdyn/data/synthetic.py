"""Synthetic rigid-body trajectories with ground-truth planar push actions.

Scenes are a table plane plus axis-aligned boxes; exactly one box (the
actuated one) translates by the scripted per-step action, everything else
is static. Every frame is an independent resample of the scene surfaces,
so there is no point correspondence across frames — the ground truth
exists only in the recorded actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.rng import RandomStream
from .geometry import DataError, PointCloud, check_at_least, kept_frames


@dataclass
class SceneConfig:
    n_points: int = 512
    length: int = 40
    n_movable: int = 1
    n_distractors: int = 2
    action_max: float = 0.03
    action_dim: int = 2
    workspace_min: tuple[float, float, float] = (-0.4, -0.4, 0.0)
    workspace_max: tuple[float, float, float] = (0.4, 0.4, 0.4)
    depth_noise_std: float = 0.002
    table_fraction: float = 0.4
    movable_size_range: tuple[float, float] = (0.04, 0.08)
    distractor_size_range: tuple[float, float] = (0.02, 0.05)
    n_trajectories: int = 200

    def __post_init__(self):
        check_at_least(self, n_points=4, length=2, n_movable=1, n_distractors=0,
                       n_trajectories=1, depth_noise_std=0)
        if not self.action_max > 0:
            raise DataError("action_max must be > 0")
        if self.action_dim != 2:
            raise DataError("action_dim must be 2: planar pushes are 2-dimensional")
        if not np.all(np.asarray(self.workspace_min) < np.asarray(self.workspace_max)):
            raise DataError("workspace_min must be < workspace_max on every axis")
        if not 0.0 < self.table_fraction < 1.0:
            raise DataError("table_fraction must be in (0, 1)")
        for name in ("movable_size_range", "distractor_size_range"):
            if not all(size > 0 for size in getattr(self, name)):
                raise DataError(f"{name} must hold sizes > 0")


@dataclass
class Trajectory:
    frames: list[PointCloud]
    actions: np.ndarray  # (L-1, action_dim), the applied per-step push
    seed: int
    descriptor: dict | None = None

    def __post_init__(self):
        if len(self.actions) != len(self.frames) - 1:
            raise DataError(
                f"{len(self.frames)} frames need {len(self.frames) - 1} actions, "
                f"got {len(self.actions)}"
            )
        n = self.frames[0].n
        if any(f.n != n for f in self.frames):
            raise DataError("all frames in a trajectory must share the point count")

    @property
    def length(self) -> int:
        return len(self.frames)

    @property
    def n_points(self) -> int:
        return self.frames[0].n


def _box_face_areas(size: np.ndarray) -> np.ndarray:
    sx, sy, sz = size
    return np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])


# the two in-face axes of each face axis (0: +-x faces, 1: +-y, 2: +-z)
_FACE_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


def _sample_box_surface(draws: np.ndarray, size: np.ndarray) -> np.ndarray:
    """len(draws) // 3 points uniform on the surface of a centered
    axis-aligned box, from uniforms laid out as [face | u | v]."""
    n = len(draws) // 3
    areas = _box_face_areas(size)
    cdf = np.cumsum(areas / areas.sum())
    face = np.searchsorted(cdf, draws[:n], side="right")
    axis = face // 2
    other = _FACE_OTHER_AXES[axis]
    rows = np.arange(n)
    half = size / 2.0
    pts = np.empty((n, 3))
    pts[rows, axis] = np.where(face % 2 == 0, 1.0, -1.0) * half[axis]
    pts[rows, other[:, 0]] = (draws[n:2 * n] - 0.5) * size[other[:, 0]]
    pts[rows, other[:, 1]] = (draws[2 * n:] - 0.5) * size[other[:, 1]]
    return pts


def _allocate_points(cfg: SceneConfig, object_areas: np.ndarray) -> tuple[int, np.ndarray]:
    """Split the point budget: fixed table share, rest by surface area
    (largest-remainder rounding, at least 4 points per object)."""
    n_table = int(round(cfg.n_points * cfg.table_fraction))
    remaining = cfg.n_points - n_table
    n_objects = len(object_areas)
    if remaining < 4 * n_objects:
        raise DataError(f"point budget {cfg.n_points} too small for {n_objects} objects")
    exact = remaining * object_areas / object_areas.sum()
    counts = np.maximum(np.floor(exact).astype(int), 4)
    while counts.sum() > remaining:
        counts[np.argmax(counts)] -= 1
    order = np.argsort(-(exact - counts), kind="stable")
    for i in range(remaining - counts.sum()):
        counts[order[i % n_objects]] += 1
    return n_table, counts


def generate_trajectory(cfg: SceneConfig, seed: int) -> Trajectory:
    """Deterministic trajectory for a seed: scene layout, scripted actions
    and every per-frame surface resample come from one named stream."""
    stream = RandomStream.derive(seed, "trajectory")
    ws_lo = np.asarray(cfg.workspace_min, dtype=np.float64)
    ws_hi = np.asarray(cfg.workspace_max, dtype=np.float64)

    # Scene layout: movable boxes first (index 0 actuated), then distractors.
    sizes = []
    roles = []
    for i in range(cfg.n_movable):
        lo, hi = cfg.movable_size_range
        sizes.append(lo + (hi - lo) * stream.uniform(3))
        roles.append("actuated" if i == 0 else "static")
    for _ in range(cfg.n_distractors):
        lo, hi = cfg.distractor_size_range
        sizes.append(lo + (hi - lo) * stream.uniform(3))
        roles.append("static")
    sizes = [np.asarray(s) for s in sizes]

    centers = []
    for size in sizes:
        margin = size / 2.0 + 0.01
        lo = ws_lo[:2] + margin[:2]
        hi = ws_hi[:2] - margin[:2]
        if np.any(lo >= hi):
            raise DataError("workspace too small for configured object sizes")
        xy = lo + (hi - lo) * stream.uniform(2)
        centers.append(np.array([xy[0], xy[1], size[2] / 2.0]))

    # Scripted planar pushes with reflection at the workspace boundary;
    # the recorded action is the displacement actually applied.
    actuated_size = sizes[0]
    margin = actuated_size / 2.0 + 0.01
    lo_c = ws_lo[:2] + margin[:2]
    hi_c = ws_hi[:2] - margin[:2]
    actions = np.empty((cfg.length - 1, 2))
    actuated_path = np.empty((cfg.length, 3))
    actuated_path[0] = centers[0]
    pos = centers[0][:2].copy()
    for t in range(cfg.length - 1):
        a = (stream.uniform(2) * 2.0 - 1.0) * cfg.action_max
        for ax in range(2):
            if pos[ax] + a[ax] > hi_c[ax]:
                a[ax] = -abs(a[ax])
            elif pos[ax] + a[ax] < lo_c[ax]:
                a[ax] = abs(a[ax])
        pos = pos + a
        actions[t] = a
        actuated_path[t + 1] = [pos[0], pos[1], centers[0][2]]

    object_areas = np.array([_box_face_areas(s).sum() for s in sizes])
    n_table, obj_counts = _allocate_points(cfg, object_areas)

    descriptor = {
        "objects": [
            {
                "kind": "box",
                "role": roles[i],
                "size": sizes[i].tolist(),
                "center": centers[i].tolist(),
                "n_points": int(obj_counts[i]),
            }
            for i in range(len(sizes))
        ],
        "table": {"n_points": n_table},
        "depth_noise_std": cfg.depth_noise_std,
    }

    # Frame layout: [actuated pts | other objects | table], counts above.
    frames = []
    table_span = ws_hi[:2] - ws_lo[:2]
    # Each frame's uniforms in one draw: per object [face | u | v], then the
    # table's xy pairs.
    ends = np.cumsum(3 * obj_counts)
    for t in range(cfg.length):
        draws = stream.uniform(int(ends[-1]) + 2 * n_table)
        parts = []
        for i, box_draws in enumerate(np.split(draws[:ends[-1]], ends[:-1])):
            center = actuated_path[t] if roles[i] == "actuated" else centers[i]
            parts.append(_sample_box_surface(box_draws, sizes[i]) + center)
        table_xy = ws_lo[:2] + table_span * draws[ends[-1]:].reshape(n_table, 2)
        parts.append(np.concatenate([table_xy, np.zeros((n_table, 1))], axis=1))
        pts = np.concatenate(parts, axis=0)
        if cfg.depth_noise_std > 0:
            pts[:, 2] += cfg.depth_noise_std * stream.normal(pts.shape[0])
            np.maximum(pts[:, 2], 0.0, out=pts[:, 2])
        frames.append(PointCloud(pts.astype(np.float32)))

    return Trajectory(frames=frames, actions=actions.astype(np.float32), seed=seed,
                      descriptor=descriptor)


def trajectory_seed(global_seed: int, index: int) -> int:
    """Per-trajectory seed: one independent stream id per trajectory index."""
    return RandomStream.derive(global_seed, "data").child(index).key


def subsample_trajectory(traj: Trajectory, skip_frames: int = 0, stride: int = 1) -> Trajectory:
    """Drop leading frames and keep every stride-th one after that.

    Actions between kept frames are the sums of the intermediate per-step
    actions, so centroid displacement still matches the recorded action.
    """
    if skip_frames == 0 and stride == 1:
        return traj
    kept = kept_frames(range(traj.length), skip_frames, stride, 2)
    frames = [traj.frames[i] for i in kept]
    actions = np.stack([traj.actions[a:b].sum(axis=0) for a, b in zip(kept[:-1], kept[1:])])
    return Trajectory(frames=frames, actions=actions.astype(traj.actions.dtype),
                      seed=traj.seed, descriptor=traj.descriptor)
