"""Point-cloud geometry: depth back-projection, workspace cropping, FPS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised on degenerate inputs (empty clouds, bad AABBs, m > n)."""


def check_at_least(config, **lows) -> None:
    """DataError unless each named field of config is >= its bound; NaN is not."""
    for name, low in lows.items():
        if not getattr(config, name) >= low:
            raise DataError(f"{name} must be >= {low}")


@dataclass
class PointCloud:
    """n x 3 points in meters."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise DataError(f"points must be (n, 3), got {self.points.shape}")
        if self.points.shape[0] < 1:
            raise DataError("point cloud must contain at least one point")
        if not np.all(np.isfinite(self.points)):
            raise DataError("point cloud contains non-finite coordinates")

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise DataError("focal lengths must be positive")


def backproject_depth(depth: np.ndarray, intrinsics: CameraIntrinsics) -> PointCloud:
    """Pinhole back-projection of an H x W depth map (meters).

    Pixel (u, v) with depth d maps to ((u-cx)d/fx, (v-cy)d/fy, d); zero or
    non-finite depths are holes and are dropped. Output order is the
    row-major pixel scan.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise DataError(f"depth must be 2-D, got shape {depth.shape}")
    if np.any(depth[np.isfinite(depth)] < 0):
        raise DataError("depth values must be >= 0")
    h, w = depth.shape
    valid = np.isfinite(depth) & (depth > 0)
    if not valid.any():
        raise DataError("all depth pixels are holes: empty point cloud")
    v_idx, u_idx = np.nonzero(valid)
    d = depth[v_idx, u_idx]
    x = (u_idx - intrinsics.cx) * d / intrinsics.fx
    y = (v_idx - intrinsics.cy) * d / intrinsics.fy
    return PointCloud(np.stack([x, y, d], axis=1))


def crop_workspace(cloud: PointCloud, aabb_min, aabb_max) -> PointCloud:
    """Keep points strictly inside the box; input order is preserved."""
    lo = np.asarray(aabb_min, dtype=np.float64)
    hi = np.asarray(aabb_max, dtype=np.float64)
    if lo.shape != (3,) or hi.shape != (3,):
        raise DataError("AABB bounds must be 3-vectors")
    if not np.all(lo < hi):
        raise DataError(f"invalid AABB: min {lo} must be < max {hi} per axis")
    mask = np.all((cloud.points > lo) & (cloud.points < hi), axis=1)
    if not mask.any():
        raise DataError("workspace crop removed every point")
    return PointCloud(cloud.points[mask])


def fps_indices(points: np.ndarray, m: int, start_index: int = 0) -> np.ndarray:
    """Greedy farthest-point sampling.

    First pick is start_index; each next pick maximizes the minimum squared
    distance to the picks so far, ties broken by lowest index (np.argmax
    returns the first maximum). Returns indices in selection order.
    """
    points = np.asarray(points)
    n = points.shape[0]
    if not (1 <= m <= n):
        raise DataError(f"fps needs 1 <= m <= n, got m={m}, n={n}")
    if not (0 <= start_index < n):
        raise DataError(f"start_index {start_index} out of range for n={n}")
    selected = np.empty(m, dtype=np.int64)
    selected[0] = start_index
    diff = points - points[start_index]
    min_d2 = np.einsum("ij,ij->i", diff, diff)
    for i in range(1, m):
        nxt = int(np.argmax(min_d2))
        selected[i] = nxt
        diff = points - points[nxt]
        np.minimum(min_d2, np.einsum("ij,ij->i", diff, diff), out=min_d2)
    return selected


def fps(cloud: PointCloud, m: int, start_index: int = 0) -> PointCloud:
    idx = fps_indices(cloud.points, m, start_index)
    return PointCloud(cloud.points[idx])


def kept_frames(frames, skip_frames: int, stride: int, need: int):
    """Every stride-th entry of frames after its first skip_frames; DataError
    unless skip_frames >= 0, stride >= 1 and at least `need` entries are left."""
    if skip_frames < 0 or stride < 1:
        raise DataError("skip_frames must be >= 0 and stride >= 1")
    kept = frames[skip_frames::stride]
    if len(kept) < need:
        raise DataError(f"skip/stride leave {len(kept)} of {len(frames)} frames, need {need}")
    return kept


def preprocess_depth_sequence(depths, intrinsics: CameraIntrinsics, aabb_min, aabb_max,
                              n_points: int = 1024, skip_frames: int = 0,
                              stride: int = 1) -> list[PointCloud]:
    """Depth-map sequence -> cropped, FPS-downsampled point clouds.

    skip_frames drops the leading static frames and stride keeps every
    stride-th frame after that (defaults 0/1 leave the sequence untouched).
    """
    clouds = []
    for depth in kept_frames(list(depths), skip_frames, stride, 1):
        cloud = crop_workspace(backproject_depth(depth, intrinsics), aabb_min, aabb_max)
        if cloud.n < n_points:
            raise DataError(f"only {cloud.n} points in workspace, need {n_points}")
        clouds.append(fps(cloud, n_points, start_index=0))
    return clouds
