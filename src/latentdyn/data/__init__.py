"""Synthetic trajectories, depth ingestion math, and dataset serialization."""

from .geometry import (
    CameraIntrinsics,
    DataError,
    PointCloud,
    backproject_depth,
    crop_workspace,
    fps,
    fps_indices,
    preprocess_depth_sequence,
)
from .io import DatasetFormatError, read_dataset, write_dataset
from .synthetic import (
    SceneConfig,
    Trajectory,
    generate_trajectory,
    trajectory_seed,
)

__all__ = [
    "CameraIntrinsics",
    "DataError",
    "DatasetFormatError",
    "PointCloud",
    "SceneConfig",
    "Trajectory",
    "backproject_depth",
    "crop_workspace",
    "fps",
    "fps_indices",
    "generate_trajectory",
    "preprocess_depth_sequence",
    "read_dataset",
    "trajectory_seed",
    "write_dataset",
]
