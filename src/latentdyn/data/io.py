"""Binary trajectory dataset format.

Little-endian layout:
  magic "AFRO" | u32 version=1 | u32 n_traj
  per trajectory: u32 L | u32 n_points | u32 action_dim | u64 seed |
                  f32 frames [L * n_points * 3] | f32 actions [(L-1) * action_dim]

A sidecar "<path>.meta.json" carries the generator config, the global
seed, and the per-trajectory scene descriptors (not representable in the
fixed binary layout). Both files are written through ``atomic_writer``, so
a crash mid-write leaves the previous file in place. Readers go through
``read_exact``, which refuses any header size larger than the bytes left.
"""

from __future__ import annotations

import json
import os
import struct
import typing
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .geometry import DataError, PointCloud
from .synthetic import SceneConfig, Trajectory

MAGIC = b"AFRO"
VERSION = 1


class DatasetFormatError(DataError):
    """Bad magic, unsupported version, or truncated payload."""


@contextmanager
def atomic_writer(path, mode: str = "wb", **kwargs):
    """Open a temp file in path's directory; on a clean exit it replaces
    path, on an error it is deleted and path is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(trajs: list[Trajectory], path, config: SceneConfig | None = None,
                  seed: int | None = None) -> None:
    if not trajs:
        raise DataError("refusing to write an empty dataset")
    with atomic_writer(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(trajs)))
        for traj in trajs:
            frames = np.stack([fr.points for fr in traj.frames]).astype("<f4")
            actions = np.asarray(traj.actions, dtype="<f4")
            f.write(struct.pack("<IIIQ", traj.length, traj.n_points,
                                actions.shape[1], traj.seed & 0xFFFFFFFFFFFFFFFF))
            f.write(frames.tobytes())
            f.write(actions.tobytes())
    meta = {
        "config": asdict(config) if config is not None else None,
        "seed": seed,
        "descriptors": [t.descriptor for t in trajs],
    }
    with atomic_writer(f"{path}.meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def read_exact(f, n: int, what: str, error: type[DataError], size: int) -> bytes:
    """Exactly n bytes from f, a binary file of `size` bytes, or `error`.

    n is checked against the bytes left before anything is read, so a
    corrupt header size fails here instead of allocating its buffer.
    """
    left = size - f.tell()
    if n > left:
        raise error(f"truncated file: {what} needs {n} bytes, {left} left")
    return f.read(n)


def json_object(raw: bytes, what: str, error: type[DataError]) -> dict:
    """raw parsed as a UTF-8 JSON object, or `error`."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
        raise error(f"{what} is not UTF-8 JSON: {err}") from err
    if not isinstance(obj, dict):
        raise error(f"{what} is not a JSON object")
    return obj


def _has_type(value, annotation) -> bool:
    """value is of exactly the annotated type, except that an int is a float."""
    if isinstance(value, bool) != (annotation is bool):
        return False
    return isinstance(value, (int, float) if annotation is float else annotation)


def config_from_dict(cls, entries: dict, prefix: str, error: type[Exception]):
    """The config dataclass cls built from `entries`, a dict of field values
    such as parsed JSON, with cls's defaults for the fields it leaves out.

    Each value must have its field's annotated type; a tuple field takes a
    list of exactly its length. An unknown key, a value of another type, or
    a value that cls's own checks refuse raises `error`, naming the key as
    prefix + field.
    """
    hints = typing.get_type_hints(cls)
    values = {}
    for name, value in entries.items():
        key = prefix + name
        if name not in hints:
            raise error(f"unknown config key {key!r}")
        hint = hints[name]
        is_tuple = typing.get_origin(hint) is tuple
        types = typing.get_args(hint) if is_tuple else (hint,)
        items = value if is_tuple else [value]
        if not (isinstance(items, list) and len(items) == len(types)
                and all(map(_has_type, items, types))):
            expected = f"a list of {len(types)} numbers" if is_tuple else f"of type {hint.__name__}"
            raise error(f"config key {key!r} must be {expected}, got {value!r}")
        values[name] = tuple(t(v) for t, v in zip(types, value)) if is_tuple else hint(value)
    try:
        return cls(**values)
    except DataError as err:
        raise error(f"{prefix}{err}") from err


def read_dataset(path) -> list[Trajectory]:
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n, what):
            return read_exact(f, n, what, DatasetFormatError, size)

        magic = read(4, "magic")
        if magic != MAGIC:
            raise DatasetFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, n_traj = struct.unpack("<II", read(8, "header"))
        if version != VERSION:
            raise DatasetFormatError(f"unsupported dataset version {version}, reader supports {VERSION}")
        trajs = []
        for i in range(n_traj):
            length, n_points, action_dim, traj_seed = struct.unpack(
                "<IIIQ", read(20, f"trajectory {i} header"))
            if length < 1 or n_points < 1:
                raise DatasetFormatError(
                    f"trajectory {i} header has {length} frames of {n_points} points")
            frames_bytes = read(length * n_points * 3 * 4, f"trajectory {i} frames")
            actions_bytes = read((length - 1) * action_dim * 4, f"trajectory {i} actions")
            frames = np.frombuffer(frames_bytes, dtype="<f4").reshape(length, n_points, 3)
            actions = np.frombuffer(actions_bytes, dtype="<f4").reshape(length - 1, action_dim)
            trajs.append(Trajectory(
                frames=[PointCloud(frames[t].copy()) for t in range(length)],
                actions=actions.copy(),
                seed=traj_seed,
            ))
        trailing = f.read(1)
        if trailing:
            raise DatasetFormatError("trailing bytes after last trajectory")

    meta_path = Path(f"{path}.meta.json")
    if meta_path.exists():
        meta = json_object(meta_path.read_bytes(), str(meta_path), DatasetFormatError)
        descriptors = meta.get("descriptors")
        if descriptors is not None and not (isinstance(descriptors, list) and all(
                d is None or isinstance(d, dict) for d in descriptors)):
            raise DatasetFormatError(f"{meta_path} descriptors are not a list of JSON objects")
        if descriptors and len(descriptors) == len(trajs):
            for traj, desc in zip(trajs, descriptors):
                traj.descriptor = desc
    return trajs
