"""Deterministic counter-based random streams.

Every stream is a pure function of (key, counter): draw i of a stream is
``mix64(key + (counter + i) * GAMMA)``, the stateless form of SplitMix64.
Streams never share state, so trajectory generation, parameter init and
noise sampling can be keyed independently and replayed from a checkpoint
by restoring two u64 words per stream.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_U64 = np.uint64


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays (modular arithmetic throughout)."""
    z = x.astype(np.uint64, copy=True)
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def _hash_name(name: str) -> np.uint64:
    """FNV-1a over the UTF-8 bytes, folded into u64."""
    h = 0xCBF29CE484222325
    for b in name.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return np.uint64(h)


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0, 1), along the last axis: the
    (..., 2m) draws [u1 | u2] give (..., 2m) normals [r cos | r sin]."""
    m = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :m]))  # 1 - u is in (0, 1]: log stays finite
    theta = (2.0 * math.pi) * u[..., m:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


class RandomStream:
    """One named, restartable random stream.

    State is exactly (key, counter); both are plain u64 values so a stream
    round-trips through the checkpoint format losslessly.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0):
        self.key = int(key) & 0xFFFFFFFFFFFFFFFF
        self.counter = int(counter) & 0xFFFFFFFFFFFFFFFF

    @classmethod
    def derive(cls, seed: int, name: str) -> "RandomStream":
        base = _mix64(np.array([seed], dtype=np.uint64))[0]
        key = _mix64(np.array([base ^ _hash_name(name)], dtype=np.uint64))[0]
        return cls(int(key))

    def child(self, index: int) -> "RandomStream":
        """Independent substream (e.g. one per trajectory)."""
        offset = np.array([index + 1], dtype=np.uint64) * _GAMMA
        key = _mix64(_U64(self.key) + offset)[0]
        return RandomStream(int(key))

    def state(self) -> tuple[int, int]:
        return (self.key, self.counter)

    def raw(self, n: int) -> np.ndarray:
        """n raw u64 draws; advances the counter by n."""
        idx = _U64(self.counter) + np.arange(n, dtype=np.uint64)
        self.counter = (self.counter + n) & 0xFFFFFFFFFFFFFFFF
        return _mix64(_U64(self.key) + idx * _GAMMA)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self.raw(n) >> _U64(11)).astype(np.float64) * (2.0 ** -53)

    def normal(self, shape, dtype=np.float64) -> np.ndarray:
        """Standard normal array via Box-Muller."""
        size = int(np.prod(shape)) if shape else 1
        z = box_muller(self.uniform(2 * ((size + 1) // 2)))[:size]
        return z.reshape(shape).astype(dtype)

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n ints uniform in [low, high). Modulo bias is ~2^-57 for our ranges."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        span = _U64(high - low)
        return (low + (self.raw(n) % span).astype(np.int64)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) (argsort of fresh u64 keys)."""
        return np.argsort(self.raw(n), kind="stable")
