"""Plain-numpy reference for the teacher encoder, written apart from latentdyn.

It reads the checkpoint file itself, tokenizes with farthest-point sampling
and k-nearest neighbours, and runs the point MLP, max-pool, LayerNorm and
one attention mixing layer in float64, as the encoder's docstring specifies.
The benchmark compares its pooled-feature statistics with the probe's.
"""

from __future__ import annotations

import struct

import numpy as np


def read_checkpoint_tensors(path) -> dict[str, np.ndarray]:
    """Every named float32 tensor of an AFCK checkpoint file."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"AFCK":
        raise ValueError(f"{path} is not an AFCK checkpoint")
    (count,) = struct.unpack_from("<I", buf, 16)
    pos, out = 20, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", buf, pos)
        name = buf[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        (ndim,) = struct.unpack_from("<I", buf, pos)
        dims = struct.unpack_from(f"<{ndim}Q", buf, pos + 4)
        pos += 4 + 8 * ndim
        size = int(np.prod(dims)) if dims else 1
        out[name] = np.frombuffer(buf, dtype="<f4", count=size, offset=pos).reshape(dims)
        pos += 4 * size
    return out


def tokens(points: np.ndarray, m: int, g: int) -> np.ndarray:
    """(m, g, 6) [relative xyz | centre xyz]: FPS from point 0, then the g
    nearest points of each centre; ties go to the lower index."""
    picks = [0]
    d2 = ((points - points[0]) ** 2).sum(axis=1)
    for _ in range(1, m):
        picks.append(int(np.argmax(d2)))
        d2 = np.minimum(d2, ((points - points[picks[-1]]) ** 2).sum(axis=1))
    centres = points[picks]
    dist = ((points[None, :, :] - centres[:, None, :]) ** 2).sum(axis=2)
    near = np.argsort(dist, axis=1, kind="stable")[:, :g]
    rel = points[near] - centres[:, None, :]
    return np.concatenate([rel, np.broadcast_to(centres[:, None, :], rel.shape)], axis=2)


def _erf(x: np.ndarray) -> np.ndarray:
    """Abramowitz & Stegun 7.1.26; absolute error below 1.5e-7."""
    s = np.sign(x)
    x = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (1.421413741
                                                       + t * (-1.453152027 + t * 1.061405429))))
    return s * (1.0 - poly * np.exp(-x * x))


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)))


def pooled_features(w: dict[str, np.ndarray], feats: np.ndarray) -> np.ndarray:
    """(..., m, g, 6) grouped points -> (..., D) token-mean encoder features."""
    w = {k: v.astype(np.float64) for k, v in w.items()}
    h = _gelu(feats @ w["tok.fc1.w"] + w["tok.fc1.b"])
    h = _gelu(h @ w["tok.fc2.w"] + w["tok.fc2.b"])
    raw = h.max(axis=-2)
    centred = raw - raw.mean(axis=-1, keepdims=True)
    normed = centred / np.sqrt((centred ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    q, k, v = (normed @ w[f"mix.w{c}"] for c in "qkv")
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1])
    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = (scores / scores.sum(axis=-1, keepdims=True)) @ v
    return (raw + att @ w["mix.wo"]).mean(axis=-2)


def encoder_features(checkpoint, clouds: list[np.ndarray], m: int, g: int,
                     chunk: int = 40) -> dict[str, np.ndarray]:
    """(n_clouds, D) pooled features of the online ("enc.") and teacher
    ("tgt.") encoders stored in a checkpoint."""
    tensors = read_checkpoint_tensors(checkpoint)
    feats = np.stack([tokens(c, m, g) for c in clouds]).astype(np.float64)
    out = {}
    for prefix in ("enc.", "tgt."):
        w = {name[len(prefix):]: t for name, t in tensors.items()
             if name.startswith(prefix + "tok.") or name.startswith(prefix + "mix.")}
        out[prefix.rstrip(".")] = np.concatenate(  # in chunks, to keep memory small
            [pooled_features(w, feats[i:i + chunk]) for i in range(0, len(feats), chunk)])
    return out


def std_stats(features: np.ndarray) -> tuple[float, float]:
    """(min, median) over feature dims of the per-dim std (ddof 1)."""
    std = features.std(axis=0, ddof=1)
    return float(std.min()), float(np.median(std))
