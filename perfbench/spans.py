"""Span recording around latent-dyn's public functions, from outside the program.

A wrapper replaces a public function in every ``latentdyn`` module that
holds it (the defining module and every module that imported the name), so
calls made inside the program are timed too; ``src/`` is not edited.
Spans are (name, start, end, parent) rows kept in flat arrays while the
workload runs and written out at the end. A layer's self time is its span
minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Ops of latentdyn.numerics.tensor; each reports op.<name>.self_ms and .calls.
OPS = ("add", "sub", "mul", "div", "maximum", "matmul", "reshape", "transpose_last",
       "concat", "slice_last", "tsum", "tmean", "tmax", "tsqrt", "square", "gelu",
       "layer_norm", "softmax", "attention", "linear")

# (span name, defining module, attribute); "Class.method" patches the class.
# Each reports <span name>.ms, the total time inside its spans.
FUNCTIONS = (
    ("numerics.backward", "latentdyn.numerics.tensor", "Tensor.backward"),
    ("numerics.adamw_step", "latentdyn.numerics.optim", "adamw_step"),
    ("numerics.rng.normal", "latentdyn.numerics.rng", "RandomStream.normal"),
    # Whatever checks.grad_check is when tracing starts: the gradcheck stage
    # rebinds it to its sampled form (stages.SampledGradCheck) for the run.
    ("numerics.grad_check", "latentdyn.checks", "grad_check"),
    ("encoder.group_features", "latentdyn.encoder", "group_features"),
    ("encoder.encode_groups", "latentdyn.encoder", "encode_groups"),
    ("encoder.ema_update", "latentdyn.encoder", "ema_update"),
    ("data.fps_indices", "latentdyn.data.geometry", "fps_indices"),
    ("dynamics.infer_latent_action", "latentdyn.dynamics", "infer_latent_action"),
    ("dynamics.noise_feature", "latentdyn.dynamics", "noise_feature"),
    ("dynamics.condition_vector", "latentdyn.dynamics", "condition_vector"),
    ("dynamics.fdm_block", "latentdyn.dynamics", "fdm_block"),
    ("dynamics.fdm_denoise", "latentdyn.dynamics", "fdm_denoise"),
    ("objective.bidirectional_loss", "latentdyn.objective", "bidirectional_loss"),
    ("objective.vicreg", "latentdyn.objective", "vicreg"),
    ("trainer.training_step", "latentdyn.trainer", "training_step"),
    ("trainer.save_checkpoint", "latentdyn.trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "latentdyn.trainer", "load_checkpoint"),
    ("data.generate_trajectory", "latentdyn.data.synthetic", "generate_trajectory"),
    ("data.write_dataset", "latentdyn.data.io", "write_dataset"),
    ("data.read_dataset", "latentdyn.data.io", "read_dataset"),
    ("evaluate.run_probe", "latentdyn.evaluate", "run_probe"),
    ("evaluate.linear_probe", "latentdyn.evaluate", "linear_probe"),
    ("evaluate.export_embedding", "latentdyn.evaluate", "export_embedding"),
    ("evaluate.pca_embed", "latentdyn.evaluate", "pca_embed"),
)

# Function spans that also report a call count.
COUNTED = ("encoder.group_features",)


class Patches:
    """Replaces objects in latentdyn modules and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, module: str, attr: str, make) -> None:
        """Replace the object at module.attr, wherever latentdyn holds it,
        with make(original)."""
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, make(original))
            return
        original = getattr(owner, attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "latentdyn" or name.startswith("latentdyn.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def _set(self, target, key: str, value) -> None:
        self._undo.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def restore(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)


class StepClock:
    """The one clock pair the untraced run keeps: wall ms per training_step."""

    def __init__(self):
        self.step_ms: list[float] = []

    def install(self, patches: Patches) -> None:
        clock = time.perf_counter
        out = self.step_ms

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                out.append((clock() - t0) * 1e3)
                return result
            return timed

        patches.rebind("latentdyn.trainer", "training_step", make)


class SpanRecorder:
    """Flat in-memory span table filled by wrappers around every layer."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends = self._name_id, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, patches: Patches) -> None:
        for op in OPS:
            patches.rebind("latentdyn.numerics.tensor", op,
                           lambda fn, op=op: self._wrap(f"op.{op}", fn))
        for name, module, attr in FUNCTIONS:
            patches.rebind(module, attr, lambda fn, name=name: self._wrap(name, fn))

    def __len__(self) -> int:
        return len(self._start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self._name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        return span_totals(self.names, **self.arrays())

    def dump(self, path: Path, extra: dict) -> None:
        """Write the raw spans (.npz) and the per-name totals (.json)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), names=np.array(self.names), **self.arrays())
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as f:
            json.dump({"totals": self.totals(), **extra}, f, indent=1, sort_keys=True)
            f.write("\n")


def span_totals(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total_ms = np.bincount(name_id, weights=dur, minlength=n) * 1e3
    self_ms = np.bincount(name_id, weights=self_time, minlength=n) * 1e3
    return {name: {"calls": int(calls[i]), "ms": float(total_ms[i]), "self_ms": float(self_ms[i])}
            for i, name in enumerate(names)}


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    for op in OPS:
        t = totals.get(f"op.{op}", empty)
        out[f"op.{op}.self_ms"] = (t["self_ms"], "ms")
        out[f"op.{op}.calls"] = (t["calls"], "count")
    for name, _, _ in FUNCTIONS:
        t = totals.get(name, empty)
        out[f"{name}.ms"] = (t["ms"], "ms")
        if name in COUNTED:
            out[f"{name}.calls"] = (t["calls"], "count")
    return out
