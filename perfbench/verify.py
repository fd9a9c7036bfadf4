"""Correctness checks on each workload's outputs.

Every check returns a list of problems (empty when the output is right).
Each compares with a computation made here, apart from the program, or
with a property the method must have; none compares with saved output.
"""

from __future__ import annotations

import math

import numpy as np

# Box-Muller draws are bounded: |z| <= sqrt(-2 ln 2^-53) < 8.58 for the
# generator's 53-bit uniforms, so depth noise never exceeds 8.58 sigma.
_BOX_MULLER_MAX = 8.58
_COORD_TOL = 1e-5


# -- desk-train ---------------------------------------------------------------

def training_records(records: list[dict], epochs: int, pairs: int, batch: int) -> list[str]:
    """metrics.jsonl step records: count, finiteness and sign of the terms."""
    problems = []
    expected = epochs * (pairs // batch)
    if len(records) != expected:
        problems.append(f"{len(records)} step records, expected {epochs} x {pairs}//{batch}"
                        f" = {expected}")
    for r in records:
        for key in ("inv", "var", "cov", "total_future", "total_history", "total"):
            if not math.isfinite(r[key]):
                problems.append(f"step {r['step']}: {key} = {r[key]} is not finite")
        for key in ("inv", "var", "cov"):
            if r[key] < 0:
                problems.append(f"step {r['step']}: {key} = {r[key]} < 0")
    steps = [r["step"] for r in records]
    if steps != list(range(1, len(records) + 1)):
        problems.append(f"step numbers are not 1..{len(records)}")
    return problems


def directional_derivative(analytic: float, central: float, tol: float = 1e-5) -> list[str]:
    """Backward pass vs central difference along one direction."""
    rel = abs(analytic - central) / (abs(analytic) + abs(central) + 1e-12)
    if not rel <= tol:
        return [f"directional derivative: backward {analytic:.6e} vs central difference "
                f"{central:.6e} (relative error {rel:.2e} > {tol:.0e})"]
    return []


# -- gradcheck ------------------------------------------------------------------

def gradcheck_failures(results) -> list[str]:
    """Checks over their tolerance (each one is a failed operation)."""
    return [f"{r.name}: relative error {r.max_rel_err:.3e} > {r.tolerance:.0e}"
            for r in results if not r.max_rel_err <= r.tolerance]


# -- data-probe -----------------------------------------------------------------

def dataset_roundtrip(written, read) -> list[str]:
    if len(written) != len(read):
        return [f"{len(written)} trajectories written, {len(read)} read back"]
    problems = []
    for i, (a, b) in enumerate(zip(written, read)):
        if a.seed != b.seed:
            problems.append(f"trajectory {i}: seed {a.seed} read back as {b.seed}")
        if a.actions.dtype != b.actions.dtype or not np.array_equal(a.actions, b.actions):
            problems.append(f"trajectory {i}: actions differ after the round trip")
        fa = np.stack([f.points for f in a.frames])
        fb = np.stack([f.points for f in b.frames])
        if fa.dtype != fb.dtype or not np.array_equal(fa, fb):
            problems.append(f"trajectory {i}: frames differ after the round trip")
    return problems


def actuated_box(trajs) -> list[str]:
    """Every actuated-box point lies on its box, moved by the summed actions."""
    problems = []
    for i, traj in enumerate(trajs):
        box = traj.descriptor["objects"][0]
        if box["role"] != "actuated":
            problems.append(f"trajectory {i}: first object is not the actuated box")
            continue
        n = box["n_points"]
        half = np.asarray(box["size"]) / 2.0
        slack = np.array([_COORD_TOL, _COORD_TOL,
                          _BOX_MULLER_MAX * traj.descriptor["depth_noise_std"] + _COORD_TOL])
        moved = np.concatenate([np.zeros((1, 2)),
                                np.cumsum(traj.actions.astype(np.float64), axis=0)])
        for t, frame in enumerate(traj.frames):
            centre = np.asarray(box["center"]) + np.append(moved[t], 0.0)
            off = np.abs(frame.points[:n].astype(np.float64) - centre) - (half + slack)
            if np.any(off > 0):
                problems.append(f"trajectory {i} frame {t}: actuated point {off.max():.3g} m "
                                "outside its box")
    return problems


def probe_report(report: dict, n_traj: int, length: int, k: int,
                 reference: tuple[float, float] | None = None, rtol: float = 1e-4) -> list[str]:
    problems = []
    if report["n_samples"] != n_traj * (length - k):
        problems.append(f"n_samples {report['n_samples']} != {n_traj} x ({length} - {k})")
    if not all(math.isfinite(report[key]) for key in ("r2", "r2_shuffled", "min_std",
                                                       "median_std")):
        problems.append("probe report has non-finite values")
    if reference is not None:
        for key, ref in zip(("min_std", "median_std"), reference):
            if not abs(report[key] - ref) <= rtol * abs(ref):
                problems.append(f"{key} {report[key]:.8g} differs from the reference "
                                f"encoder's {ref:.8g}")
    return problems


def pca_embedding(coords: np.ndarray, features: np.ndarray, csv_rows: int | None = None,
                  exact: float = 1e-8, rtol: float = 1e-3) -> list[str]:
    """PCA coordinates against reference features of the same frames, in order.

    The coordinates must have one row per frame, zero-mean columns,
    non-increasing and uncorrelated components (exact properties of the
    float64 PCA), column variances equal to the top two eigenvalues of the
    reference features' covariance, and be an orthonormal projection of the
    centred reference features (which a reordering of rows breaks).
    """
    n = features.shape[0]
    if coords.shape != (n, 2):
        return [f"embedding shape {coords.shape}, expected ({n}, 2)"]
    problems = []
    if csv_rows is not None and csv_rows != n:
        problems.append(f"embedding CSV has {csv_rows} rows, expected {n}")
    scale = float(np.abs(coords).max()) or 1.0
    if np.abs(coords.mean(axis=0)).max() > exact * scale:
        problems.append(f"embedding columns are not zero-mean: {coords.mean(axis=0)}")
    cov = np.cov(coords, rowvar=False)
    if cov[1, 1] > cov[0, 0] * (1 + exact):
        problems.append(f"component variances increase: {cov[0, 0]:.6g} < {cov[1, 1]:.6g}")
    if abs(cov[0, 1]) > exact * cov[0, 0]:
        problems.append(f"components are correlated: covariance {cov[0, 1]:.3g}")
    centred = features - features.mean(axis=0)
    top = np.linalg.eigvalsh(np.cov(centred, rowvar=False))[::-1][:2]
    if not np.allclose(np.diag(cov), top, rtol=rtol, atol=0.0):
        problems.append(f"component variances {np.diag(cov)} are not the top eigenvalues {top}")
    proj, *_ = np.linalg.lstsq(centred, coords, rcond=None)
    resid = float(np.abs(centred @ proj - coords).max())
    if resid > rtol * scale:
        problems.append(f"rows are not a projection of the frames' features in order "
                        f"(residual {resid:.3g})")
    elif not np.allclose(proj.T @ proj, np.eye(2), atol=rtol):
        problems.append("embedding is not an orthonormal projection")
    return problems
