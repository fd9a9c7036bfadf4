"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale runs (collapse ablation, decodability, ablation ordering)
share one dataset and one training run per configuration via session-scoped
fixtures; each full run must stay under its 30-minute budget.
"""

import dataclasses
import time

import numpy as np
import pytest

from latentdyn.checks import run_gradcheck_suite
from latentdyn.data import (
    PointCloud,
    SceneConfig,
    generate_trajectory,
    read_dataset,
    trajectory_seed,
    write_dataset,
)
from latentdyn.dynamics import (
    IDM_INPUT_MODES,
    ModelConfig,
    fdm_block,
    fdm_denoise,
    infer_latent_action,
    init_models,
    make_noise_schedule,
    noise_feature,
)
from latentdyn.encoder import ema_update, pool
from latentdyn.evaluate import run_probe
from latentdyn.numerics import RandomStream, Tensor, layer_norm
from latentdyn.objective import bidirectional_loss, vicreg
from latentdyn.trainer import TrainConfig, load_checkpoint, train

DESK_SEED = 17
RUN_BUDGET_S = 30 * 60


def desk_scene() -> SceneConfig:
    return SceneConfig(n_points=512, length=40, n_trajectories=200)


def desk_train_config(**overrides) -> TrainConfig:
    return TrainConfig.desk_preset(seed=DESK_SEED, **overrides)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    scene = desk_scene()
    trajs = [generate_trajectory(scene, trajectory_seed(DESK_SEED, i))
             for i in range(scene.n_trajectories)]
    return trajs


@pytest.fixture(scope="session")
def desk_runs(desk_dataset, tmp_path_factory):
    """Train each acceptance configuration once; returns tag -> results."""
    root = tmp_path_factory.mktemp("desk_runs")
    variants = {
        "vicreg": {},
        "mse": {"objective": "mse"},
        "no_history": {"no_history": True},
        "concat": {"idm_input": "concat"},
    }
    results = {}
    for tag, overrides in variants.items():
        cfg = desk_train_config(**overrides)
        t0 = time.perf_counter()
        final = train(cfg, desk_dataset, root / tag)
        train_s = time.perf_counter() - t0
        state = load_checkpoint(final)
        report = run_probe(state, desk_dataset)
        results[tag] = {"final": final, "report": report, "train_s": train_s}
    return results


class TestA1GradientCorrectness:
    def test_gradcheck_suite(self):
        t0 = time.perf_counter()
        results = run_gradcheck_suite(seed=0, points_per_op=20)
        elapsed = time.perf_counter() - t0
        worst = max(results, key=lambda r: r.max_rel_err)
        ok = all(r.passed for r in results) and elapsed <= 120.0
        _report("A1", ok,
                f"{sum(r.passed for r in results)}/{len(results)} checks <= 1e-4, "
                f"worst {worst.name} at {worst.max_rel_err:.2e}, {elapsed:.0f}s")
        assert all(r.passed for r in results), \
            [f"{r.name}: {r.max_rel_err:.2e}" for r in results if not r.passed]
        assert elapsed <= 120.0, f"gradcheck took {elapsed:.0f}s, budget is 120s"


class TestA2AdaLNZeroIdentity:
    def test_blocks_identity_and_denoise_is_layer_norm(self):
        cfg = ModelConfig()  # full desk dims, 4 blocks
        models = init_models(cfg, DESK_SEED)
        stream = RandomStream.derive(1, "a2")
        x = Tensor(stream.normal((2, cfg.tokens, cfg.feat_dim), dtype=np.float32))
        c = Tensor(stream.normal((2, 3 * cfg.cond_width), dtype=np.float32))
        identical = True
        out = x
        for i in range(cfg.n_blocks):
            nxt = fdm_block(models.fdm, i, out, c)
            identical = identical and np.array_equal(nxt.data, out.data)
            out = nxt
        z_noisy = Tensor(stream.normal((2, cfg.tokens, cfg.feat_dim), dtype=np.float32))
        z_cond = Tensor(stream.normal((2, cfg.tokens, cfg.feat_dim), dtype=np.float32))
        alpha = Tensor(stream.normal((2, cfg.action_dim), dtype=np.float32))
        denoised = fdm_denoise(models.fdm, z_noisy, z_cond, alpha, np.array([5, 50]),
                               models.sched)
        err = np.abs(denoised.data - layer_norm(z_noisy).data).max()
        ok = identical and err <= 1e-6
        _report("A2", ok, f"4 blocks exactly identity: {identical}; "
                          f"|denoise - LN(noisy)| max = {err:.2e} <= 1e-6")
        assert identical
        assert err <= 1e-6


class TestA3NoisingStatistics:
    def test_moments_and_exact_identity(self):
        cfg = ModelConfig()
        sched = make_noise_schedule(cfg.diffusion_steps)
        d = cfg.tokens * cfg.feat_dim
        assert d == 512
        draws = 10_000
        tau = 37
        stream = RandomStream.derive(2, "a3")
        z = Tensor(np.zeros((draws, cfg.tokens, cfg.feat_dim), dtype=np.float32))
        eps = stream.normal((draws, cfg.tokens, cfg.feat_dim), dtype=np.float32)
        out = noise_feature(z, tau, eps, sched).data.reshape(-1)
        n = out.size
        var_expected = 1.0 - sched.abar[tau]
        mean_band = 4.0 * np.sqrt(var_expected / n)
        var_band = 4.0 * var_expected * np.sqrt(2.0 / (n - 1))
        mean_ok = abs(out.mean()) <= mean_band
        var_ok = abs(out.var() - var_expected) <= var_band

        z1 = Tensor(stream.normal((4, cfg.tokens, cfg.feat_dim), dtype=np.float32))
        eps1 = stream.normal((4, cfg.tokens, cfg.feat_dim), dtype=np.float32)
        ident = noise_feature(z1, 0, eps1, sched)
        exact = np.array_equal(ident.data, z1.data)
        ok = mean_ok and var_ok and exact
        _report("A3", ok,
                f"mean {out.mean():+.2e} within {mean_band:.2e}; "
                f"var {out.var():.6f} vs {var_expected:.6f} within {var_band:.2e}; "
                f"abar=1 exact: {exact}")
        assert mean_ok and var_ok and exact


class TestA4FpsOracle:
    def test_oracle_equivalence_200_clouds(self):
        from latentdyn.data import fps_indices

        def oracle(points, m, start):
            selected = [start]
            while len(selected) < m:
                best_idx, best_val = None, -1.0
                for i in range(len(points)):
                    dmin = min(((points[i] - points[s]) ** 2).sum() for s in selected)
                    if dmin > best_val:
                        best_idx, best_val = i, dmin
                selected.append(best_idx)
            return selected

        stream = RandomStream.derive(3, "a4")
        mismatches = 0
        checked = 0
        for _ in range(200):
            n = int(stream.integers(2, 13, 1)[0])
            pts = stream.normal((n, 3))
            for m in range(1, n + 1):
                for start in range(n):
                    checked += 1
                    if list(fps_indices(pts, m, start)) != oracle(pts, m, start):
                        mismatches += 1
        ok = mismatches == 0
        _report("A4", ok, f"{checked} (cloud, m, start) cases, {mismatches} mismatches")
        assert mismatches == 0


class TestA5CollapseAblation:
    def test_vicreg_keeps_variance_mse_collapses(self, desk_runs):
        vic = desk_runs["vicreg"]
        mse = desk_runs["mse"]
        min_std = vic["report"]["min_std"]
        ratio = mse["report"]["median_std"] / vic["report"]["median_std"]
        budget_ok = vic["train_s"] <= RUN_BUDGET_S and mse["train_s"] <= RUN_BUDGET_S
        ok = min_std >= 0.1 and ratio <= 0.2 and budget_ok
        _report("A5", ok,
                f"vicreg min std {min_std:.3f} >= 0.1; mse/vicreg median ratio "
                f"{ratio:.3f} <= 0.2; runtimes {vic['train_s']:.0f}s/{mse['train_s']:.0f}s"
                f" <= {RUN_BUDGET_S}s")
        assert min_std >= 0.1
        assert ratio <= 0.2
        assert budget_ok


class TestA6LatentActionDecodability:
    def test_probe_r2(self, desk_runs):
        rep = desk_runs["vicreg"]["report"]
        ok = rep["r2"] >= 0.7 and rep["r2_shuffled"] <= 0.1
        _report("A6", ok, f"probe R2 {rep['r2']:.3f} >= 0.7; "
                          f"shuffled control {rep['r2_shuffled']:.3f} <= 0.1 "
                          f"(n={rep['n_samples']})")
        assert rep["r2"] >= 0.7
        assert rep["r2_shuffled"] <= 0.1


class TestA7AblationOrdering:
    def test_ablations_do_not_beat_full_config(self, desk_runs):
        full = desk_runs["vicreg"]["report"]["r2"]
        no_hist = desk_runs["no_history"]["report"]["r2"]
        concat = desk_runs["concat"]["report"]["r2"]
        ok = no_hist <= full + 0.02 and concat <= full + 0.02
        _report("A7", ok,
                f"full R2 {full:.3f}; no-history {no_hist:.3f}; concat-IDM "
                f"{concat:.3f}; each <= full + 0.02")
        assert no_hist <= full + 0.02
        assert concat <= full + 0.02


class TestA8DeterminismAndResume:
    def test_bit_identical_runs_and_resume(self, tmp_path):
        scene = SceneConfig(n_points=128, length=10, n_trajectories=8)
        trajs = [generate_trajectory(scene, trajectory_seed(5, i)) for i in range(8)]
        cfg = TrainConfig(k=4, epochs=4, batch_size=4, pairs_per_traj=2, feat_dim=16,
                          tokens=4, group_size=8, action_dim=6, idm_hidden=16,
                          cond_width=16, ffn_mult=2, diffusion_steps=20, seed=11,
                          checkpoint_every=2)
        a = train(cfg, trajs, tmp_path / "a")
        b = train(cfg, trajs, tmp_path / "b")
        identical = a.read_bytes() == b.read_bytes()
        resumed = train(cfg, trajs, tmp_path / "c",
                        resume_from=tmp_path / "a" / "epoch_0002.afck")
        resume_ok = resumed.read_bytes() == a.read_bytes()
        ok = identical and resume_ok
        _report("A8", ok, f"identical seeds bit-identical: {identical}; "
                          f"resume matches uninterrupted: {resume_ok}")
        assert identical and resume_ok


class TestA9ExactInvariants:
    def test_algebraic_identities(self, tmp_path, trajectories_equal):
        details = []

        # EMA endpoints
        from latentdyn.encoder import init_encoder_params

        online = init_encoder_params(16, RandomStream.derive(6, "a9"))
        target = online.copy(requires_grad=False)
        jitter = RandomStream.derive(7, "a9")
        for _, t in target.items():
            t.data += jitter.normal(t.shape).astype(t.dtype)
        frozen = {n: t.data.copy() for n, t in target.items()}
        ema_update(target, online, 1.0)
        ema_m1 = all(np.array_equal(t.data, frozen[n]) for n, t in target.items())
        ema_update(target, online, 0.0)
        ema_m0 = all(np.array_equal(t.data, online[n].data) for n, t in target.items())
        details.append(f"EMA m=1 frozen {ema_m1}, m=0 copies {ema_m0}")

        # differencing shift invariance (bitwise at the difference level)
        stream = RandomStream.derive(8, "a9")
        za = stream.normal((3, 4, 16), dtype=np.float32)
        zb = stream.normal((3, 4, 16), dtype=np.float32)
        shift = stream.normal((16,), dtype=np.float32)
        d1 = (pool(Tensor(zb)).data - pool(Tensor(za)).data)
        d2 = (pool(Tensor(zb + shift)).data - pool(Tensor(za + shift)).data)
        shift_exact = np.allclose(d1, d2, atol=1e-6)
        cfg = ModelConfig(feat_dim=16, tokens=4, group_size=8, action_dim=6,
                          idm_hidden=16, cond_width=16, ffn_mult=2, diffusion_steps=20)
        models = init_models(cfg, 9)
        a1 = infer_latent_action(models.idm, pool(Tensor(za)), pool(Tensor(zb)), cfg.idm_input)
        a2 = infer_latent_action(models.idm, pool(Tensor(za)), pool(Tensor(zb)), cfg.idm_input)
        diff_bitwise = np.array_equal(a1.data, a2.data)
        details.append(f"differencing shift-invariant {shift_exact}, "
                       f"bitwise reproducible {diff_bitwise}")

        # history loss on (a, b) == future loss on (b, a) with the noises
        # swapped, exactly, under either IDM input; the denoiser's heads and
        # gates are moved off zero so that its conditioning counts
        scene = SceneConfig(n_points=96, length=8)
        traj = generate_trajectory(scene, 10)
        feats_a = models.tokenize([traj.frames[0], traj.frames[1]])
        feats_b = models.tokenize([traj.frames[4], traj.frames[5]])
        taus = np.array([3, 15])
        eps_1, eps_2 = (stream.normal((2, 4, 16), dtype=np.float32) for _ in range(2))
        weights = TrainConfig().vicreg_weights()
        sym = True
        for mode in IDM_INPUT_MODES:
            m = init_models(dataclasses.replace(cfg, idm_input=mode), 9)
            for _, t in m.fdm.items():
                t.data += 0.05 * stream.normal(t.shape).astype(t.dtype)
            _, ab = bidirectional_loss(m, feats_a, feats_b, taus, eps_1, eps_2, weights,
                                       "vicreg", False, False)
            _, ba = bidirectional_loss(m, feats_b, feats_a, taus, eps_2, eps_1, weights,
                                       "vicreg", False, False)
            sym &= (ab.total_history, ab.total_future) == (ba.total_future, ba.total_history)
        details.append(f"history==future-on-swapped-pair {sym}")

        # VICReg zero cases
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                     dtype=np.float64)[:, 1:]
        x = 2.0 * h
        out = vicreg(Tensor(x), Tensor(x.copy()), TrainConfig().vicreg_weights())
        vz = (out["inv"].item() == 0.0 and out["var"].item() == 0.0
              and abs(out["cov"].item()) < 1e-12)
        details.append(f"vicreg zero cases {vz}")

        # dataset round-trip
        ds_cfg = SceneConfig(n_points=64, length=5, n_trajectories=2)
        trajs = [generate_trajectory(ds_cfg, trajectory_seed(12, i)) for i in range(2)]
        write_dataset(trajs, tmp_path / "a9.afro", config=ds_cfg, seed=12)
        back = read_dataset(tmp_path / "a9.afro")
        ds_exact = all(trajectories_equal(x, y) for x, y in zip(trajs, back))
        details.append(f"dataset round-trip {ds_exact}")

        # checkpoint round-trip
        from latentdyn.trainer import save_checkpoint

        tcfg = TrainConfig(k=2, epochs=1, batch_size=2, pairs_per_traj=1, feat_dim=16,
                           tokens=4, group_size=8, action_dim=6, idm_hidden=16,
                           cond_width=16, ffn_mult=2, diffusion_steps=20, seed=13)
        final = train(tcfg, trajs, tmp_path / "a9run")
        state = load_checkpoint(final)
        save_checkpoint(state, tmp_path / "a9resave.afck")
        ck_exact = final.read_bytes() == (tmp_path / "a9resave.afck").read_bytes()
        details.append(f"checkpoint round-trip {ck_exact}")

        ok = all((ema_m1, ema_m0, shift_exact, diff_bitwise, sym, vz, ds_exact, ck_exact))
        _report("A9", ok, "; ".join(details))
        assert ok
