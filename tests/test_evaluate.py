"""Probe fitting against independent least-squares oracles, collapse
statistics, PCA embedding export."""

import json

import numpy as np
import pytest

from latentdyn.data import DataError, SceneConfig, generate_trajectory, trajectory_seed
from latentdyn.evaluate import (
    collapse_metrics,
    export_embedding,
    linear_probe,
    pca_embed,
    run_probe,
    write_probe_report,
)
from latentdyn.numerics import RandomStream
from latentdyn.trainer import TrainConfig, init_train_state


class TestLinearProbe:
    def test_exact_linear_map_recovered(self):
        stream = RandomStream.derive(1, "probe")
        alphas = stream.normal((400, 5))
        w = stream.normal((5, 2))
        actions = alphas @ w + np.array([0.3, -0.7])
        out = linear_probe(alphas, actions)
        assert out["r2"] >= 1.0 - 1e-8
        assert not out["used_ridge"]

    def test_oracle_equivalence_low_dim(self):
        # independent oracle: scan a coefficient grid for the 1-D case and
        # verify the closed-form fit beats every grid point on the train split
        stream = RandomStream.derive(2, "probe")
        alphas = stream.normal((100, 1))
        actions = (2.0 * alphas[:, 0] + 0.5 + 0.1 * stream.normal(100)).reshape(-1, 1)
        perm = RandomStream.derive(0, "probe-split").permutation(100)
        train_idx = perm[:80]
        out = linear_probe(alphas, actions, split_seed=0)
        x, y = alphas[train_idx, 0], actions[train_idx, 0]

        def sse(coef, intercept):
            return (((coef * x + intercept) - y) ** 2).sum()

        best_fit = None
        for coef in np.linspace(1.5, 2.5, 101):
            for intercept in np.linspace(0.0, 1.0, 101):
                v = sse(coef, intercept)
                if best_fit is None or v < best_fit:
                    best_fit = v
        xc = x - x.mean()
        closed_coef = (xc * (y - y.mean())).sum() / (xc ** 2).sum()
        closed_int = y.mean() - closed_coef * x.mean()
        assert sse(closed_coef, closed_int) <= best_fit + 1e-9
        assert out["r2"] > 0.9

    def test_shuffled_targets_score_near_zero(self):
        stream = RandomStream.derive(3, "probe")
        alphas = stream.normal((600, 8))
        w = stream.normal((8, 2))
        actions = alphas @ w
        shuffled = actions[stream.permutation(600)]
        out = linear_probe(alphas, shuffled)
        assert out["r2"] <= 0.1

    def test_constant_features_predict_mean(self):
        stream = RandomStream.derive(4, "probe")
        alphas = np.ones((300, 4))
        actions = stream.normal((300, 2))
        out = linear_probe(alphas, actions)
        assert out["used_ridge"]
        assert abs(out["r2"]) <= 0.05

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            linear_probe(np.ones((5, 8)), np.ones((5, 2)))

    def test_r2_bounded_above_by_one(self):
        stream = RandomStream.derive(5, "probe")
        alphas = stream.normal((200, 3))
        actions = stream.normal((200, 2))
        assert linear_probe(alphas, actions)["r2"] <= 1.0


class TestCollapseMetrics:
    def test_identical_rows_give_zero(self):
        out = collapse_metrics(np.tile([1.0, 2.0, 3.0], (10, 1)))
        assert out["min_std"] == 0.0
        assert all(v == 0.0 for v in out["per_dim_std"])

    def test_standard_normal_stds_near_one(self):
        z = RandomStream.derive(6, "collapse").normal((10_000, 8))
        out = collapse_metrics(z)
        band = 4.0 / np.sqrt(2.0 * (10_000 - 1))
        assert all(abs(v - 1.0) <= band for v in out["per_dim_std"])

    def test_matches_two_pass_reference(self):
        x = RandomStream.derive(7, "collapse").normal((50, 6)) * 3.0 + 1.0
        out = collapse_metrics(x)
        mean = x.sum(axis=0) / 50
        var = ((x - mean) ** 2).sum(axis=0) / 49
        ref = np.sqrt(var)
        assert np.abs(np.array(out["per_dim_std"]) - ref).max() <= 1e-10
        assert out["min_std"] == pytest.approx(ref.min(), abs=1e-12)
        assert out["median_std"] == pytest.approx(np.median(ref), abs=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            collapse_metrics(np.ones((1, 4)))


class TestPcaEmbed:
    def test_rank_one_data(self):
        stream = RandomStream.derive(8, "pca")
        direction = stream.normal((6,))
        coeffs = stream.normal((40,))
        x = np.outer(coeffs, direction)
        coords, evr = pca_embed(x)
        assert evr[0] == pytest.approx(1.0, abs=1e-10)
        assert evr[1] == pytest.approx(0.0, abs=1e-10)

    def test_isotropic_fractions(self):
        x = RandomStream.derive(9, "pca").normal((20_000, 10))
        _, evr = pca_embed(x)
        assert evr[0] == pytest.approx(0.1, abs=0.01)
        assert evr[1] == pytest.approx(0.1, abs=0.01)

    def test_projection_orthonormal(self):
        x = RandomStream.derive(10, "pca").normal((50, 7)) @ np.diag(np.arange(1.0, 8.0))
        coords, _ = pca_embed(x)
        centered = x - x.mean(axis=0)
        comps, *_ = np.linalg.lstsq(centered, coords, rcond=None)
        gram = comps.T @ comps
        assert np.allclose(gram, np.eye(2), atol=1e-8)

    def test_sign_convention_deterministic(self):
        x = RandomStream.derive(11, "pca").normal((60, 5))
        a, _ = pca_embed(x)
        b, _ = pca_embed(x.copy())
        assert np.array_equal(a, b)

    def test_needs_three_samples(self):
        with pytest.raises(DataError):
            pca_embed(np.ones((2, 4)))


class TestRunProbe:
    @pytest.fixture(scope="class")
    def setup(self):
        scene = SceneConfig(n_points=96, length=8, n_trajectories=5)
        trajs = [generate_trajectory(scene, trajectory_seed(3, i)) for i in range(5)]
        cfg = TrainConfig(k=2, epochs=1, batch_size=4, pairs_per_traj=2, feat_dim=12,
                          tokens=4, group_size=8, action_dim=5, idm_hidden=10,
                          cond_width=8, ffn_mult=2, diffusion_steps=10, seed=2)
        state = init_train_state(cfg, total_steps=10)
        return state, trajs

    def test_report_produced_for_untrained_model(self, setup):
        state, trajs = setup
        report = run_probe(state, trajs)
        assert report["n_samples"] == 5 * 6  # L-k pairs per trajectory
        assert report["r2"] <= 1.0
        assert len(report["per_dim_std"]) == state.config.feat_dim
        assert report["min_std"] >= 0.0
        assert report["config"]["k"] == 2

    def test_report_roundtrips_as_json(self, setup, tmp_path):
        state, trajs = setup
        report = run_probe(state, trajs)
        path = tmp_path / "report.json"
        write_probe_report(report, path)
        back = json.loads(path.read_text())
        assert back["r2"] == pytest.approx(report["r2"])
        assert back["per_dim_std"] == pytest.approx(report["per_dim_std"])
        assert set(back) >= {"r2", "r2_shuffled", "per_dim_std", "min_std",
                             "median_std", "n_samples", "config"}

    def test_probe_alphas_match_public_op(self, setup):
        # the probe's pooled-difference fast path must agree with
        # infer_latent_action on the same pair
        from latentdyn.dynamics import infer_latent_action
        from latentdyn.encoder import encode_groups, pool
        from latentdyn.evaluate import _pooled_features, _probe_pairs

        state, trajs = setup
        models = state.models
        pooled = _pooled_features(models, trajs[:1], ("online",))["online"]
        alphas, _ = _probe_pairs(models, trajs[:1], state.config.k, pooled)
        z_t = encode_groups(models.online, models.tokenize([trajs[0].frames[0]]))
        z_tk = encode_groups(models.online, models.tokenize([trajs[0].frames[state.config.k]]))
        ref = infer_latent_action(state.models.idm, pool(z_t), pool(z_tk),
                                  state.config.idm_input).data[0]
        assert np.allclose(alphas[0], ref, atol=1e-5)

    def test_embedding_csv(self, setup, tmp_path):
        state, trajs = setup
        path = tmp_path / "embed.csv"
        coords = export_embedding(state, trajs, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "index,x,y,traj_id,frame"
        assert len(lines) == 1 + sum(t.length for t in trajs)
        assert coords.shape == (sum(t.length for t in trajs), 2)
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "0" and first[4] == "0"
