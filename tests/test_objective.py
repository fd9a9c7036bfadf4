"""Variance-regularized matching terms and the bidirectional assembly."""

import numpy as np
import pytest

from latentdyn.data import SceneConfig, generate_trajectory
from latentdyn.dynamics import ModelConfig, branch_predict, init_models
from latentdyn.encoder import encode_groups, pool
from latentdyn.numerics import NumericsError, RandomStream, Tensor
from latentdyn.objective import (
    LossBreakdown,
    bidirectional_loss,
    combine_vicreg,
    mse_only_loss,
    vicreg,
)
from latentdyn.trainer import TrainConfig


@pytest.fixture
def weights():
    return TrainConfig().vicreg_weights()


def _whitened_batch(b, d, scale=2.0):
    """Batch with per-dim std >= 1 and exactly zero cross-covariance: the
    zero-mean orthogonal columns of a 4x4 Hadamard design."""
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                 dtype=np.float64)
    assert b == 4 and d <= 3
    return scale * h[:, 1:1 + d]


class TestVicregTerms:
    def test_perfect_whitened_match_is_zero(self, weights):
        x = _whitened_batch(4, 3)
        out = vicreg(Tensor(x), Tensor(x.copy()), weights)
        assert out["inv"].item() == 0.0
        assert out["var"].item() == 0.0
        assert out["cov"].item() == pytest.approx(0.0, abs=1e-12)

    def test_var_zero_at_exact_threshold(self, weights):
        # columns with batch std exactly 1 (+eps inside the sqrt keeps the
        # hinge at zero because std then exceeds the threshold)
        x = _whitened_batch(4, 2, scale=np.sqrt(3.0) / 2.0)
        assert np.allclose(x.std(axis=0, ddof=1), 1.0)
        out = vicreg(Tensor(x), Tensor(x.copy()), weights)
        assert out["var"].item() == 0.0

    def test_constant_batch_maximal_hinge(self, weights):
        x = np.ones((4, 3))
        out = vicreg(Tensor(x), Tensor(x.copy()), weights)
        # std collapses to sqrt(eps)=0.01, hinge = threshold - 0.01
        assert out["var"].item() == pytest.approx(0.99, abs=1e-9)

    def test_combined_weighting(self, weights):
        assert combine_vicreg(weights, 1.0, 1.0, 1.0) == pytest.approx(51.0)

    def test_inv_is_plain_mse(self, weights):
        stream = RandomStream.derive(1, "vic")
        p = stream.normal((6, 5))
        t = stream.normal((6, 5))
        out = vicreg(Tensor(p), Tensor(t), weights)
        assert out["inv"].item() == pytest.approx(((p - t) ** 2).mean(), rel=1e-12)

    def test_batch_of_one_rejected(self, weights):
        with pytest.raises(NumericsError):
            vicreg(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))), weights)

    def test_row_permutation_invariance(self, weights):
        stream = RandomStream.derive(2, "vic")
        p = stream.normal((8, 5))
        t = stream.normal((8, 5))
        perm = stream.permutation(8)
        a = vicreg(Tensor(p), Tensor(t), weights)
        b = vicreg(Tensor(p[perm]), Tensor(t[perm]), weights)
        for key in ("inv", "var", "cov", "total"):
            assert a[key].item() == pytest.approx(b[key].item(), rel=1e-9)

    def test_var_monotone_in_std(self, weights):
        stream = RandomStream.derive(3, "vic")
        base = stream.normal((16, 4))
        base = (base - base.mean(axis=0)) / base.std(axis=0, ddof=1)
        prev = None
        for scale in (0.1, 0.3, 0.6, 0.9, 1.2):
            out = vicreg(Tensor(base * scale), Tensor(base * scale), weights)
            v = out["var"].item()
            if prev is not None:
                assert v <= prev + 1e-12
            prev = v
        assert prev == 0.0  # all stds above threshold

    def test_cov_zero_for_decorrelated(self, weights):
        x = _whitened_batch(4, 3)
        out = vicreg(Tensor(x), Tensor(x.copy()), weights)
        assert out["cov"].item() == pytest.approx(0.0, abs=1e-12)


class TestMseOnly:
    def test_equal_inputs_zero(self):
        x = Tensor(np.ones((3, 4)))
        assert mse_only_loss(x, Tensor(np.ones((3, 4)))).item() == 0.0

    def test_unit_offset_is_one(self):
        x = np.zeros((3, 4))
        assert mse_only_loss(Tensor(x + 1.0), Tensor(x)).item() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(NumericsError):
            mse_only_loss(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))


def _loss_on_clouds(models, ct, ctk, taus, ef, eh, w, objective="vicreg", no_history=False,
                    token_level_inv=False):
    return bidirectional_loss(models, models.tokenize(ct), models.tokenize(ctk), taus, ef, eh, w,
                              objective=objective, no_history=no_history,
                              token_level_inv=token_level_inv)


class TestBidirectional:
    @pytest.fixture
    def setup(self):
        cfg = ModelConfig(feat_dim=12, tokens=4, group_size=8, action_dim=5,
                          idm_hidden=10, cond_width=8, ffn_mult=2, n_blocks=2,
                          diffusion_steps=10)
        models = init_models(cfg, 7)
        scene = SceneConfig(n_points=96, length=8)
        traj = generate_trajectory(scene, 9)
        ct = [traj.frames[0], traj.frames[1], traj.frames[2]]
        ctk = [traj.frames[4], traj.frames[5], traj.frames[6]]
        stream = RandomStream.derive(8, "bd")
        taus = np.array([2, 5, 9])
        ef = stream.normal((3, 4, 12), dtype=np.float32)
        eh = stream.normal((3, 4, 12), dtype=np.float32)
        return models, ct, ctk, taus, ef, eh

    def test_total_is_future_plus_history(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        total, bd = _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights)
        assert bd.total == pytest.approx(bd.total_future + bd.total_history, rel=1e-6)
        assert total.item() == pytest.approx(bd.total, rel=1e-6)
        assert min(bd.inv, bd.var, bd.cov) >= 0.0

    def test_no_history_drops_history_term(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        _, bd = _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights, no_history=True)
        assert bd.total_history == 0.0
        assert bd.total == bd.total_future

    def test_branches_match_public_ops_bitwise(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        # the denoiser's zero-init heads and gates are moved off zero, so
        # that each prediction depends on its conditioning frame
        jitter = RandomStream.derive(8, "jitter")
        for _, t in models.fdm.items():
            t.data += 0.05 * jitter.normal(t.shape).astype(t.dtype)
        _, bd = _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights)
        feats_t, feats_tk = models.tokenize(ct), models.tokenize(ctk)
        z_t, z_tk = encode_groups(models.online, feats_t), encode_groups(models.online, feats_tk)
        tf, th = encode_groups(models.target, feats_tk), encode_groups(models.target, feats_t)
        pf = branch_predict(models, z_t, z_tk, tf, taus, ef)
        ph = branch_predict(models, z_tk, z_t, th, taus, eh)
        fut = vicreg(pool(pf), pool(tf), weights)
        hist = vicreg(pool(ph), pool(th), weights)
        assert bd.total_future == fut["total"].item()
        assert bd.total_history == hist["total"].item()

    def test_swapped_pair_order_swaps_components(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        _, bd = _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights)
        _, bd_swapped = _loss_on_clouds(models, ctk, ct, taus, eh, ef, weights)
        assert bd_swapped.total_future == pytest.approx(bd.total_history, rel=1e-6)
        assert bd_swapped.total_history == pytest.approx(bd.total_future, rel=1e-6)

    def test_mse_objective_has_no_var_cov(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        _, bd = _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights, objective="mse")
        assert bd.var == 0.0 and bd.cov == 0.0
        assert bd.total == pytest.approx(bd.inv, rel=1e-6)

    def test_identical_cloud_pairs_finite(self, setup, weights):
        models, ct, _, taus, ef, eh = setup
        from latentdyn.encoder import ema_update

        ema_update(models.target, models.online, 0.0)
        total, bd = _loss_on_clouds(models, ct, ct, taus, ef, eh, weights)
        assert np.isfinite(bd.total)

    def test_batch_of_one_rejected(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        with pytest.raises(NumericsError):
            _loss_on_clouds(models, ct[:1], ctk[:1], taus[:1], ef[:1], eh[:1], weights)

    def test_unknown_objective_rejected(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        with pytest.raises(NumericsError):
            _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights, objective="l1")

    def test_token_level_invariance_flag(self, setup, weights):
        models, ct, ctk, taus, ef, eh = setup
        _, pooled = _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights)
        _, tokens = _loss_on_clouds(models, ct, ctk, taus, ef, eh, weights,
                                    token_level_inv=True)
        assert tokens.inv != pooled.inv
        assert tokens.var == pytest.approx(pooled.var, rel=1e-6)

    def test_gradient_matches_finite_differences(self, weights):
        # full-loss closure in float64 over a few spot-checked coordinates
        cfg = ModelConfig(feat_dim=6, tokens=3, group_size=4, action_dim=3,
                          idm_hidden=5, cond_width=4, ffn_mult=2, n_blocks=1,
                          diffusion_steps=8)
        models = init_models(cfg, 11)
        for store in (models.online, models.idm, models.fdm):
            for _, t in store.items():
                t.data = t.data.astype(np.float64)
        models.target = models.target.astype(np.float64)
        combined = models.trainables()
        scene = SceneConfig(n_points=24, length=6, n_distractors=0)
        traj = generate_trajectory(scene, 12)
        from latentdyn.data import PointCloud

        ct = models.tokenize([PointCloud(traj.frames[0].points.astype(np.float64)),
                              PointCloud(traj.frames[1].points.astype(np.float64))])
        ctk = models.tokenize([PointCloud(traj.frames[4].points.astype(np.float64)),
                               PointCloud(traj.frames[5].points.astype(np.float64))])
        stream = RandomStream.derive(13, "fd")
        taus = np.array([3, 6])
        ef = stream.normal((2, 3, 6))
        eh = stream.normal((2, 3, 6))

        def loss():
            total, _ = bidirectional_loss(models, ct, ctk, taus, ef, eh, weights,
                                          objective="vicreg", no_history=False,
                                          token_level_inv=False)
            return total

        # short warmup so the zero-initialized gates open and every
        # parameter group carries gradient
        from latentdyn.numerics import OptState, adamw_step

        opt = OptState.for_params(combined, lr=3e-3, beta1=0.9, beta2=0.999, weight_decay=0.0)
        warm = RandomStream.derive(15, "fd-warm")
        for _ in range(40):
            wt = warm.integers(1, 9, 2)
            wf = warm.normal((2, 3, 6))
            wh = warm.normal((2, 3, 6))
            combined.zero_grad()
            total, _ = bidirectional_loss(models, ct, ctk, wt, wf, wh, weights,
                                          objective="vicreg", no_history=False,
                                          token_level_inv=False)
            total.backward()
            adamw_step(combined, opt)

        combined.zero_grad()
        loss().backward()
        h = 1e-5
        spot = RandomStream.derive(14, "spots")
        checked = 0
        for name in combined.names():
            t = combined[name]
            if t.grad is None:
                continue
            flat = t.data.reshape(-1)
            i = int(spot.integers(0, flat.size, 1)[0])
            orig = flat[i]
            flat[i] = orig + h
            fp = loss().item()
            flat[i] = orig - h
            fm = loss().item()
            flat[i] = orig
            cd = (fp - fm) / (2 * h)
            a = t.grad.reshape(-1)[i]
            if abs(a) + abs(cd) < 1e-6:
                continue  # near-zero direction: relative error meaningless
            assert abs(a - cd) / (abs(a) + abs(cd) + 1e-12) <= 1e-4, name
            checked += 1
        assert checked >= 20
