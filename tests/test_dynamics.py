"""Noise schedule, latent actions, AdaLN-Zero structure, and the two
prediction branches."""

import numpy as np
import pytest

from latentdyn.data import SceneConfig, generate_trajectory
from latentdyn.dynamics import (
    ABAR_FLOOR,
    ModelConfig,
    Models,
    NoiseSchedule,
    adaln,
    branch_predict,
    condition_vector,
    fdm_block,
    fdm_denoise,
    idm_forward,
    infer_latent_action,
    init_models,
    make_noise_schedule,
    noise_feature,
    sinusoidal_embedding,
)
from latentdyn.encoder import encode_groups, pool
from latentdyn.numerics import NumericsError, ParamStore, RandomStream, Tensor, layer_norm, tsum


@pytest.fixture
def tiny_cfg():
    return ModelConfig(feat_dim=12, tokens=4, group_size=8, action_dim=5, idm_hidden=10,
                       cond_width=8, ffn_mult=2, n_blocks=4, diffusion_steps=10)


@pytest.fixture
def models(tiny_cfg):
    return init_models(tiny_cfg, 3)


@pytest.fixture
def clouds():
    cfg = SceneConfig(n_points=96, length=8)
    traj = generate_trajectory(cfg, 6)
    return traj.frames


class TestNoiseSchedule:
    def test_endpoint_one(self):
        sched = make_noise_schedule(10)
        assert sched.abar[0] == 1.0

    def test_monotone_decreasing(self):
        sched = make_noise_schedule(100)
        assert np.all(np.diff(sched.abar) < 0)

    def test_tail_hits_floor_snr_small(self):
        sched = make_noise_schedule(10)
        assert sched.abar[10] == pytest.approx(1e-4)
        a = sched.abar[10]
        assert a / (1.0 - a) < 0.01

    def test_values_in_unit_interval(self):
        sched = make_noise_schedule(50)
        assert np.all(sched.abar > 0) and np.all(sched.abar <= 1)

    def test_invalid_steps(self):
        with pytest.raises(NumericsError):
            make_noise_schedule(0)

    @pytest.mark.parametrize("steps", [200, 1000])
    def test_long_schedules_flatten_at_floor(self, steps):
        abar = make_noise_schedule(steps).abar
        assert abar[-1] == ABAR_FLOOR and abar[-2] == ABAR_FLOOR
        above = abar[abar > ABAR_FLOOR]
        assert np.all(np.diff(above) < 0)

    def test_ties_allowed_only_at_floor(self):
        NoiseSchedule(steps=3, abar=[1.0, 0.5, ABAR_FLOOR, ABAR_FLOOR])
        with pytest.raises(NumericsError, match="decreasing"):
            NoiseSchedule(steps=3, abar=[1.0, 0.5, 0.5, ABAR_FLOOR])
        with pytest.raises(NumericsError, match="decreasing"):
            NoiseSchedule(steps=3, abar=[1.0, 0.5, ABAR_FLOOR, 0.25])

    def test_cosine_formula_midpoint(self):
        # direct evaluation of the clamped, normalized cosine square
        steps, s = 10, 0.008
        sched = make_noise_schedule(steps)
        f = lambda t: np.cos((t / steps + s) / (1 + s) * np.pi / 2) ** 2
        assert sched.abar[5] == pytest.approx(f(5) / f(0), rel=1e-12)


class TestNoiseFeature:
    def test_identity_at_abar_one(self, models):
        stream = RandomStream.derive(1, "nf")
        z = Tensor(stream.normal((4, 12), dtype=np.float32))
        eps = stream.normal((4, 12), dtype=np.float32)
        out = noise_feature(z, 0, eps, models.sched)
        assert np.array_equal(out.data, z.data)

    def test_pure_noise_at_floor(self, models):
        stream = RandomStream.derive(1, "nf")
        z = Tensor(stream.normal((4, 12), dtype=np.float32))
        eps = stream.normal((4, 12), dtype=np.float32)
        out = noise_feature(z, models.sched.steps, eps, models.sched)
        # abar floor 1e-4: residual signal is at most 0.01 * |z|
        atol = 0.01 * np.abs(z.data).max() + 1e-3
        assert np.allclose(out.data, eps, atol=atol)

    def test_hand_case(self):
        # abar=0.25: sqrt(0.25)*z + sqrt(0.75)*eps on z=(2,0), eps=(0,2)
        sched = make_noise_schedule(10)
        sched.abar[3] = 0.25
        z = Tensor(np.array([[2.0, 0.0]]))
        out = noise_feature(z, 3, np.array([[0.0, 2.0]]), sched)
        assert np.allclose(out.data, [[1.0, np.sqrt(3.0)]])

    def test_batched_taus(self, models):
        stream = RandomStream.derive(2, "nf")
        z = Tensor(stream.normal((3, 4, 12), dtype=np.float32))
        eps = stream.normal((3, 4, 12), dtype=np.float32)
        taus = np.array([1, 5, 10])
        out = noise_feature(z, taus, eps, models.sched)
        for i, tau in enumerate(taus):
            a = models.sched.abar[tau]
            expected = np.sqrt(a) * z.data[i] + np.float32(np.sqrt(1 - a)) * eps[i]
            assert np.allclose(out.data[i], expected, atol=1e-6)

    def test_tau_out_of_range(self, models):
        z = Tensor(np.zeros((4, 12), dtype=np.float32))
        with pytest.raises(NumericsError):
            noise_feature(z, models.sched.steps + 1, np.zeros((4, 12)), models.sched)

    def test_noising_moments(self, models):
        # z=0: mean of sqrt(1-abar)*eps is 0, variance is (1-abar)
        stream = RandomStream.derive(3, "nf-moments")
        n, d = 2000, 48
        z = Tensor(np.zeros((n, 4, 12), dtype=np.float32))
        eps = stream.normal((n, 4, 12), dtype=np.float32)
        tau = 5
        out = noise_feature(z, tau, eps, models.sched).data.reshape(n * 4 * 12)
        var_expected = 1.0 - models.sched.abar[tau]
        m = out.size
        assert abs(out.mean()) < 4.0 * np.sqrt(var_expected / m)
        assert abs(out.var() - var_expected) < 4.0 * var_expected * np.sqrt(2.0 / (m - 1))


class TestLatentAction:
    def test_direction_validation(self, models):
        z = Tensor(np.zeros((1, 12), dtype=np.float32))
        with pytest.raises(NumericsError, match="direction"):
            infer_latent_action(models.idm, z, z, "sideways", "diff")
        with pytest.raises(NumericsError, match="input mode"):
            infer_latent_action(models.idm, z, z, "forward", "sum")

    def test_zero_difference_constancy(self, models, clouds):
        z = pool(encode_groups(models.online, models.tokenize([clouds[0], clouds[1]])))
        a = infer_latent_action(models.idm, z, z, "forward", "diff")
        b = infer_latent_action(models.idm, z, z, "forward", "diff")
        assert np.array_equal(a.data, b.data)
        za = pool(encode_groups(models.online, models.tokenize([clouds[2], clouds[3]])))
        c = infer_latent_action(models.idm, za, za, "forward", "diff")
        assert np.allclose(a.data, c.data, atol=1e-6)

    def test_common_shift_invariance_bitwise(self, models):
        stream = RandomStream.derive(4, "shift")
        za = stream.normal((2, 4, 12), dtype=np.float32)
        zb = stream.normal((2, 4, 12), dtype=np.float32)
        shift = stream.normal((12,), dtype=np.float32)
        a1 = infer_latent_action(models.idm, pool(Tensor(za)), pool(Tensor(zb)), "forward", "diff")
        # token-wise common shift commutes through pooling; the difference
        # fed to the MLP must be bitwise unchanged for identical inputs
        diff1 = pool(Tensor(zb)).data - pool(Tensor(za)).data
        diff2 = pool(Tensor(zb + shift)).data - pool(Tensor(za + shift)).data
        assert np.allclose(diff1, diff2, atol=1e-6)
        a2 = infer_latent_action(models.idm, pool(Tensor(za)), pool(Tensor(zb)), "forward", "diff")
        assert np.array_equal(a1.data, a2.data)

    def test_backward_input_is_negated_forward_input(self, models):
        stream = RandomStream.derive(5, "neg")
        za = Tensor(stream.normal((1, 4, 12), dtype=np.float32))
        zb = Tensor(stream.normal((1, 4, 12), dtype=np.float32))
        fwd_in = (pool(zb).data - pool(za).data)
        bwd_in = (pool(za).data - pool(zb).data)
        assert np.array_equal(fwd_in, -bwd_in)
        fwd = infer_latent_action(models.idm, pool(za), pool(zb), "forward", "diff")
        bwd = infer_latent_action(models.idm, pool(za), pool(zb), "backward", "diff")
        assert np.array_equal(fwd.data, idm_forward(models.idm, Tensor(fwd_in)).data)
        assert np.array_equal(bwd.data, idm_forward(models.idm, Tensor(bwd_in)).data)

    def test_output_dimension_from_config(self, models, tiny_cfg, clouds):
        z1 = pool(encode_groups(models.online, models.tokenize([clouds[0]])))
        z2 = pool(encode_groups(models.online, models.tokenize([clouds[4]])))
        a = infer_latent_action(models.idm, z1, z2, "forward", "diff")
        assert a.shape == (1, tiny_cfg.action_dim)

    def test_concat_mode_orders_pair_by_direction(self, tiny_cfg):
        cfg = ModelConfig(**{**tiny_cfg.__dict__, "idm_input": "concat"})
        models = init_models(cfg, 3)
        stream = RandomStream.derive(6, "concat")
        za = Tensor(stream.normal((1, 4, 12), dtype=np.float32))
        zb = Tensor(stream.normal((1, 4, 12), dtype=np.float32))
        fwd = infer_latent_action(models.idm, pool(za), pool(zb), "forward", "concat")
        swapped = infer_latent_action(models.idm, pool(zb), pool(za), "backward", "concat")
        assert np.array_equal(fwd.data, swapped.data)


class TestConditioning:
    def test_sinusoid_at_zero_alternates(self):
        emb = sinusoidal_embedding(0)
        assert np.array_equal(emb[0::2], np.zeros(16))
        assert np.array_equal(emb[1::2], np.ones(16))

    def test_sinusoid_frequencies(self):
        emb = sinusoidal_embedding(7)
        freqs = 10000.0 ** (-2.0 * np.arange(16) / 32)
        assert np.allclose(emb[0::2], np.sin(7 * freqs))
        assert np.allclose(emb[1::2], np.cos(7 * freqs))

    def test_condition_dim_is_three_widths(self, models, tiny_cfg):
        stream = RandomStream.derive(7, "cond")
        z_pool = Tensor(stream.normal((2, 12), dtype=np.float32))
        alpha = Tensor(stream.normal((2, 5), dtype=np.float32))
        cond = condition_vector(models.fdm, z_pool, alpha, np.array([1, 2]))
        assert cond.shape == (2, 3 * tiny_cfg.cond_width)

    def test_alpha_change_only_touches_alpha_component(self, models, tiny_cfg):
        stream = RandomStream.derive(8, "cond2")
        z_pool = Tensor(stream.normal((1, 12), dtype=np.float32))
        a1 = Tensor(stream.normal((1, 5), dtype=np.float32))
        a2 = Tensor(stream.normal((1, 5), dtype=np.float32))
        c1 = condition_vector(models.fdm, z_pool, a1, np.array([3])).data[0]
        c2 = condition_vector(models.fdm, z_pool, a2, np.array([3])).data[0]
        w = tiny_cfg.cond_width
        z_part, action_part, time_part = slice(0, w), slice(w, 2 * w), slice(2 * w, 3 * w)
        assert np.array_equal(c1[z_part], c2[z_part])
        assert np.array_equal(c1[time_part], c2[time_part])
        assert not np.array_equal(c1[action_part], c2[action_part])


def _head(w, b) -> ParamStore:
    params = ParamStore()
    params.add("head.w", w)
    params.add("head.b", b)
    return params


class TestAdaLN:
    def test_zero_heads_reduce_to_layer_norm(self):
        stream = RandomStream.derive(9, "adaln")
        x = Tensor(stream.normal((2, 4, 8), dtype=np.float32))
        c = Tensor(stream.normal((2, 6), dtype=np.float32))
        w = Tensor(np.zeros((6, 16), dtype=np.float32))
        b = Tensor(np.zeros(16, dtype=np.float32))
        out = adaln(_head(w, b), "head", x, c)
        assert np.array_equal(out.data, layer_norm(x).data)

    def test_constant_tokens_give_beta(self):
        stream = RandomStream.derive(10, "adaln2")
        x = Tensor(np.full((1, 3, 8), 2.5, dtype=np.float32))
        c = Tensor(stream.normal((1, 6), dtype=np.float32))
        w = Tensor(stream.normal((6, 16), dtype=np.float32))
        b = Tensor(stream.normal((16,), dtype=np.float32))
        out = adaln(_head(w, b), "head", x, c)
        gb = c.data @ w.data + b.data
        beta = gb[0, 8:]
        assert np.allclose(out.data[0], np.tile(beta, (3, 1)), atol=1e-6)

    def test_head_dim_validation(self):
        x = Tensor(np.zeros((1, 2, 8), dtype=np.float32))
        c = Tensor(np.zeros((1, 6), dtype=np.float32))
        with pytest.raises(NumericsError, match="AdaLN head"):
            adaln(_head(Tensor(np.zeros((6, 10), dtype=np.float32)),
                        Tensor(np.zeros(10, dtype=np.float32))), "head", x, c)


class TestFdmInit:
    def test_every_block_is_identity_at_init(self, models):
        stream = RandomStream.derive(11, "blocks")
        x = Tensor(stream.normal((2, 4, 12), dtype=np.float32))
        c = Tensor(stream.normal((2, 24), dtype=np.float32))
        out = x
        for i in range(models.config.n_blocks):
            nxt = fdm_block(models.fdm, i, out, c)
            assert np.array_equal(nxt.data, out.data), f"block {i} not identity"
            out = nxt

    def test_full_denoise_is_layer_norm_at_init(self, models):
        stream = RandomStream.derive(12, "denoise")
        z_noisy = Tensor(stream.normal((2, 4, 12), dtype=np.float32))
        z_cond = Tensor(stream.normal((2, 4, 12), dtype=np.float32))
        alpha = Tensor(stream.normal((2, 5), dtype=np.float32))
        out = fdm_denoise(models.fdm, z_noisy, z_cond, alpha, np.array([2, 7]), models.sched)
        ref = layer_norm(z_noisy).data
        assert np.abs(out.data - ref).max() <= 1e-6

    def test_block_count_is_four_by_default(self):
        assert ModelConfig().n_blocks == 4

    def test_denoise_deterministic(self, models):
        stream = RandomStream.derive(13, "det")
        z_noisy = Tensor(stream.normal((1, 4, 12), dtype=np.float32))
        z_cond = Tensor(stream.normal((1, 4, 12), dtype=np.float32))
        alpha = Tensor(stream.normal((1, 5), dtype=np.float32))
        a = fdm_denoise(models.fdm, z_noisy, z_cond, alpha, np.array([3]), models.sched)
        b = fdm_denoise(models.fdm, z_noisy, z_cond, alpha, np.array([3]), models.sched)
        assert np.array_equal(a.data, b.data)


class TestPredictBranches:
    @staticmethod
    def _encode(models, clouds_t, clouds_tk):
        """(online t, online t+k, teacher t, teacher t+k) tokens of a batch of pairs."""
        feats_t, feats_tk = models.tokenize(clouds_t), models.tokenize(clouds_tk)
        return (encode_groups(models.online, feats_t), encode_groups(models.online, feats_tk),
                encode_groups(models.target, feats_t), encode_groups(models.target, feats_tk))

    def _future(self, models, clouds, tau, eps):
        z_t, z_tk, _, teacher_tk = self._encode(models, [clouds[0], clouds[1]],
                                                [clouds[4], clouds[5]])
        return branch_predict(models, z_t, z_tk, teacher_tk, tau, eps, "forward"), teacher_tk

    def test_history_equals_future_on_swapped_pair_bitwise(self, models, clouds):
        stream = RandomStream.derive(14, "sym")
        taus = np.array([3, 8])
        eps = stream.normal((2, 4, 12), dtype=np.float32)
        ct, ctk = [clouds[0], clouds[1]], [clouds[4], clouds[5]]
        z_t, z_tk, teacher_t, _ = self._encode(models, ct, ctk)
        hist_pred = branch_predict(models, z_t, z_tk, teacher_t, taus, eps, "backward")
        sz_t, sz_tk, _, s_teacher_tk = self._encode(models, ctk, ct)
        fut_pred = branch_predict(models, sz_t, sz_tk, s_teacher_tk, taus, eps, "forward")
        assert np.array_equal(hist_pred.data, fut_pred.data)

    def test_teacher_branch_carries_no_gradient(self, models, clouds):
        stream = RandomStream.derive(15, "nograd")
        eps = stream.normal((2, 4, 12), dtype=np.float32)
        pred, teacher = self._future(models, clouds, np.array([1, 2]), eps)
        assert not teacher.requires_grad
        assert pred.requires_grad

    def test_gradient_reaches_online_encoder_and_idm(self, models, clouds):
        stream = RandomStream.derive(16, "flow")
        eps = stream.normal((2, 4, 12), dtype=np.float32)
        pred, _ = self._future(models, clouds, np.array([1, 2]), eps)
        for store in (models.online, models.idm, models.fdm):
            store.zero_grad()
        tsum(pred).backward()
        assert any(t.grad is not None for _, t in models.online.items())
        assert any(t.grad is not None for _, t in models.idm.items())
        for _, t in models.target.items():
            assert t.grad is None

    def test_teacher_equals_student_encoder_after_copy_init(self, models, clouds):
        # EMA momentum 0 copies; teacher and online encoders then agree
        from latentdyn.encoder import ema_update

        ema_update(models.target, models.online, 0.0)
        feats = models.tokenize([clouds[2]])
        z_online = encode_groups(models.online, feats)
        z_teacher = encode_groups(models.target, feats)
        assert np.array_equal(z_online.data, z_teacher.data)

    def test_identical_clouds_share_targets_across_branches(self, models, clouds):
        same = [clouds[0], clouds[1]]
        _, _, t_hist, t_fut = self._encode(models, same, same)
        assert np.array_equal(t_fut.data, t_hist.data)
