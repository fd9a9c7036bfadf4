"""Tokenizer grouping, encoder invariances, pooling, EMA teacher updates."""

import numpy as np
import pytest

from latentdyn.data import DataError, PointCloud, SceneConfig, generate_trajectory
from latentdyn.encoder import (
    ema_update,
    encode_groups,
    group_features,
    init_encoder_params,
    momentum_schedule,
    pool,
)
from latentdyn.numerics import (
    NumericsError,
    RandomStream,
    Tensor,
    attention,
    gelu,
    layer_norm,
    linear,
    matmul,
    tmax,
    tsum,
)


@pytest.fixture
def cloud():
    cfg = SceneConfig(n_points=128, length=2)
    return generate_trajectory(cfg, 8).frames[0]


@pytest.fixture
def params():
    return init_encoder_params(16, RandomStream.derive(4, "init"))


def tokenize(cloud, m_tokens, group_size):
    """(groups, centers) from group_features' [relative xyz | center xyz]."""
    feats = group_features(cloud, m_tokens, group_size)
    return feats[..., :3], feats[:, 0, 3:]


class TestTokenize:
    def test_single_group_is_centered_cloud(self, cloud):
        groups, centers = tokenize(cloud, 1, cloud.n)
        assert groups.shape == (1, cloud.n, 3)
        assert np.allclose(groups[0] + centers[0], cloud.points[np.argsort(
            ((cloud.points - centers[0]) ** 2).sum(axis=1), kind="stable")])

    def test_translation_moves_centers_not_relatives(self, cloud):
        shift = np.array([0.3, -0.2, 0.15], dtype=cloud.points.dtype)
        g1, c1 = tokenize(cloud, 4, 16)
        g2, c2 = tokenize(PointCloud(cloud.points + shift), 4, 16)
        assert np.allclose(c2 - c1, shift, atol=1e-6)
        assert np.allclose(g1, g2, atol=1e-6)

    def test_two_separated_clusters_get_one_center_each(self):
        stream = RandomStream.derive(3, "clusters")
        a = stream.normal((32, 3)) * 0.05
        b = stream.normal((32, 3)) * 0.05 + np.array([5.0, 0, 0])
        cloud = PointCloud(np.concatenate([a, b]))
        _, centers = tokenize(cloud, 2, 8)
        sides = centers[:, 0] > 2.5
        assert sides.sum() == 1  # one center per cluster

    def test_too_many_tokens_rejected(self, cloud):
        with pytest.raises(DataError):
            tokenize(cloud, cloud.n + 1, 4)

    def test_group_size_capped(self, cloud):
        with pytest.raises(DataError):
            tokenize(cloud, 2, cloud.n + 1)


class TestEncode:
    def test_deterministic_bitwise(self, params, cloud):
        a = encode_groups(params, group_features(cloud, 4, 16))
        b = encode_groups(params, group_features(cloud, 4, 16))
        assert np.array_equal(a.data, b.data)

    def test_output_shape(self, params, cloud):
        feats = group_features(cloud, 4, 16)
        assert encode_groups(params, feats).shape == (4, 16)
        assert encode_groups(params, np.stack([feats, feats])).shape == (2, 4, 16)

    def test_within_group_permutation_invariance_bitwise(self, params, cloud):
        feats = group_features(cloud, 4, 16)
        out = encode_groups(params, feats).data
        perm = RandomStream.derive(5, "perm")
        for g in range(feats.shape[0]):
            feats[g] = feats[g][perm.permutation(feats.shape[1])]
        out_shuffled = encode_groups(params, feats).data
        assert np.array_equal(out, out_shuffled)

    def test_batch_matches_single(self, params, cloud):
        feats = group_features(cloud, 4, 16)
        single = encode_groups(params, feats).data
        batched = encode_groups(params, feats[None]).data[0]
        assert np.allclose(single, batched, atol=1e-6)

    def test_matches_unfused_composition(self, params, cloud):
        # the tokenizer's MLP, max-pool and mixing layer, with GELU and the
        # max-pool as separate ops: same values and same parameter gradients
        feats = np.stack([group_features(cloud, 4, 16)] * 2)
        proj = Tensor(RandomStream.derive(6, "proj").normal((2, 4, 16), dtype=np.float32))

        def unfused():
            x = Tensor(feats.astype(np.float32))
            h = gelu(linear(x, params["tok.fc1.w"], params["tok.fc1.b"]))
            raw = tmax(gelu(linear(h, params["tok.fc2.w"], params["tok.fc2.b"])), axis=-2)
            normed = layer_norm(raw)
            q, k, v = (matmul(normed, params[f"mix.w{c}"]) for c in "qkv")
            return raw + matmul(attention(q, k, v), params["mix.wo"])

        results = []
        for encode in (lambda: encode_groups(params, feats), unfused):
            params.zero_grad()
            out = encode()
            tsum(out * proj).backward()
            results.append((out.data, [t.grad.copy() for _, t in params.items()]))
        (out, grads), (ref, ref_grads) = results
        assert np.array_equal(out, ref)
        for g, ref_g in zip(grads, ref_grads):
            assert np.array_equal(g, ref_g)


class TestPool:
    def test_single_token(self):
        z = Tensor(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(pool(z).data, [1.0, 2.0, 3.0])

    def test_arithmetic_mean(self):
        z = Tensor(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(pool(z).data, [1.0, 1.0])

    def test_shift_equivariance(self):
        stream = RandomStream.derive(6, "pool")
        z = stream.normal((5, 8))
        c = stream.normal((8,))
        assert np.allclose(pool(Tensor(z + c)).data, pool(Tensor(z)).data + c, atol=1e-12)


class TestEma:
    def _stores(self, seed=0):
        online = init_encoder_params(8, RandomStream.derive(seed, "init"))
        target = online.copy(requires_grad=False)
        jitter = RandomStream.derive(seed + 1, "jitter")
        for _, t in target.items():
            t.data += jitter.normal(t.shape).astype(t.dtype)
        return online, target

    def test_momentum_one_is_identity(self):
        online, target = self._stores()
        before = {n: t.data.copy() for n, t in target.items()}
        ema_update(target, online, 1.0)
        for n, t in target.items():
            assert np.array_equal(t.data, before[n])

    def test_momentum_zero_copies_online(self):
        online, target = self._stores()
        ema_update(target, online, 0.0)
        for n, t in target.items():
            assert np.array_equal(t.data, online[n].data)

    def test_paper_momentum_value(self):
        online, target = self._stores()
        for _, t in target.items():
            t.data[...] = 1.0
        for _, t in online.items():
            t.data[...] = 0.0
        ema_update(target, online, 0.996)
        for _, t in target.items():
            assert np.allclose(t.data, 0.996)

    def test_exact_formula(self):
        online, target = self._stores()
        before = {n: t.data.copy() for n, t in target.items()}
        ema_update(target, online, 0.75)
        for n, t in target.items():
            expected = (before[n] * np.float32(0.75) + np.float32(0.25) * online[n].data)
            assert np.array_equal(t.data, expected.astype(np.float32))

    def test_repeated_m_zero_tracks_online_exactly(self):
        online, target = self._stores()
        for _ in range(3):
            ema_update(target, online, 0.0)
        for n, t in target.items():
            assert np.array_equal(t.data, online[n].data)

    def test_invalid_momentum(self):
        online, target = self._stores()
        with pytest.raises(NumericsError):
            ema_update(target, online, 1.5)

    def test_target_never_accumulates_gradient(self, cloud):
        online, target = self._stores()
        z = encode_groups(target, group_features(cloud, 4, 8))
        assert not z.requires_grad
        loss = tsum(z * 2.0)
        assert not loss.requires_grad
        for _, t in target.items():
            assert t.grad is None


class TestMomentumSchedule:
    def test_start_value(self):
        assert momentum_schedule(0, 1000, 0.996) == pytest.approx(0.996)

    def test_end_value(self):
        assert momentum_schedule(1000, 1000, 0.996) == pytest.approx(1.0)

    def test_midpoint(self):
        assert momentum_schedule(500, 1000, 0.996) == pytest.approx(0.998)

    def test_monotone(self):
        values = [momentum_schedule(s, 100, 0.996) for s in range(101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(NumericsError):
            momentum_schedule(5, 4, 0.996)
