"""The benchmark's own checks fire on wrong outputs, and its tools are exact.

Run with: python3 -m pytest -q perfbench/tests
"""

import copy
import json

import numpy as np
import pytest

import latentdyn.dynamics as ldynamics
import latentdyn.encoder as lencoder
from latentdyn.checks import CheckResult
from latentdyn.data import PointCloud, SceneConfig, generate_trajectory
from latentdyn.encoder import encode_groups, group_features, pool
from latentdyn.evaluate import pca_embed
from latentdyn.numerics import ParamStore, Tensor, grad_check, mul, tsum
from latentdyn.trainer import TrainConfig, init_train_state, load_checkpoint, train

from perfbench import reference, spans, stages, verify


def tiny_config(**overrides):
    base = dict(k=2, epochs=2, batch_size=4, pairs_per_traj=2, feat_dim=12, tokens=4,
                group_size=8, action_dim=5, idm_hidden=10, cond_width=8, ffn_mult=2,
                diffusion_steps=10, seed=21, checkpoint_every=1)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_trajs(n=4, length=6, n_points=48):
    scene = SceneConfig(n_points=n_points, length=length)
    return [generate_trajectory(scene, 100 + i) for i in range(n)]


# -- desk-train ---------------------------------------------------------------------

class TestDeskTrainChecks:
    def test_directional_check_passes_and_fires_on_sign_flip(self):
        state = init_train_state(tiny_config())
        trajs = tiny_trajs()
        clouds_t = [t.frames[0] for t in trajs]
        clouds_tk = [t.frames[2] for t in trajs]
        analytic, central = stages.directional_pair(state, clouds_t, clouds_tk,
                                                    np.random.default_rng(3))
        assert verify.directional_derivative(analytic, central) == []
        assert verify.directional_derivative(-analytic, central) != []

    def test_training_records_from_a_real_run(self, tmp_path):
        cfg = tiny_config(epochs=3)
        trajs = tiny_trajs()
        train(cfg, trajs, tmp_path)
        with open(tmp_path / "metrics.jsonl", encoding="utf-8") as f:
            records = [json.loads(line) for line in f][1:]
        pairs = len(trajs) * cfg.pairs_per_traj
        assert verify.training_records(records, 3, pairs, cfg.batch_size) == []
        assert verify.training_records(records[:-1], 3, pairs, cfg.batch_size) != []
        bad = copy.deepcopy(records)
        bad[1]["var"] = -0.5
        assert any("var" in p for p in verify.training_records(bad, 3, pairs, cfg.batch_size))
        bad = copy.deepcopy(records)
        bad[0]["total"] = float("nan")
        assert any("finite" in p
                   for p in verify.training_records(bad, 3, pairs, cfg.batch_size))


# -- gradcheck --------------------------------------------------------------------------

class TestGradcheckChecks:
    def test_failing_check_counts(self):
        results = [CheckResult("add", 1e-9, 1e-4), CheckResult("gelu", 2e-3, 1e-4),
                   CheckResult("nan", float("nan"), 1e-4)]
        assert len(verify.gradcheck_failures(results)) == 2
        assert verify.gradcheck_failures(results[:1]) == []

    @staticmethod
    def _store(shape=(3, 4)):
        params = ParamStore()
        params.add("a", Tensor(np.random.default_rng(0).standard_normal(shape),
                               requires_grad=True))
        return params

    def test_sampler_matches_grad_check_on_small_stores(self):
        r = np.random.default_rng(1).standard_normal((3, 4))

        def closure(p):
            return tsum(mul(mul(p["a"], p["a"]), r))

        sampled = stages.SampledGradCheck(seed=5, budget=32)(closure, self._store())
        assert sampled == grad_check(closure, self._store())

    def test_sampler_fires_on_a_wrong_gradient(self):
        # d/da sum(a * a) is 2a; treating the second factor as a constant
        # gives the backward pass a instead, a relative error of 1/3.
        def closure(p):
            return tsum(mul(p["a"], Tensor(p["a"].data.copy())))

        worst = stages.SampledGradCheck(seed=5, budget=8)(closure, self._store((6, 7)))
        assert worst > 0.3
        assert verify.gradcheck_failures([CheckResult("wrong", worst, 1e-4)]) != []

    def test_sampler_checks_at_most_budget_coordinates(self):
        calls = []

        def closure(p):
            calls.append(1)
            return tsum(mul(p["a"], p["a"]))

        stages.SampledGradCheck(seed=2, budget=5)(closure, self._store((10, 10)))
        assert len(calls) == 1 + 2 * 5


# -- data-probe ----------------------------------------------------------------------------

class TestDataProbeChecks:
    def test_round_trip_fires_on_a_perturbed_point(self):
        trajs = tiny_trajs(n=2)
        assert verify.dataset_roundtrip(trajs, copy.deepcopy(trajs)) == []
        read = copy.deepcopy(trajs)
        read[1].frames[3].points[5, 0] += np.float32(1e-6)
        assert verify.dataset_roundtrip(trajs, read) != []

    def test_actuated_box_fires_on_a_moved_point(self):
        trajs = tiny_trajs(n=3, length=12)
        assert verify.actuated_box(trajs) == []
        bad = copy.deepcopy(trajs)
        bad[2].frames[7].points[0, 1] += np.float32(0.1)  # more than any box size
        assert verify.actuated_box(bad) != []
        bad = copy.deepcopy(trajs)
        bad[0].actions[0, 0] += np.float32(0.01)  # later frames no longer fit
        assert verify.actuated_box(bad) != []

    def test_probe_report_sample_count_and_reference(self):
        report = {"n_samples": 8 * 36, "r2": 0.1, "r2_shuffled": 0.0, "min_std": 0.05,
                  "median_std": 0.1}
        assert verify.probe_report(report, 8, 40, 4, reference=(0.05, 0.1)) == []
        assert verify.probe_report({**report, "n_samples": 8 * 40}, 8, 40, 4) != []
        assert verify.probe_report(report, 8, 40, 4, reference=(0.05, 0.11)) != []

    def test_embedding_fires_on_shuffled_rows(self):
        feats = np.random.default_rng(4).standard_normal((60, 6)) * np.arange(6, 0, -1)
        coords, _ = pca_embed(feats.astype(np.float32), 2)
        assert verify.pca_embedding(coords, feats, csv_rows=60) == []
        shuffled = coords[np.random.default_rng(5).permutation(60)]
        assert verify.pca_embedding(shuffled, feats) != []
        assert verify.pca_embedding(coords[:, ::-1], feats) != []
        assert verify.pca_embedding(coords, feats, csv_rows=59) != []


# -- the reference encoder ---------------------------------------------------------------------

class TestReferenceEncoder:
    def test_tokens_match_the_tokenizer(self):
        pts = tiny_trajs(n=1)[0].frames[0].points
        np.testing.assert_array_equal(reference.tokens(pts, 4, 8),
                                      group_features(PointCloud(pts), 4, 8))

    def test_pooled_features_match_the_encoder(self, tmp_path):
        cfg = tiny_config()
        trajs = tiny_trajs()
        final = train(cfg, trajs, tmp_path)
        clouds = [f.points for t in trajs for f in t.frames]
        ours = reference.encoder_features(final, clouds, cfg.tokens, cfg.group_size)
        state = load_checkpoint(final)
        feats = np.stack([group_features(PointCloud(c), cfg.tokens, cfg.group_size)
                          for c in clouds])
        for key, store in (("enc", state.models.online), ("tgt", state.models.target)):
            program = pool(encode_groups(store, feats)).data
            np.testing.assert_allclose(ours[key], program, rtol=1e-4, atol=1e-5)

    def test_erf_accuracy(self):
        from scipy.special import erf

        x = np.linspace(-6, 6, 2001)
        assert np.abs(reference._erf(x) - erf(x)).max() < 1.5e-7


# -- spans -------------------------------------------------------------------------------------

class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        totals = spans.span_totals(
            ["outer", "inner"],
            name_id=np.array([0, 1, 1, 0]), parent=np.array([-1, 0, 0, -1]),
            start=np.array([0.0, 0.1, 0.5, 2.0]), end=np.array([1.0, 0.3, 0.6, 2.5]))
        assert totals["outer"]["calls"] == 2
        assert totals["outer"]["ms"] == pytest.approx(1500.0)
        assert totals["outer"]["self_ms"] == pytest.approx(1200.0)
        assert totals["inner"]["self_ms"] == pytest.approx(300.0)

    def test_rebind_reaches_importers_and_restores(self):
        original = lencoder.group_features
        assert ldynamics.group_features is original
        patches = spans.Patches()
        recorder = spans.SpanRecorder()
        recorder.install(patches)
        try:
            assert lencoder.group_features is not original
            assert ldynamics.group_features is lencoder.group_features
            lencoder.group_features(tiny_trajs(n=1)[0].frames[0], 4, 8)
        finally:
            patches.restore()
        assert lencoder.group_features is original
        assert ldynamics.group_features is original
        totals = recorder.totals()
        assert totals["encoder.group_features"]["calls"] == 1
        assert totals["data.fps_indices"]["calls"] == 1
        metrics = spans.layer_metrics(totals)
        assert metrics["encoder.group_features.calls"] == (1, "count")
        assert metrics["op.gelu.calls"] == (0, "count")
