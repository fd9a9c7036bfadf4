"""Each frame is tokenized once: training, the probe and the embedding group
every frame of a dataset exactly once, and the full-loss gradient checks
group their fixed clouds a fixed number of times."""

import sys

import pytest

import latentdyn.checks as checks
import latentdyn.encoder as encoder
from latentdyn.data import SceneConfig, generate_trajectory
from latentdyn.evaluate import export_embedding, run_probe
from latentdyn.trainer import TrainConfig, init_train_state, train


@pytest.fixture
def grouping_calls(monkeypatch):
    """A list that grows by one per group_features call, from any latentdyn
    module that holds the name."""
    calls = []
    original = encoder.group_features

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("latentdyn") and getattr(module, "group_features", None) is original:
            monkeypatch.setattr(module, "group_features", counted)
    return calls


@pytest.fixture(scope="module")
def trajs():
    # unequal lengths: per-trajectory token arrays need not share a shape
    return [generate_trajectory(SceneConfig(n_points=64, length=5 + i), 40 + i)
            for i in range(3)]


def tiny_config(**overrides):
    base = dict(k=2, epochs=3, batch_size=4, pairs_per_traj=2, feat_dim=8, tokens=4,
                group_size=8, action_dim=3, idm_hidden=8, cond_width=4, ffn_mult=2,
                diffusion_steps=10, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_tokenizes_each_frame_once(grouping_calls, trajs, tmp_path):
    train(tiny_config(), trajs, tmp_path)
    assert len(grouping_calls) == sum(t.length for t in trajs)


def test_probe_tokenizes_each_frame_once(grouping_calls, trajs):
    state = init_train_state(tiny_config())
    run_probe(state, trajs)
    assert len(grouping_calls) == sum(t.length for t in trajs)


def test_embedding_tokenizes_each_frame_once(grouping_calls, trajs, tmp_path):
    state = init_train_state(tiny_config())
    export_embedding(state, trajs, tmp_path / "embedding.csv")
    assert len(grouping_calls) == sum(t.length for t in trajs)


@pytest.mark.parametrize("closure_calls", [1, 3])
def test_full_loss_checks_tokenize_a_fixed_count(grouping_calls, monkeypatch, closure_calls):
    def stub_grad_check(closure, params):
        for _ in range(closure_calls):
            closure(params)
        return 0.0

    monkeypatch.setattr(checks, "grad_check", stub_grad_check)
    results = checks._full_loss_results(0)
    # two check points, each grouping its 2 + 2 fixed clouds once
    assert len(results) == 2
    assert len(grouping_calls) == 2 * 4
