"""Training loop determinism, optimizer/EMA wiring, checkpoint format."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from latentdyn.data import DataError, SceneConfig, generate_trajectory, trajectory_seed
from latentdyn.dynamics import ModelConfig
from latentdyn.encoder import momentum_schedule
from latentdyn.numerics import NumericsError
from latentdyn import trainer
from latentdyn.trainer import (
    CheckpointFormatError,
    TrainConfig,
    _epoch_batches,
    init_train_state,
    load_checkpoint,
    save_checkpoint,
    steps_per_epoch,
    train,
    training_step,
)


def tiny_config(**overrides):
    base = dict(k=2, epochs=2, batch_size=4, pairs_per_traj=2, feat_dim=12, tokens=4,
                group_size=8, action_dim=5, idm_hidden=10, cond_width=8, ffn_mult=2,
                diffusion_steps=10, seed=21, checkpoint_every=1)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    cfg = SceneConfig(n_points=96, length=8, n_trajectories=6)
    return [generate_trajectory(cfg, trajectory_seed(33, i)) for i in range(6)]


def _flat(store):
    return np.concatenate([t.data.reshape(-1) for _, t in store.items()])


def _batch_feats(state, dataset, cfg):
    batch = _epoch_batches(state, dataset)[0]
    return tuple(state.models.tokenize([dataset[i].frames[t + offset] for i, t in batch])
                 for offset in (0, cfg.k))


class TestTrainingStep:
    def test_bitwise_deterministic(self, dataset):
        cfg = tiny_config()

        def one_step():
            state = init_train_state(cfg, total_steps=10)
            feats_t, feats_tk = _batch_feats(state, dataset, cfg)
            rec = training_step(state, feats_t, feats_tk)
            return rec, _flat(state.trainable)

        rec1, p1 = one_step()
        rec2, p2 = one_step()
        assert np.array_equal(p1, p2)
        assert rec1.total == rec2.total

    def test_loss_finite_on_first_step(self, dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, total_steps=10)
        feats_t, feats_tk = _batch_feats(state, dataset, cfg)
        rec = training_step(state, feats_t, feats_tk)
        assert np.isfinite(rec.total)
        assert rec.step == 1

    def test_ema_follows_exact_formula(self, dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, total_steps=10)
        feats_t, feats_tk = _batch_feats(state, dataset, cfg)
        target_before = {n: t.data.copy() for n, t in state.models.target.items()}
        m = momentum_schedule(0, 10, cfg.ema_m0)
        training_step(state, feats_t, feats_tk)
        for name, t in state.models.target.items():
            online_after = state.models.online[name].data
            expected = (np.float32(m) * target_before[name]
                        + np.float32(1.0 - m) * online_after)
            assert np.allclose(t.data, expected, atol=1e-7), name

    def test_no_optimizer_state_for_target(self, dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, total_steps=10)
        assert all(not name.startswith("tgt.") for name in state.opt.m)
        assert len(state.opt.m) == len(state.trainable)

    def test_overfit_single_batch_decreases_loss(self, dataset):
        cfg = tiny_config(lr=1e-3)
        state = init_train_state(cfg, total_steps=50)
        feats_t, feats_tk = _batch_feats(state, dataset, cfg)
        first = training_step(state, feats_t, feats_tk).total
        last = first
        for _ in range(49):
            last = training_step(state, feats_t, feats_tk).total
        assert last < first

    def test_batch_too_small_rejected(self, dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, total_steps=10)
        frames = dataset[0].frames
        with pytest.raises(DataError):
            training_step(state, state.models.tokenize([frames[0]]),
                          state.models.tokenize([frames[2]]))


class TestTrainLoop:
    def test_writes_final_checkpoint_and_metrics(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        assert final.exists()
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().strip().split("\n")
        spe = steps_per_epoch(cfg, len(dataset))
        assert len(lines) == 1 * spe + 1  # header + one line per step
        header = json.loads(lines[0])
        assert header["config"]["k"] == cfg.k
        record = json.loads(lines[1])
        assert set(record) == {"epoch", "step", "inv", "var", "cov", "total_future",
                               "total_history", "total", "ema_m", "wall_ms"}

    def test_identical_runs_bit_identical(self, dataset, tmp_path):
        cfg = tiny_config()
        a = train(cfg, dataset, tmp_path / "a")
        b = train(cfg, dataset, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_resume_matches_uninterrupted(self, dataset, tmp_path):
        cfg = tiny_config(epochs=3, checkpoint_every=1)
        full = train(cfg, dataset, tmp_path / "full")
        resumed = train(cfg, dataset, tmp_path / "resumed",
                        resume_from=tmp_path / "full" / "epoch_0002.afck")
        assert full.read_bytes() == resumed.read_bytes()

    def test_resume_into_same_directory_cuts_metrics_to_checkpoint(self, dataset, tmp_path):
        cfg = tiny_config(epochs=3, checkpoint_every=1)
        run = tmp_path / "run"
        train(cfg, dataset, run)
        before = (run / "metrics.jsonl").read_text().splitlines()
        train(cfg, dataset, run, resume_from=run / "epoch_0001.afck")
        after = (run / "metrics.jsonl").read_text().splitlines()
        assert after[0] == before[0]
        records = [json.loads(line) for line in after[1:]]
        assert [r["step"] for r in records] == list(
            range(1, 3 * steps_per_epoch(cfg, len(dataset)) + 1))
        for old, new in zip(before[1:], records):
            old = json.loads(old)
            assert {k: v for k, v in old.items() if k != "wall_ms"} == \
                {k: v for k, v in new.items() if k != "wall_ms"}

    def test_numerics_error_writes_diagnostics(self, dataset, tmp_path, monkeypatch):
        cfg = tiny_config()
        batches = _epoch_batches(init_train_state(cfg), dataset)
        original = trainer.training_step
        calls = []

        def poisoned(state, feats_t, feats_tk, epoch=0):
            calls.append(epoch)
            if len(calls) == 2:  # the first tokenizer bias turns NaN before step 2
                state.models.online["tok.fc1.b"].data[0] = np.nan
            return original(state, feats_t, feats_tk, epoch=epoch)

        monkeypatch.setattr(trainer, "training_step", poisoned)
        with pytest.raises(NumericsError, match="produced by add"):
            train(cfg, dataset, tmp_path)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert "produced by add" in diag["error"]
        assert (diag["epoch"], diag["step"]) == (0, 2)
        assert diag["batch"] == [list(pair) for pair in batches[1]]
        assert not (tmp_path / "final.afck").exists()

    def test_resume_config_mismatch_rejected(self, dataset, tmp_path):
        cfg = tiny_config(epochs=2, checkpoint_every=1)
        train(cfg, dataset, tmp_path / "r")
        other = tiny_config(epochs=2, checkpoint_every=1, lr=5e-4)
        with pytest.raises(DataError, match="config"):
            train(other, dataset, tmp_path / "r2",
                  resume_from=tmp_path / "r" / "epoch_0001.afck")

    def test_short_trajectories_rejected(self, tmp_path):
        cfg = tiny_config(k=7)
        scene = SceneConfig(n_points=96, length=6, n_trajectories=2)
        short = [generate_trajectory(scene, i) for i in range(2)]
        with pytest.raises(DataError, match="length"):
            train(cfg, short, tmp_path / "x")

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(DataError):
            train(tiny_config(), [], tmp_path / "x")

    def test_mse_objective_runs_to_completion(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1, objective="mse")
        final = train(cfg, dataset, tmp_path / "mse")
        assert final.exists()


class TestCheckpointFormat:
    def test_save_load_save_byte_identical(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        state = load_checkpoint(final)
        save_checkpoint(state, tmp_path / "resaved.afck")
        assert final.read_bytes() == (tmp_path / "resaved.afck").read_bytes()

    def test_failed_save_leaves_previous_file(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        before = final.read_bytes()
        names = sorted(p.name for p in final.parent.iterdir())
        state = load_checkpoint(final)

        class FailingStream:
            def state(self):
                raise OSError("disk full")

        state.step += 1  # a different header, so a partial write would show
        state.shuffle_stream = FailingStream()  # raises after header and tensors
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, final)
        assert final.read_bytes() == before
        assert sorted(p.name for p in final.parent.iterdir()) == names

    def test_tensor_names_and_step_preserved(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        state = load_checkpoint(final)
        assert state.step == steps_per_epoch(cfg, len(dataset))
        assert dataclasses.asdict(state.config) == dataclasses.asdict(cfg)
        names = state.trainable.names()
        assert names[0].startswith("enc.")
        assert any(n.startswith("idm.") for n in names)
        assert any(n.startswith("fdm.") for n in names)

    def test_config_without_n_blocks_loads_with_default(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        raw = final.read_bytes()
        config_json = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")
        tail = struct.pack("<I", len(config_json)) + config_json
        assert raw.endswith(tail)
        older = dataclasses.asdict(cfg)
        del older["n_blocks"]
        older_json = json.dumps(older, sort_keys=True).encode("utf-8")
        legacy = tmp_path / "legacy.afck"
        legacy.write_bytes(raw[:-len(tail)] + struct.pack("<I", len(older_json)) + older_json)
        state = load_checkpoint(legacy)
        assert state.config.n_blocks == ModelConfig().n_blocks
        assert np.array_equal(_flat(state.trainable), _flat(load_checkpoint(final).trainable))

    @staticmethod
    def _with_first_dims(raw: bytes, dims: tuple[int, ...]) -> bytes:
        """raw with the first tensor's dims replaced (same ndim)."""
        (name_len,) = struct.unpack_from("<H", raw, 20)
        at = 20 + 2 + name_len + 4
        return raw[:at] + struct.pack(f"<{len(dims)}Q", *dims) + raw[at + 8 * len(dims):]

    def test_huge_dims_rejected(self, tmp_path):
        final = tmp_path / "init.afck"
        save_checkpoint(init_train_state(tiny_config()), final)
        bad = tmp_path / "huge.afck"
        # 2^40 x 2^40 wraps to 0 in int64
        bad.write_bytes(self._with_first_dims(final.read_bytes(), (2 ** 40, 2 ** 40)))
        with pytest.raises(CheckpointFormatError, match="enc.tok.fc1.w data"):
            load_checkpoint(bad)

    def test_swapped_dims_rejected(self, tmp_path):
        state = init_train_state(tiny_config())
        final = tmp_path / "init.afck"
        save_checkpoint(state, final)
        rows, cols = state.trainable["enc.tok.fc1.w"].shape
        bad = tmp_path / "swapped.afck"
        bad.write_bytes(self._with_first_dims(final.read_bytes(), (cols, rows)))
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(bad)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.afck"
        p.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(p)

    def test_truncation_rejected(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        raw = final.read_bytes()
        trunc = tmp_path / "trunc.afck"
        trunc.write_bytes(raw[:200])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(trunc)

    def test_version_rejected(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        raw = bytearray(final.read_bytes())
        raw[4:8] = (9).to_bytes(4, "little")
        bad = tmp_path / "v9.afck"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(bad)

    def test_rng_state_restored(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        final = train(cfg, dataset, tmp_path / "run")
        state = load_checkpoint(final)
        assert state.noise_stream.counter > 0
        again = load_checkpoint(final)
        assert state.noise_stream.state() == again.noise_stream.state()
        assert state.shuffle_stream.state() == again.shuffle_stream.state()


class TestConfig:
    def test_desk_preset(self):
        cfg = TrainConfig.desk_preset()
        assert cfg.epochs == 50
        assert cfg.batch_size == 32
        assert cfg.k == 4 and cfg.lr == 1e-4 and cfg.action_dim == 16

    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 300
        assert cfg.batch_size == 128
        assert (cfg.lambda_inv, cfg.lambda_var, cfg.lambda_cov) == (25.0, 25.0, 1.0)
        assert cfg.var_threshold == 1.0
        assert cfg.ema_m0 == 0.996

    def test_validation(self):
        with pytest.raises(DataError):
            tiny_config(batch_size=1)
        with pytest.raises(DataError):
            tiny_config(objective="l2")
        with pytest.raises(DataError):
            tiny_config(k=0)
        with pytest.raises(DataError):
            TrainConfig(lambda_inv=-1)

    def test_steps_per_epoch_drops_singleton_remainder(self):
        cfg = tiny_config(batch_size=4, pairs_per_traj=1)
        assert steps_per_epoch(cfg, 9) == 2  # 9 samples -> 4+4, remainder 1 dropped
        assert steps_per_epoch(cfg, 10) == 3  # remainder 2 kept
