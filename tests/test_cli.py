"""CLI subcommands, config precedence, exit codes."""

import dataclasses
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from latentdyn.cli import ConfigError, EXIT_CONFIG, EXIT_IO, EXIT_OK, main, parse_config
from latentdyn.data import (
    DatasetFormatError,
    SceneConfig,
    generate_trajectory,
    read_dataset,
    write_dataset,
)
from latentdyn.data.io import config_from_dict
from latentdyn.trainer import TrainConfig, init_train_state, save_checkpoint


TINY = {
    "scene.n_points": 96, "scene.length": 8, "scene.n_trajectories": 4,
    "train.k": 2, "train.epochs": 1, "train.batch_size": 4, "train.pairs_per_traj": 2,
    "train.feat_dim": 12, "train.tokens": 4, "train.group_size": 8,
    "train.action_dim": 5, "train.idm_hidden": 10, "train.cond_width": 8,
    "train.ffn_mult": 2, "train.diffusion_steps": 10, "train.seed": 6,
}


# Config file entries that are refused, each with the key its error names.
REFUSED_ENTRIES = [
    {"train.batch_size": 1},
    {"train.checkpoint_every": 0},
    {"train.lambda_var": -1},
    {"train.lambda_var": float("nan")},
    {"train.ema_m0": 2},
    {"train.beta1": 1},
    {"train.lr": -1},
    {"train.lr": float("nan")},
    {"scene.workspace_min": [-1]},
    {"scene.workspace_min": ["a", 0, 0]},
    {"scene.workspace_min": [True, 0, 0]},
    {"scene.movable_size_range": [-0.5, -0.4]},
    {"scene.depth_noise_std": -1},
    {"scene.n_trajectories": 0},
]


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    return path


class TestParseConfig:
    def test_empty_file_gives_paper_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.train.k == 4
        assert cfg.train.lr == 1e-4
        assert cfg.train.action_dim == 16
        assert cfg.train.epochs == 300

    def test_no_file_gives_defaults(self):
        cfg = parse_config(None)
        assert cfg.scene.n_points == 512

    def test_file_overrides_defaults(self, tiny_config_path):
        cfg = parse_config(tiny_config_path)
        assert cfg.train.k == 2
        assert cfg.scene.n_points == 96

    def test_flag_overrides_file(self, tiny_config_path):
        cfg = parse_config(tiny_config_path, {"train.k": 16})
        assert cfg.train.k == 16

    def test_block_count_settable_and_validated(self):
        assert parse_config(None).train.n_blocks == 4
        assert parse_config(None, {"train.n_blocks": 2}).train.n_blocks == 2
        with pytest.raises(ConfigError):
            parse_config(None, {"train.n_blocks": 0})

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"leanring_rate": 1e-4}))
        with pytest.raises(ConfigError, match="leanring_rate"):
            parse_config(path)

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train.k": "four"}))
        with pytest.raises(ConfigError, match="train.k"):
            parse_config(path)

    def test_bool_strictness(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train.no_history": 1}))
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("entries", REFUSED_ENTRIES)
    def test_invalid_values_rejected(self, tmp_path, entries):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(ConfigError, match=re.escape(next(iter(entries)))):
            parse_config(path)

    @pytest.mark.parametrize("cfg", [SceneConfig(), TrainConfig(), TrainConfig.desk_preset()])
    def test_config_round_trips_through_json(self, cfg):
        entries = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert config_from_dict(type(cfg), entries, "", ValueError) == cfg

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.json")


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        for argv in (["gen-data", "--help"], ["pretrain", "--help"], ["probe", "--help"],
                     ["embed", "--help"], ["gradcheck", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_invalid_flag_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--not-a-flag"])
        assert exc.value.code != 0

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"leanring_rate": 1.0}))
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d.afro")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["gen-data", "pretrain"])
    @pytest.mark.parametrize("entries", REFUSED_ENTRIES)
    def test_refused_value_exit_2_before_any_work(self, tmp_path, capsys, command, entries):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, **entries}))
        out = tmp_path / "out"
        data = ["--data", str(tmp_path / "missing.afro")] if command == "pretrain" else []
        assert main([command, "--config", str(path), "--out", str(out), *data]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--stride", "0"], ["--skip-frames", "-1"],
                                       ["--skip-frames", "5"]])
    def test_gen_data_refused_skip_stride_exit_2(self, tmp_path, capsys, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "scene.length": 6}))
        out = tmp_path / "d.afro"
        assert main(["gen-data", "--config", str(path), "--out", str(out), *flags]) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_data_exit_4(self, tmp_path):
        code = main(["pretrain", "--data", str(tmp_path / "missing.afro"),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_IO

    def test_corrupt_dataset_header_exit_4(self, tmp_path):
        ckpt = tmp_path / "init.afck"
        save_checkpoint(init_train_state(TrainConfig()), ckpt)
        bad = tmp_path / "bad.afro"
        bad.write_bytes(b"AFRO" + struct.pack("<II", 1, 1)
                        + struct.pack("<IIIQ", 0xFFFFFFFF, 0xFFFFFFFF, 2, 0) + bytes(64))
        code = main(["probe", "--ckpt", str(ckpt), "--data", str(bad),
                     "--report", str(tmp_path / "r.json")])
        assert code == EXIT_IO


def _probe_exit(tmp_path, ckpt, data) -> int:
    return main(["probe", "--ckpt", str(ckpt), "--data", str(data),
                 "--report", str(tmp_path / "r.json")])


class TestCorruptInputsExit4:
    """Undecodable checkpoint fields and dataset sidecars are format errors."""

    @pytest.fixture
    def inputs(self, tmp_path):
        cfg = parse_config(None, TINY)
        ckpt = tmp_path / "init.afck"
        save_checkpoint(init_train_state(cfg.train), ckpt)
        data = tmp_path / "d.afro"
        trajs = [generate_trajectory(cfg.scene, i) for i in range(2)]
        write_dataset(trajs, data, config=cfg.scene, seed=0)
        echo = json.dumps(dataclasses.asdict(cfg.train), sort_keys=True).encode("utf-8")
        return ckpt, data, echo

    @pytest.mark.parametrize("new_echo", [
        "utf8", b"{not json", b"[1, 2]", {"feat_dim": "x"}, {"feat_dim": 0}, {"n_blocks": 0},
        {"lambda_var": -1}, {"lr": float("nan")}, {"leanring_rate": 1e-4}])
    def test_bad_config_echo(self, inputs, tmp_path, new_echo):
        ckpt, data, echo = inputs
        buf = ckpt.read_bytes()
        assert buf.endswith(struct.pack("<I", len(echo)) + echo)
        if new_echo == "utf8":
            new_echo = echo + b"\xff" * 5
        elif isinstance(new_echo, dict):
            new_echo = json.dumps({**json.loads(echo), **new_echo}).encode("utf-8")
        ckpt.write_bytes(buf[:-len(echo) - 4] + struct.pack("<I", len(new_echo)) + new_echo)
        assert _probe_exit(tmp_path, ckpt, data) == EXIT_IO

    def test_non_utf8_tensor_name(self, inputs, tmp_path):
        ckpt, data, _ = inputs
        buf = bytearray(ckpt.read_bytes())
        buf[22] = 0xFF  # first byte of the first tensor's name
        ckpt.write_bytes(bytes(buf))
        assert _probe_exit(tmp_path, ckpt, data) == EXIT_IO

    @pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]", "\xff", '{"descriptors": 5}',
                                         '{"descriptors": [5]}'])
    def test_bad_sidecar(self, inputs, tmp_path, sidecar):
        ckpt, data, _ = inputs
        assert _probe_exit(tmp_path, ckpt, data) == EXIT_OK
        Path(f"{data}.meta.json").write_bytes(sidecar.encode("latin-1"))
        with pytest.raises(DatasetFormatError):
            read_dataset(data)
        assert _probe_exit(tmp_path, ckpt, data) == EXIT_IO


class TestPipeline:
    def test_full_pipeline(self, tiny_config_path, tmp_path, capsys):
        data = tmp_path / "tiny.afro"
        assert main(["gen-data", "--config", str(tiny_config_path), "--out", str(data),
                     "--seed", "9"]) == EXIT_OK
        trajs = read_dataset(data)
        assert len(trajs) == 4
        meta = json.loads((tmp_path / "tiny.afro.meta.json").read_text())
        assert meta["seed"] == 9
        assert meta["config"]["n_points"] == 96

        run = tmp_path / "run"
        assert main(["pretrain", "--data", str(data), "--config", str(tiny_config_path),
                     "--out", str(run)]) == EXIT_OK
        assert (run / "final.afck").exists()

        report = tmp_path / "report.json"
        assert main(["probe", "--ckpt", str(run / "final.afck"), "--data", str(data),
                     "--report", str(report)]) == EXIT_OK
        rep = json.loads(report.read_text())
        assert "r2" in rep and "min_std" in rep

        embed = tmp_path / "embed.csv"
        assert main(["embed", "--ckpt", str(run / "final.afck"), "--data", str(data),
                     "--out", str(embed)]) == EXIT_OK
        assert embed.read_text().startswith("index,x,y,traj_id,frame")

    def test_config_echoed_to_stdout(self, tiny_config_path, tmp_path, capsys):
        data = tmp_path / "t.afro"
        main(["gen-data", "--config", str(tiny_config_path), "--out", str(data)])
        echoed = json.loads(capsys.readouterr().out.splitlines()[0])
        assert echoed["scene.n_points"] == 96
        assert echoed["train.lr"] == 1e-4

    def test_ablation_flags_reach_config(self, tiny_config_path, tmp_path, capsys):
        data = tmp_path / "t.afro"
        main(["gen-data", "--config", str(tiny_config_path), "--out", str(data)])
        run = tmp_path / "ablate"
        code = main(["pretrain", "--data", str(data), "--config", str(tiny_config_path),
                     "--out", str(run), "--no-history", "--idm-input", "concat",
                     "--objective", "mse", "--interval", "3", "--d-act", "7"])
        assert code == EXIT_OK
        from latentdyn.trainer import load_checkpoint

        state = load_checkpoint(run / "final.afck")
        assert state.config.no_history is True
        assert state.config.idm_input == "concat"
        assert state.config.objective == "mse"
        assert state.config.k == 3
        assert state.config.action_dim == 7

    def test_checkpoint_config_reproduces_run(self, tiny_config_path, tmp_path, capsys):
        # feeding the echoed config back verbatim yields a bit-identical run
        data = tmp_path / "t.afro"
        main(["gen-data", "--config", str(tiny_config_path), "--out", str(data)])
        run1 = tmp_path / "r1"
        main(["pretrain", "--data", str(data), "--config", str(tiny_config_path),
              "--out", str(run1)])
        from latentdyn.trainer import load_checkpoint

        state = load_checkpoint(run1 / "final.afck")
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps({f"train.{k}": v
                                    for k, v in state.config.__dict__.items()}))
        run2 = tmp_path / "r2"
        main(["pretrain", "--data", str(data), "--config", str(echo), "--out", str(run2)])
        assert (run1 / "final.afck").read_bytes() == (run2 / "final.afck").read_bytes()

    def test_pretrain_with_200_diffusion_steps(self, tmp_path, capsys):
        # the cosine schedule reaches ABAR_FLOOR before its last step here
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "train.diffusion_steps": 200}))
        data = tmp_path / "t.afro"
        assert main(["gen-data", "--config", str(path), "--out", str(data)]) == EXIT_OK
        assert main(["pretrain", "--data", str(data), "--config", str(path),
                     "--out", str(tmp_path / "run")]) == EXIT_OK

    def test_gen_data_skip_stride(self, tiny_config_path, tmp_path, capsys):
        data = tmp_path / "s.afro"
        assert main(["gen-data", "--config", str(tiny_config_path), "--out", str(data),
                     "--skip-frames", "2", "--stride", "2"]) == EXIT_OK
        trajs = read_dataset(data)
        assert all(t.length == 3 for t in trajs)  # frames 2, 4, 6 of 8
