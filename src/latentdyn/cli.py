"""Command-line entry points: gen-data, pretrain, probe, embed, gradcheck.

Configuration comes from a JSON file with flat dotted keys
("scene.n_points", "train.lr", ...), overridable by flags. The train.* keys
are the fields of TrainConfig, which include every model hyperparameter
(train.feat_dim, train.n_blocks, ...). Every config is checked where it is
built, before any work starts: an unknown key, a value of the wrong type or
an out-of-range value from a file or a flag exits 2, and the same in a
checkpoint's config echo exits 4.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .checks import run_gradcheck_suite
from .data.geometry import DataError, kept_frames
from .data.io import config_from_dict, read_dataset, write_dataset
from .data.synthetic import SceneConfig, generate_trajectory, subsample_trajectory, trajectory_seed
from .evaluate import export_embedding, run_probe, write_probe_report
from .numerics import NumericsError
from .trainer import TrainConfig, load_checkpoint, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Unreadable config file, unknown key, or a value of the wrong type or range."""


@dataclass
class CliConfig:
    scene: SceneConfig
    train: TrainConfig

    def flat(self) -> dict:
        out = {}
        for section, obj in (("scene", self.scene), ("train", self.train)):
            for key, value in dataclasses.asdict(obj).items():
                out[f"{section}.{key}"] = value
        return out


def parse_config(path=None, overrides: dict | None = None) -> CliConfig:
    """defaults -> file -> flag overrides, strict about keys, types and values."""
    entries: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read()
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        try:
            entries = json.loads(raw) if raw.strip() else {}
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from err
        if not isinstance(entries, dict):
            raise ConfigError("config file must hold a JSON object")
    if overrides:
        entries.update(overrides)

    sections = {"scene": {}, "train": {}}
    for key, value in entries.items():
        section, _, name = key.partition(".")
        if section not in sections:
            raise ConfigError(f"unknown config key {key!r}")
        sections[section][name] = value
    return CliConfig(
        scene=config_from_dict(SceneConfig, sections["scene"], "scene.", ConfigError),
        train=config_from_dict(TrainConfig, sections["train"], "train.", ConfigError))


def _echo_config(cfg: CliConfig) -> None:
    print(json.dumps(cfg.flat(), sort_keys=True))


def _cmd_gen_data(args) -> int:
    cfg = parse_config(args.config)
    _echo_config(cfg)
    scene = cfg.scene
    try:
        kept_frames(range(scene.length), args.skip_frames, args.stride, 2)
    except DataError as err:
        raise ConfigError(f"--skip-frames/--stride: {err}") from err
    trajs = [subsample_trajectory(generate_trajectory(scene, trajectory_seed(args.seed, i)),
                                  args.skip_frames, args.stride)
             for i in range(scene.n_trajectories)]
    write_dataset(trajs, args.out, config=scene, seed=args.seed)
    print(f"wrote {len(trajs)} trajectories to {args.out}")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    flags = (("k", args.interval), ("action_dim", args.d_act), ("idm_input", args.idm_input),
             ("objective", args.objective), ("seed", args.seed))
    overrides = {f"train.{key}": value for key, value in flags if value is not None}
    if args.no_history:
        overrides["train.no_history"] = True
    cfg = parse_config(args.config, overrides)
    _echo_config(cfg)
    dataset = read_dataset(args.data)
    final = train(cfg.train, dataset, args.out, resume_from=args.resume)
    print(f"final checkpoint: {final}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    state = load_checkpoint(args.ckpt)
    dataset = read_dataset(args.data)
    report = run_probe(state, dataset)
    write_probe_report(report, args.report)
    print(json.dumps({"r2": report["r2"], "r2_shuffled": report["r2_shuffled"],
                      "min_std": report["min_std"], "median_std": report["median_std"],
                      "n_samples": report["n_samples"]}, sort_keys=True))
    return EXIT_OK


def _cmd_embed(args) -> int:
    state = load_checkpoint(args.ckpt)
    dataset = read_dataset(args.data)
    coords = export_embedding(state, dataset, args.out)
    print(f"wrote {coords.shape[0]} embedded frames to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck_suite(seed=args.seed)
    failed = 0
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{status}  {res.name:20s} max_rel_err={res.max_rel_err:.3e} "
              f"(tol {res.tolerance:.0e})")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed}/{len(results)} gradient checks failed")
        return EXIT_NUMERICAL
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latent-dyn",
        description="Action-free 3D latent-dynamics pre-training on point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic trajectory dataset")
    p.add_argument("--config", type=Path, default=None, help="JSON config (flat dotted keys)")
    p.add_argument("--out", type=Path, required=True, help="output dataset path (.afro)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-frames", type=int, default=0, dest="skip_frames",
                   help="drop this many leading frames per trajectory")
    p.add_argument("--stride", type=int, default=1, help="keep every stride-th frame")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="run latent-dynamics pre-training")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True, help="run directory")
    p.add_argument("--no-history", action="store_true", dest="no_history",
                   help="disable the predict-history branch")
    p.add_argument("--idm-input", choices=["diff", "concat"], default=None, dest="idm_input")
    p.add_argument("--objective", choices=["vicreg", "mse"], default=None)
    p.add_argument("--interval", type=int, default=None, help="frame interval k")
    p.add_argument("--d-act", type=int, default=None, dest="d_act", help="latent action dim")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", type=Path, default=None, help="epoch-boundary checkpoint")
    p.set_defaults(fn=_cmd_pretrain)

    p = sub.add_parser("probe", help="latent-action decodability + collapse report")
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True, help="output JSON path")
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("embed", help="export a 2D PCA embedding of frame features")
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, OSError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
