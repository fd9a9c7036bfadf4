"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in its own process

Every run sets up five times (setup_s is the median), then runs untraced
rounds of each stage in turn: train, gradcheck, probe. The workload's own
stage then repeats whole rounds for --seconds. With --trace 0 the result
holds every end-to-end metric: the own stage's come from that window, the
other stages' from their rounds before it. With --trace 1 the window runs
under span wrappers and the result holds the per-layer metrics; the spans
go to .perfbench/trace/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"desk-train": "train", "gradcheck": "gradcheck", "data-probe": "probe"}
SETUPS = 5
SIDE_ROUNDS = {"train": 1, "gradcheck": 1, "probe": 3}  # probe rounds are short
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


def _pin_threads() -> None:
    """numpy's BLAS pool stays at <= 2 threads; set before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import resource

    from perfbench import spans, stages

    own = WORKLOADS[workload]
    work = ROOT / ".perfbench" / "run" / f"{workload}-{seed}-{os.getpid()}"
    patches = spans.Patches()
    traced = spans.Patches()
    try:
        clock = spans.StepClock()
        clock.install(patches)
        sampler = stages.SampledGradCheck(seed)
        patches.rebind("latentdyn.checks", "grad_check", lambda _fn: sampler)

        setup_s = []
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            bench = stages.setup(seed, work, clock, sampler)
            setup_s.append(time.perf_counter() - t0)

        # Untraced rounds of each stage before the window: the samples of the
        # other stages' metrics, and the own stage's warm-up round.
        first = {stage: [round_fn(bench) for _ in range(1 if stage == own else SIDE_ROUNDS[stage])]
                 for stage, round_fn in stages.STAGES.items()}

        # A traced run alternates traced and untraced rounds in the window,
        # so that the overhead estimate sees the same machine load on both.
        recorder = spans.SpanRecorder()
        rounds, untraced = [], []
        end = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < end:
            if trace:
                recorder.install(traced)
            rounds.append(stages.STAGES[own](bench))
            traced.restore()
            if trace:
                untraced.append(stages.STAGES[own](bench))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB

        bench.problems += stages.FINAL_CHECKS[own](bench)
    finally:
        traced.restore()
        patches.restore()

    if trace:
        metrics = spans.layer_metrics(recorder.totals())
        metrics["trainer.checkpoint_bytes"] = (bench.checkpoint.stat().st_size, "bytes")
        metrics["data.dataset_bytes"] = (bench.probe["path"].stat().st_size, "bytes")
        overhead = (statistics.median(r["wall_s"] for r in rounds)
                    / statistics.median(r["wall_s"] for r in untraced) - 1)
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        recorder.dump(ROOT / ".perfbench" / "trace" / f"{workload}-seed{seed}",
                      {"workload": workload, "seed": seed, "traced_rounds": len(rounds),
                       "spans": len(recorder)})
    else:
        samples = {**first, own: rounds}
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        for stage, stage_rounds in samples.items():
            metrics.update(stages.stage_metrics(stage, stage_rounds))
    shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {own} in the window, "
          f"BLAS threads {BLAS_THREADS}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
        print(f"{workload}: {last[0]}")
        code = code or proc.returncode
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "latentdyn").is_dir():
        print(f"latentdyn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    _pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
