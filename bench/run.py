"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload compare-default --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in fresh processes of its
own (bench/worker.py) with BLAS/OpenMP threads pinned to 1. With --trace 0
the run sets the workload up SETUP_SAMPLES times, each in a new process, and
the last of those processes then repeats the timed pass until --seconds have
passed; it reports the end-to-end metrics, with times scaled to a reference
machine speed (bench/speed.py). With --trace 1 it makes one untraced and one
traced pass instead and reports the per-layer metrics.

Every pass's output is checked (bench/workloads.py). The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it gives the samples behind each metric. The exit status is 1, with no result
line, when the workload cannot be set up at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("compare-default", "nash-300m-80", "recover-300m-40")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 165.0  # the whole run, set-up included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed),
           "1" if args.smoke else "0", repr(time.monotonic()), repr(deadline),
           str(args.seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline + 10.0 - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process passed the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with status {proc.returncode}")
    return json.loads(lines[-1])


def spread(samples: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else samples * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def timed_run(args, deadline: float) -> tuple[dict, dict, list]:
    probes = [spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    timed = spawn("timed", args, deadline)
    setups = [p["setup_s"] for p in probes + [timed]]
    raw_setups = [p["raw_setup_s"] for p in probes + [timed]]
    walls, problems = timed["walls"], timed["problems"]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
    }
    detail = {"scenario_seed": timed["scenario_seed"], "wall_s": spread(walls),
              "setup_s": spread(setups), "peak_rss_mb": timed["peak_rss_mb"],
              "raw_wall_s": spread(timed["raw_walls"]),
              "raw_setup_s": spread(raw_setups),
              "probe_mean_s": timed["probe_mean_s"]}
    return metrics, detail, problems


def trace_run(args, deadline: float) -> tuple[dict, dict, list]:
    traced = spawn("trace", args, deadline)
    detail = {"scenario_seed": traced["scenario_seed"], "absent": traced["absent"],
              "spans": traced["spans"], "setup_s": traced["setup_s"]}
    return traced["metrics"], detail, traced["problems"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; picks the scenario (0 = the published cell)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (one alpha, 8 users) for a quick self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        run = trace_run if args.trace else timed_run
        metrics, detail, problems = run(args, deadline)
    except BenchError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for p in problems if p)
    for k, bad in enumerate(problems):
        for line in bad[:10]:
            print(f"bench: {args.workload} pass {k}: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
