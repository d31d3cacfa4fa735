"""One workload process, started by run.py: set-up, then timed passes or a
traced run. It prints one JSON object as the last line of its stdout.

    python3 bench/worker.py MODE WORKLOAD SEED SMOKE SPAWNED_AT DEADLINE SECONDS

MODE is ``setup`` (set up, report, exit), ``timed`` or ``trace``. SPAWNED_AT
and DEADLINE are ``time.monotonic()`` readings of the parent: set-up time
counts from the moment the parent started this process, and no pass starts
that could not end before the deadline. A speed probe (bench/speed.py) runs
for the life of the process; times are reported raw and at reference speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def import_package() -> None:
    """Import the package from this checkout's src/, never an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "prospect_pricing")):
        sys.exit(f"bench: no package at {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import prospect_pricing
    if os.path.dirname(os.path.dirname(os.path.abspath(prospect_pricing.__file__))) != SRC:
        sys.exit(f"bench: imported prospect_pricing from {prospect_pricing.__file__}")


def _timed_pass(workload, probe) -> tuple[float, float, list[str]]:
    """Wall time of one pass, raw and at reference speed, and the problems
    with its output."""
    t0 = time.perf_counter()
    try:
        out = workload.run_pass()
        problems = None
    except Exception as exc:  # a pass that raises is a failed operation
        problems = [f"pass raised {exc!r}"]
    t1 = time.perf_counter()
    wall = t1 - t0
    if problems is None:
        problems = workload.check(out)
    return wall, wall * probe.factor(t0, t1), problems


def main(argv: list[str]) -> dict:
    begin = time.perf_counter()
    probe = speed.SpeedProbe()
    probe.start()
    try:
        return run(argv, probe, begin)
    finally:
        probe.stop()


def run(argv: list[str], probe, begin: float) -> dict:
    mode, name, seed, smoke, spawned_at, deadline, seconds = argv
    seed, smoke = int(seed), smoke == "1"
    spawned_at, deadline, seconds = float(spawned_at), float(deadline), float(seconds)

    import_package()
    import workloads

    def make():
        return workloads.WORKLOADS[name](workloads.scenario_seed(seed), smoke, OUT_DIR)

    workload = make()
    workload.setup()
    setup_s = time.monotonic() - spawned_at
    result = {"raw_setup_s": setup_s,
              "setup_s": setup_s * probe.factor(begin, time.perf_counter()),
              "scenario_seed": workloads.scenario_seed(seed)}
    if mode == "setup":
        workload.close()
        return result

    if mode == "timed":
        raw_walls, walls, problems = [], [], []
        first = time.monotonic()
        while True:
            raw, wall, bad = _timed_pass(workload, probe)
            raw_walls.append(raw)
            walls.append(wall)
            problems.append(bad)
            now = time.monotonic()
            if now - first >= seconds or now + max(raw_walls) > deadline:
                break
        workload.close()
        result.update(raw_walls=raw_walls, walls=walls, problems=problems,
                      probe_mean_s=speed.trimmed_mean(probe.samples),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return result

    # trace: one untraced pass, then set-up and one pass again with the tracer on
    import layertrace
    _, untraced, bad_untraced = _timed_pass(workload, probe)
    workload.close()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        workload = make()
        workload.setup()
        _, traced, bad_traced = _timed_pass(workload, probe)
        workload.close()
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                   "trace.overhead_frac": (traced - untraced) / untraced})
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in layertrace.PER_LAYER.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.npz")
    tracer.write(spans)
    result.update(metrics=metrics, absent=tracer.absent_metrics(),
                  spans=os.path.relpath(spans, ROOT),
                  problems=[bad_untraced, bad_traced])
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
