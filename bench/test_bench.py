"""Self-tests of the benchmark: every workload at tiny settings, the trace's
counts, and the output check.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layertrace  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result["metrics"]


def test_spec_names_the_workloads_and_layer_metrics():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layertrace.PER_LAYER


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    metrics = bench(workload, 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"]) and value["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_two_traced_runs_count_the_same(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert set(first) == set(layertrace.PER_LAYER)
    for name, unit in layertrace.PER_LAYER.items():
        assert first[name]["unit"] == unit
    counts = [name for name, unit in layertrace.PER_LAYER.items() if unit != "s"
              and not name.startswith("trace.")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["channel.min_bandwidth.calls"]["value"] > 0
    assert first["search.cap_hits"]["value"] == 0


def test_check_accepts_print_rounding_and_rejects_a_changed_value():
    seed = workloads.SEED_POOL[0]
    reference = workloads.load_reference("compare-default", seed)
    wl = workloads.CompareDefault(seed, False, HERE)
    ok = workloads.PassOutput(0, reference)
    assert wl.check(ok) == []

    header, first, *rest = reference.splitlines(keepends=True)
    cells = first.rstrip("\n").split(",")

    def with_cell(col: int, value: str) -> workloads.PassOutput:
        row = cells[:col] + [value] + cells[col + 1:]
        return workloads.PassOutput(0, header + ",".join(row) + "\n" + "".join(rest))

    rate = float(cells[4])
    assert wl.check(with_cell(4, repr(rate * (1 + 1e-8)))) == []
    assert wl.check(with_cell(4, repr(rate * (1 + 1e-4))))
    assert wl.check(with_cell(4, "nan"))
    assert wl.check(workloads.PassOutput(3, reference))
    assert wl.check(workloads.PassOutput(0, header + "".join(rest)))
