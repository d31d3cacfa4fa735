"""The CI workflow, checked where GitHub Actions cannot run it.

Every step's script must parse under bash, every golden file the workflow
names must exist, the benchmark step must report every verdict before it
fails, and the installed-package step's comparisons must pass when
`prospect-pricing` and `python -m prospect_pricing` run from the source
tree. The wheel install itself is left to CI. Skipped without PyYAML.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
INSTALL = "pip install ."
# the console script and the interpreter, as they run from a checkout
SOURCE_TREE = ('prospect-pricing() { python -m prospect_pricing "$@"; }\n'
               'python() { "$PYTHON" "$@"; }\n')


def step_scripts():
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tests"]["steps"]
    return {step["name"]: step["run"] for step in steps if "run" in step}


def test_every_step_script_parses_under_bash():
    for name, script in step_scripts().items():
        proc = subprocess.run(["bash", "-n"], input=script, text=True,
                              stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 0, (name, proc.stderr)


def test_every_golden_file_the_workflow_names_exists():
    named = re.findall(r"tests/golden/[^\s\"']+", WORKFLOW.read_text(encoding="utf-8"))
    assert named
    assert [path for path in named if not (ROOT / path).is_file()] == []


# bench/run.py's last line for two (workload, seed) pairs that fail, and for the rest
BENCH_STUB = """python3() {
  case "$*" in
    *"compare-default --seed 4 "*|*"recover-300m-40 --seed 11 "*)
      echo '{"correct": false, "failed": 0}' ;;
    *) echo '{"correct": true, "failed": 0}' ;;
  esac
}
"""


def test_the_benchmark_step_reports_every_verdict_before_failing():
    """The benchmark reference step, run by bash -e as CI runs it, with
    bench/run.py stubbed to fail two (workload, seed) pairs: it prints all
    36 verdicts, the two failures among them, and then exits 1."""
    [script] = [script for script in step_scripts().values() if "bench/run.py" in script]
    proc = subprocess.run(["bash", "-e", "-c", BENCH_STUB + script], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, len(lines)) == (1, "", 36)
    assert [line for line in lines if not line.endswith(": correct")] == [
        'compare-default seed 4: {"correct": false, "failed": 0}',
        'recover-300m-40 seed 11: {"correct": false, "failed": 0}']


def test_the_installed_package_step_passes_on_the_source_tree(tmp_path):
    """The step as written, less its install, run by bash -e as CI runs it,
    from an empty directory."""
    [script] = [script for script in step_scripts().values() if INSTALL in script]
    lines = [line for line in script.splitlines() if INSTALL not in line]
    assert any("| cmp - " in line for line in lines)
    env = dict(os.environ, PYTHON=sys.executable, PYTHONPATH=str(ROOT / "src"),
               GITHUB_WORKSPACE=str(ROOT), RUNNER_TEMP=str(tmp_path))
    proc = subprocess.run(["bash", "-e", "-c", SOURCE_TREE + "\n".join(lines)], env=env,
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
