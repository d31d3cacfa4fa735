"""The benchmark's workloads: inputs made from a seed, one timed pass, and the
check that every pass's output must meet.

A workload object is made once per process. ``setup()`` generates the inputs
and does any one-off solve, ``run_pass()`` is the timed work and returns the
program's output, and ``check()`` lists every problem with that output.

The library is reached through module attributes (``game.solve_nash``, never a
name imported from a module), so the tracer in ``layertrace.py`` sees these calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

from prospect_pricing import cli, experiments, game, prospect
from prospect_pricing.weighting import WeightingModel

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# --seed n runs scenario seed SEED_POOL[n % len(SEED_POOL)]: the published
# cell (4966) and seeds 1-12 except 2. Each was checked to solve with every
# user served on all three workloads, and each has a recorded reference
# output. Seed 2 solves too, but its sweep-compare rows for alpha <= 0.925
# print inf and -inf (one user's weighted target is out of reach at any band),
# which the finiteness check rejects; that is a robustness defect for the
# program to fix, not a workload for timing it.
SEED_POOL = (4966, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)

# Float cells may differ from the reference by this much. The CSV prints 9
# significant digits (5e-9 relative rounding); 1e-6 leaves room for an
# accuracy fix to the bandwidth inversion (1e-11 relative today) to move the
# last printed digits, while any change of behaviour still fails.
REL_TOL = 1e-6
ABS_TOL = 1e-9

# strategies call an outcome feasible when its threshold stays below the
# endowment by this relative slack (game.FEASIBILITY_SLACK)
FEASIBILITY_SLACK = 1e-9

# column kinds: "f" float, "o" float or empty, "i" integer, "b" 0/1 flag,
# "s" text. Integer, flag and text cells must match the reference exactly.
COMPARE_HEADER = ("alpha", "bw_no_pricing_norm", "bw_expansion_norm",
                  "bw_admission_norm", "bw_rate_norm", "rev_no_pricing_norm",
                  "rev_expansion_norm", "rev_admission_norm", "rev_rate_norm")
COMPARE_KINDS = "fffofffff"
NASH_HEADER = ("rate_bps", "n_served", "sp_revenue")
NASH_KINDS = "fif"
RECOVER_HEADER = ("alpha", "strategy", "n_served", "threshold_hz", "feasible",
                  "recovered_revenue")
RECOVER_KINDS = "fsifbo"


def scenario_seed(seed: int) -> int:
    return SEED_POOL[seed % len(SEED_POOL)]


# The benchmark formats the recover rows itself, so that refactoring the
# package's CSV helpers cannot change this output's reference.
def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return "%.9g" % value


def load_reference(workload: str, seed: int) -> str | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f).get(str(seed))
    except FileNotFoundError:
        return None


def check_table(text: str, header: tuple[str, ...], kinds: str, n_rows: int,
                reference: str | None) -> list[str]:
    """Shape, finiteness and (when recorded) reference agreement of a CSV table."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(header):
        return [f"header is {lines[0] if lines else ''!r}, expected {','.join(header)!r}"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} rows, expected {n_rows}")
    for r, row in enumerate(rows):
        if len(row) != len(kinds):
            problems.append(f"row {r} has {len(row)} cells, expected {len(kinds)}")
            continue
        for kind, name, cell in zip(kinds, header, row):
            if kind == "o" and cell == "":
                continue
            if kind in "fo" and not _finite(cell):
                problems.append(f"row {r} {name}={cell!r} is not a finite number")
            elif kind == "i" and not cell.lstrip("-").isdigit():
                problems.append(f"row {r} {name}={cell!r} is not an integer")
            elif kind == "b" and cell not in ("0", "1"):
                problems.append(f"row {r} {name}={cell!r} is not a 0/1 flag")
    if reference is not None and not problems:
        problems.extend(_against_reference(rows, reference, header, kinds))
    return problems


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _against_reference(rows: list[list[str]], reference: str,
                       header: tuple[str, ...], kinds: str) -> list[str]:
    want = [line.split(",") for line in reference.splitlines()[1:]]
    problems = []
    for r, (got_row, want_row) in enumerate(zip(rows, want)):
        for kind, name, got, exp in zip(kinds, header, got_row, want_row):
            if kind in "fo" and got and exp:
                same = math.isclose(float(got), float(exp),
                                    rel_tol=REL_TOL, abs_tol=ABS_TOL)
            else:
                same = got == exp
            if not same:
                problems.append(f"row {r} {name}={got}, reference {exp}")
    if len(want) != len(rows):
        problems.append(f"{len(rows)} rows, reference has {len(want)}")
    return problems


@dataclass
class PassOutput:
    status: int
    text: str
    outcomes: tuple = ()  # unrounded rows, for checks the rounded text cannot make


class CliWorkload:
    """One CLI command run in process through ``cli.dispatch``, CSV captured.

    The generated config goes to a JSON file that the command reads, so the
    program receives only the generated inputs.
    """

    def __init__(self, name: str, command: str, config: dict, args: list[str],
                 header: tuple[str, ...], kinds: str, n_rows: int,
                 reference: str | None, workdir: str) -> None:
        self.name = name
        self.command = command
        self.config = config
        self.args = args
        self.header = header
        self.kinds = kinds
        self.n_rows = n_rows
        self.reference = reference
        self.config_path = os.path.join(workdir, f"{name}-{os.getpid()}.json")

    def setup(self) -> None:
        os.makedirs(os.path.dirname(self.config_path), exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(self.config, f)

    def run_pass(self) -> PassOutput:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.dispatch([self.command, "--config", self.config_path,
                                   *self.args])
        return PassOutput(status, buf.getvalue())

    def check(self, out: PassOutput) -> list[str]:
        problems = [] if out.status == 0 else [f"exit status {out.status}"]
        table = check_table(out.text, self.header, self.kinds, self.n_rows,
                            self.reference)
        if table:
            return problems + table
        rows = [line.split(",") for line in out.text.splitlines()[1:]]
        return problems + self.invariants(rows)

    def invariants(self, rows: list[list[str]]) -> list[str]:
        return []

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.config_path)


class CompareDefault(CliWorkload):
    """``sweep-compare`` at the default config over an alpha window."""

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        # smoke: one row; full: alpha 0.85-1.00 step 0.005, 31 rows
        amin, amax, n_rows = (0.95, 0.95, 1) if smoke else (0.85, 1.0, 31)
        super().__init__(
            "compare-default", "sweep-compare", {"seed": seed},
            ["--alpha-min", repr(amin), "--alpha-max", repr(amax),
             "--alpha-step", "0.005"],
            COMPARE_HEADER, COMPARE_KINDS, n_rows,
            None if smoke else load_reference("compare-default", seed), workdir)

    def invariants(self, rows: list[list[str]]) -> list[str]:
        # expansion's full-recovery band is the no-pricing band by definition
        return [f"row {r}: bw_no_pricing_norm {row[1]} != bw_expansion_norm {row[2]}"
                for r, row in enumerate(rows) if row[1] != row[2]]


class Nash(CliWorkload):
    """``ne-solve`` for many users in a small cell, every user served."""

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.n_users = 8 if smoke else 80
        super().__init__(
            "nash-300m-80", "ne-solve",
            {"cell_radius_m": 300.0, "n_users": self.n_users, "seed": seed}, [],
            NASH_HEADER, NASH_KINDS, 1,
            None if smoke else load_reference("nash-300m-80", seed), workdir)

    def invariants(self, rows: list[list[str]]) -> list[str]:
        served = int(rows[0][1])
        return [] if served == self.n_users else [
            f"n_served {served}, expected {self.n_users}"]


class Recover:
    """The recovery strategies called as a library on one solved 300 m cell.

    Set-up builds the cell, solves it and makes the reference offer; each pass
    runs every strategy at each alpha against that offer.
    """

    name = "recover-300m-40"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.n_users = 8 if smoke else 40
        self.alphas = (0.95,) if smoke else (0.90, 0.95)
        self.reference = None if smoke else load_reference(self.name, seed)

    def setup(self) -> None:
        self.scenario = experiments.build_scenario(
            self.n_users, seed=self.seed, cell_radius_m=300.0)
        ne = game.solve_nash(self.scenario)
        if not ne.equilibrium or ne.n_served != self.n_users:
            raise RuntimeError(f"{self.name}: seed {self.seed} serves "
                               f"{ne.n_served} of {self.n_users} users")
        self.offer = experiments.reference_offer(self.scenario, ne)

    def run_pass(self) -> PassOutput:
        sc, offer = self.scenario, self.offer
        rows = []
        for alpha in self.alphas:
            model = WeightingModel(alpha=alpha)
            kept = prospect.ne_preserved(sc, offer, model)
            rows.append((alpha, "no_pricing", offer.n_served,
                         kept.aggregate_required, kept.aggregate_sufficient, None))
            for outcome in (prospect.admission_control(sc, offer, model, 1),
                            prospect.bandwidth_expansion(sc, offer, model),
                            prospect.rate_control(sc, offer, model)):
                rows.append((alpha, outcome.strategy_name, len(outcome.served_set),
                             outcome.min_bandwidth_threshold_hz, outcome.feasible,
                             outcome.recovered_revenue))
        text = "".join(",".join(format_cell(v) for v in row) + "\n"
                       for row in [RECOVER_HEADER, *rows])
        return PassOutput(0, text, tuple(rows))

    def check(self, out: PassOutput) -> list[str]:
        problems = check_table(out.text, RECOVER_HEADER, RECOVER_KINDS,
                               4 * len(self.alphas), self.reference)
        budget = self.scenario.total_bandwidth_hz
        for alpha, strategy, _, threshold, feasible, _ in out.outcomes:
            if strategy == "no_pricing":
                fits = budget > threshold
            else:
                fits = (math.isfinite(threshold)
                        and threshold < budget * (1.0 - FEASIBILITY_SLACK))
            if feasible != fits:
                problems.append(f"alpha {alpha} {strategy}: feasible={feasible} but "
                                f"threshold {threshold!r} vs endowment {budget!r}")
        return problems

    def close(self) -> None:
        pass


WORKLOADS = {"compare-default": CompareDefault, "nash-300m-80": Nash,
             "recover-300m-40": Recover}
