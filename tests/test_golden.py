"""Every command's stdout, byte for byte, against files in tests/golden/.

Each file holds the stdout of `prospect-pricing <command> --seed <seed>`
(or of the named config) exactly as the CLI printed it when it was recorded.
A change that moves any printed digit fails here; if the move is intended,
re-record the file with the same command and say why in CHANGES.md. Every
file is checked twice: under this Python's sum(), and under the compensated
float sum() of Python 3.12 and later (helpers.compensated_sum).
"""

import builtins
import json
import pathlib

import pytest

import helpers
from prospect_pricing.cli import dispatch
from test_cli import HELP_COMMANDS, help_file
from test_game import RISING_AT_ZERO

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SWEEPS = ("ne-solve", "sweep-loss", "sweep-price", "sweep-expansion",
          "sweep-admission", "sweep-compare")
SEEDS = (4966, 2, 5)
# band sizing finds a user no bandwidth serves in a 3 km cell
FAR_CELL = {"cell_radius_m": 3000.0}
# the 3 km cell with a band given: 9 of the 10 users are served (user 4 is
# left out), so which subset the solve serves and the order in which the
# sweeps deny users show in the printed bytes
FAR_CELL_BAND = {"cell_radius_m": 3000.0, "total_bandwidth_hz": 2e7}
# the 80-user 300 m cell at 1/10 of its band: the band binds and the solve
# scans 41 set sizes
CELL_80_TENTH_BAND = {"n_users": 80, "cell_radius_m": 300.0,
                      "total_bandwidth_hz": 4325122.839508054}
# the same cell with its sized band, the config of the nash-300m-80 benchmark
# at pool seed 4966: one set size is scanned, every user served
CELL_80 = {"n_users": 80, "cell_radius_m": 300.0}
# no rate at or below 1 bps fits a user: the solve climbs from 2 bps and
# bisects the lower edge of the feasible rates
RISING_AT_ZERO_4 = dict(RISING_AT_ZERO, n_users=4)

CASES = ([(f"{command}.seed{seed}.csv", [command, "--seed", str(seed)], None, 0)
          for command in SWEEPS for seed in SEEDS]
         + [("fit-pwf.csv", ["fit-pwf"], None, 0),
            ("ne-solve.radius3000.csv", ["ne-solve"], FAR_CELL, 3),
            ("ne-solve.cell80.csv", ["ne-solve"], CELL_80, 0),
            ("ne-solve.cell80-tenth-band.csv", ["ne-solve"], CELL_80_TENTH_BAND, 0),
            ("ne-solve.rising-at-zero.csv", ["ne-solve"], RISING_AT_ZERO_4, 0),
            *((f"{command}.radius3000-band2e7.csv", [command], FAR_CELL_BAND, 0)
              for command in ("ne-solve", "sweep-admission", "sweep-compare")),
            # alphas where targets go out of reach and cells print empty
            ("sweep-compare.wide.seed4966.csv",
             ["sweep-compare", "--seed", "4966", "--alpha-min", "0.01", "--alpha-max", "1.0",
              "--alpha-step", "0.01"], None, 0),
            # admission over the same alphas, where the levels near 0
            ("sweep-admission.wide.seed4966.csv",
             ["sweep-admission", "--seed", "4966", "--alpha-min", "0.01", "--alpha-max", "1.0",
              "--alpha-step", "0.01"], None, 0),
            ("sweep-admission.wide.seed2.csv",
             ["sweep-admission", "--seed", "2", "--alpha-min", "0.01", "--alpha-max", "1.0",
              "--alpha-step", "0.01"], None, 0),
            # seed 11, where admission prints no band below alpha 0.975
            ("sweep-compare.seed11.csv", ["sweep-compare", "--seed", "11"], None, 0),
            # seed 2 at alphas 0.3 to 0.6: no-pricing prints nothing, and only
            # rate control prints a band, on 25 of the 61 rows
            ("sweep-compare.alpha0.3-0.6.seed2.csv",
             ["sweep-compare", "--seed", "2", "--alpha-min", "0.3", "--alpha-max", "0.6"],
             None, 0)])


@pytest.mark.parametrize("name, argv, config, status", CASES,
                         ids=[case[0] for case in CASES])
def test_stdout_matches_golden_file(name, argv, config, status, tmp_path, capsys):
    assert_stdout_matches(name, argv, config, status, tmp_path, capsys)


@pytest.mark.parametrize("name, argv, config, status", CASES,
                         ids=[case[0] for case in CASES])
def test_stdout_matches_golden_file_under_compensated_sum(name, argv, config, status,
                                                         tmp_path, capsys, monkeypatch):
    """The same bytes when sum() compensates its rounding, as it does from
    Python 3.12 on: no printed digit may rest on how sum() rounds."""
    monkeypatch.setattr(builtins, "sum", helpers.compensated_sum)
    assert_stdout_matches(name, argv, config, status, tmp_path, capsys)


def test_every_golden_file_is_checked_and_every_check_has_its_file():
    """The files in tests/golden/ are the names in CASES, and those in
    tests/golden/help/ the commands whose help is checked: a file added
    without its case, or a case without its file, fails here."""
    files = sorted(path.name for path in GOLDEN.iterdir() if path.is_file())
    assert files == sorted(name for name, *_ in CASES)
    assert sorted(path.name for path in (GOLDEN / "help").iterdir()) == sorted(
        help_file(command).name for command in HELP_COMMANDS)


def assert_stdout_matches(name, argv, config, status, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert dispatch(argv) == status
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
