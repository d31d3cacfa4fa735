import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from prospect_pricing import cli, experiments, prospect
from prospect_pricing.cli import (ConfigError, config_from_mapping, dispatch,
                                  parse_config, serialize_config)
from prospect_pricing.experiments import (HEADER_COMPARISON, HEADER_FIT,
                                          HEADER_NE, ScenarioParams,
                                          format_cell)
from prospect_pricing.weighting import WeightingModel

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

NE_SOLVE_STDOUT = (",".join(HEADER_NE) + "\n"
                   + ",".join((format_cell(6986353.51799847), "10",
                               format_cell(5.010973715485514))) + "\n")


def run(argv, capsys):
    status = dispatch(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration handling


def test_defaults_without_config():
    assert ScenarioParams() == parse_config("default")


def test_empty_config_file_means_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("   \n")
    assert parse_config(str(path)) == ScenarioParams()


def test_config_roundtrip():
    config = ScenarioParams(n_users=3, c3=2e-8, total_bandwidth_hz=5e6, seed=7)
    text = serialize_config(config)
    assert config_from_mapping(json.loads(text)) == config
    assert text.endswith("\n")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="alpha"):
        config_from_mapping({"alpha": 0.9})


def test_bool_rejected_for_numeric_key():
    with pytest.raises(ConfigError, match="n_users"):
        config_from_mapping({"n_users": True})
    with pytest.raises(ConfigError, match="c1"):
        config_from_mapping({"c1": True})


def test_out_of_range_values_rejected():
    for key, value in (("pathloss_exponent", -1.0), ("n_users", 0),
                       ("price_exp", 1.5), ("shadow_sigma_db", -0.1),
                       ("total_bandwidth_hz", 0.0)):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: value})


def test_config_field_count_is_stable():
    assert len(dataclasses.fields(ScenarioParams)) == 17


def test_readme_config_block_matches_defaults():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Config keys and defaults.*?```json\n(.*?)```", text, re.S)
    assert json.loads(block.group(1)) == dataclasses.asdict(ScenarioParams())


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Typical session:\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    revenue, after_loss = map(float, printed)
    assert 0.0 < after_loss <= revenue


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    status, out, err = run(["ne-solve", "--config", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert "not valid JSON" in err


def test_non_object_json_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    status, out, err = run(["ne-solve", "--config", str(path)], capsys)
    assert status == 2
    assert "JSON object" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    status, out, err = run(
        ["ne-solve", "--config", str(tmp_path / "nope.json")], capsys)
    assert status == 2
    assert "cannot read config" in err


def test_bad_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad_value.json"
    path.write_text(json.dumps({"pathloss_exponent": -1.0}))
    status, out, err = run(["ne-solve", "--config", str(path)], capsys)
    assert status == 2
    assert "pathloss_exponent" in err


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("ref_distance_m", 0.0), ("cell_radius_m", 19.0),
    ("price_coeff", 0.0), ("benefit_coeff", -1e-2), ("c1", -1e-9), ("c3", -1e-8),
    ("bandwidth_margin", -0.1),
])
def test_config_value_outside_its_range_exits_2(tmp_path, capsys, key, value):
    """Each range ScenarioParams checks refuses by the field's name, and the
    CLI turns the refusal into exit 2 with nothing on stdout."""
    with pytest.raises(ValueError, match=f"invalid config value for {key!r}"):
        ScenarioParams(**{key: value})
    path = tmp_path / "range.json"
    path.write_text(json.dumps({key: value}))
    status, out, err = run(["ne-solve", "--config", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert f"invalid config value for {key!r}" in err


# Python's json reads NaN and Infinity; c1 = 0 and a linear price leave the
# per-user margin without a peak, so the band cannot be sized
@pytest.mark.parametrize("command", ["ne-solve", "sweep-loss", "sweep-compare"])
@pytest.mark.parametrize("text, message", [
    ('{"tx_power_dbm": NaN}', "tx_power_dbm"),
    ('{"c1": NaN}', "c1"),
    ('{"cell_radius_m": Infinity}', "cell_radius_m"),
    ('{"c3": -Infinity}', "c3"),
    pytest.param('{"c1": 1%s}' % ("0" * 400),
                 "invalid config value for 'c1': must be a finite number",
                 id="an-integer-past-the-float-range"),
    ('{"c1": 0}', "does not peak"),
    ('{"price_exp": 1.0}', "does not peak"),
])
def test_config_outside_model_domain_exits_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "domain.json"
    path.write_text(text)
    status, out, err = run([command, "--config", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("key, message", [
    ("tx_power_dbm", "received_power_w"), ("antenna_const_db", "received_power_w"),
    ("noise_psd_dbm_per_hz", "noise_psd_w_per_hz"), ("shadow_sigma_db", "received_power_w")])
@pytest.mark.parametrize("value", [4000, 1e300])
def test_a_power_past_the_float_range_exits_2(tmp_path, capsys, key, value, message):
    """A dBm level whose watts overflow is an infinite power, refused with a
    one-line message that names the config keys it comes from (a traceback
    of OverflowError and exit 1 before, then the channel's field alone). At
    the default seed the first user's shadowing is positive, so a wide
    shadow spread overflows too."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({key: value}))
    keys = {"noise_psd_w_per_hz": "'noise_psd_dbm_per_hz'",
            "received_power_w": "'tx_power_dbm', 'antenna_const_db' or 'shadow_sigma_db'"}
    for command in ("ne-solve", "sweep-compare"):
        assert run([command, "--config", str(path)], capsys) == (
            2, "", f"prospect-pricing: error: invalid config value for {keys[message]}: "
                   f"{message} must be finite, got inf\n")


def test_a_command_validates_its_config_once(tmp_path, capsys, monkeypatch):
    """ne-solve --seed 5 --config builds one ScenarioParams, which checks
    every value once (three while the seed and build_scenario each rebuilt
    it), and fit-pwf one, which it never uses."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_users": 8}))
    checks = []
    check = ScenarioParams.__post_init__
    monkeypatch.setattr(ScenarioParams, "__post_init__", lambda self: checks.append(check(self)))
    for argv, status in ((["ne-solve", "--seed", "5"], 0), (["fit-pwf"], 0)):
        checks.clear()
        assert run(argv + ["--config", str(path)], capsys)[0] == status
        assert len(checks) == 1, argv


# ---------------------------------------------------------------------------
# usage errors


def test_no_subcommand_is_usage_error(capsys):
    status, out, err = run([], capsys)
    assert status == 64
    assert "subcommand" in err
    assert "usage:" in err


def test_unknown_subcommand_is_usage_error(capsys):
    status, out, err = run(["frobnicate"], capsys)
    assert status == 64
    assert "usage:" in err


def test_zero_alpha_step_is_usage_error(capsys):
    status, out, err = run(["sweep-loss", "--alpha-step", "0"], capsys)
    assert status == 64
    assert "--alpha-step" in err
    assert "usage:" in err


@pytest.mark.parametrize("step", ["1e-13", "1.5e-9", "nan", "inf"])
def test_unbounded_alpha_grid_is_usage_error(step, capsys, monkeypatch):
    """A step that would make the grid too long, or endless, exits 64 at once
    without building it."""
    def build(self):
        raise AssertionError("the grid was built")
    monkeypatch.setattr(experiments.SweepSpec, "alphas", build)
    status, out, err = run(["sweep-compare", "--alpha-step", step], capsys)
    assert status == 64
    assert out == ""
    assert "--alpha-step" in err
    assert "usage:" in err


def test_a_one_alpha_window_at_the_finest_step_prints_one_row(capsys):
    """The grid's count allows float drift of under half a step: at a step of
    1e-12 the window 0.5 to 0.5 printed 0.5 and 0.500000000001."""
    status, out, err = run(["sweep-loss", "--alpha-min", "0.5", "--alpha-max", "0.5",
                            "--alpha-step", "1e-12"], capsys)
    assert status == 0
    assert len(out.splitlines()) == 2


def test_a_one_alpha_sweep_compare_prints_its_row_of_the_default_sweep(capsys):
    """Each alpha is solved on its own: alpha 0.95 alone prints the header and
    the default sweep's row for 0.95, byte for byte."""
    status, out, err = run(["sweep-compare", "--alpha-min", "0.95", "--alpha-max", "0.95"],
                           capsys)
    assert (status, err) == (0, "")
    golden = (ROOT / "tests" / "golden" / "sweep-compare.seed4966.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    assert out == golden[0] + next(line for line in golden if line.startswith("0.95,"))


@pytest.mark.parametrize("alpha", ["0.5", "1e-300"])
def test_alpha_step_finer_than_the_grid_rounding_is_usage_error(alpha, capsys):
    """A window of one alpha at a step of 1e-13 printed 15 rows of it."""
    status, out, err = run(["sweep-loss", "--alpha-min", alpha, "--alpha-max", alpha,
                            "--alpha-step", "1e-13"], capsys)
    assert status == 64
    assert out == ""
    assert "--alpha-step: a step of 1e-13 is finer than the grid's rounding" in err
    assert "usage:" in err


def test_bad_alpha_range_is_usage_error(capsys):
    status, out, err = run(
        ["sweep-loss", "--alpha-min", "0.9", "--alpha-max", "0.8"], capsys)
    assert status == 64


def test_help_exits_zero(capsys):
    status, out, err = run(["--help"], capsys)
    assert status == 0
    assert "sweep-loss" in out


# ---------------------------------------------------------------------------
# solving and sweeps


def test_ne_solve_stdout(capsys):
    status, out, err = run(["ne-solve"], capsys)
    assert status == 0
    assert err == ""
    assert out == NE_SOLVE_STDOUT


def test_ne_solve_literal_default_config(capsys):
    status, out, _ = run(["ne-solve", "--config", "default"], capsys)
    assert status == 0
    assert out == NE_SOLVE_STDOUT


def test_ne_solve_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "ne.csv"
    status, out, _ = run(["ne-solve", "--out", str(out_path)], capsys)
    assert status == 0
    assert out == ""
    assert out_path.read_text() == NE_SOLVE_STDOUT


def test_seed_flag_changes_scenario(capsys):
    _, baseline, _ = run(["ne-solve"], capsys)
    status, out, _ = run(["ne-solve", "--seed", "11"], capsys)
    assert status == 0
    assert out.split("\n")[0] == baseline.split("\n")[0]
    assert out != baseline


def test_seed_flag_overrides_config_seed(tmp_path, capsys):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"seed": 11}))
    _, with_config, _ = run(["ne-solve", "--config", str(path)], capsys)
    _, with_flag, _ = run(["ne-solve", "--seed", "11"], capsys)
    assert with_config == with_flag
    assert with_config != NE_SOLVE_STDOUT


def test_sweep_stdout_deterministic(capsys):
    argv = ["sweep-loss", "--alpha-min", "0.95", "--alpha-max", "0.96",
            "--alpha-step", "0.005"]
    status_a, first, _ = run(argv, capsys)
    status_b, second, _ = run(argv, capsys)
    assert status_a == status_b == 0
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "alpha,loss_strict_norm,loss_realloc_norm"
    assert len(lines) == 4


def test_sweep_out_file_matches_stdout(tmp_path, capsys):
    argv = ["sweep-price", "--alpha-min", "0.97", "--alpha-max", "0.98"]
    _, streamed, _ = run(argv, capsys)
    out_path = tmp_path / "prices.csv"
    status, silent, _ = run(argv + ["--out", str(out_path)], capsys)
    assert status == 0
    assert silent == ""
    assert out_path.read_text() == streamed


def test_no_equilibrium_ne_solve_exits_3(tmp_path, capsys):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"n_users": 2, "c3": 1.0}))
    status, out, _ = run(["ne-solve", "--config", str(path)], capsys)
    assert status == 3
    assert out == ",".join(HEADER_NE) + "\n0,0,0\n"


@pytest.mark.parametrize("command", ["ne-solve", "sweep-loss"])
def test_unservable_user_exits_3_with_infeasible_row(tmp_path, capsys, command):
    # band sizing raises InfeasibleScenarioError for this cell
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"cell_radius_m": 3000.0}))
    status, out, _ = run([command, "--config", str(path)], capsys)
    assert status == 3
    lines = out.split("\n")
    assert lines[0] == "status,detail"
    assert lines[1].startswith("infeasible,guarantee ")


def test_no_equilibrium_sweep_writes_diagnostic(tmp_path, capsys):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"n_users": 2, "c3": 1.0}))
    status, out, _ = run(["sweep-loss", "--config", str(path),
                          "--alpha-min", "0.95", "--alpha-max", "1.0"], capsys)
    assert status == 3
    lines = out.split("\n")
    assert lines[0] == "status,detail"
    assert lines[1].startswith("no-equilibrium")


def test_zero_rate_cost_with_explicit_band_solves(tmp_path, capsys):
    # band sizing is what needs the margin peak; a given band skips it
    path = tmp_path / "free_rate.json"
    path.write_text(json.dumps({"c1": 0, "total_bandwidth_hz": 1e7}))
    status, out, _ = run(["ne-solve", "--config", str(path)], capsys)
    assert status == 0
    assert out.startswith(",".join(HEADER_NE) + "\n")


def test_sweep_compare_with_one_served_user(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"n_users": 1}))
    status, out, _ = run(["sweep-compare", "--config", str(path),
                          "--alpha-min", "0.9", "--alpha-max", "1.0",
                          "--alpha-step", "0.05"], capsys)
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(HEADER_COMPARISON)
    assert len(lines) == 4
    empty = {HEADER_COMPARISON.index("bw_admission_norm"),
             HEADER_COMPARISON.index("rev_admission_norm")}
    for line in lines[1:]:
        for k, cell in enumerate(line.split(",")):
            if k in empty:
                assert cell == ""
            else:
                assert math.isfinite(float(cell))


def test_target_out_of_reach_gives_empty_cells_not_inf(capsys):
    # at seed 2 one served user's target is above its wide-band supremum for
    # alpha <= 0.925, so no band brings it back without repricing
    status, out, _ = run(["sweep-compare", "--seed", "2", "--alpha-min", "0.9",
                          "--alpha-max", "0.95", "--alpha-step", "0.05"], capsys)
    assert status == 0 and "inf" not in out and "nan" not in out
    header, reachless, reachable = out.strip().split("\n")
    unreachable = {HEADER_COMPARISON.index(name) for name in (
        "bw_no_pricing_norm", "bw_expansion_norm", "rev_no_pricing_norm",
        "bw_admission_norm")}  # admission: no acceptable markup at alpha 0.9
    for k, cell in enumerate(reachless.split(",")):
        assert (cell == "") == (k in unreachable), header.split(",")[k]
    assert "" not in reachable.split(",")[:3]

    status, out, _ = run(["sweep-expansion", "--seed", "2", "--alpha-min", "0.84",
                          "--alpha-max", "0.84"], capsys)
    assert status == 0
    assert out.strip().split("\n")[1].split(",")[1] == ""


def test_no_pricing_revenue_is_empty_where_its_band_is_at_zero_band_cost(tmp_path, capsys):
    """At c3 = 0 an out-of-reach band costs 0*inf: rev_no_pricing_norm is
    empty exactly where bw_no_pricing_norm is (16 of seed 2's 31 rows), and
    no cell reads nan."""
    path = tmp_path / "free-band.json"
    path.write_text(json.dumps({"c3": 0.0}))
    status, out, _ = run(["sweep-compare", "--config", str(path), "--seed", "2"], capsys)
    assert status == 0
    header, *rows = out.strip().split("\n")
    cells = [row.split(",") for row in rows]
    assert len(cells) == 31 and not any(cell == "nan" for row in cells for cell in row)
    bw, rev = (header.split(",").index(name)
               for name in ("bw_no_pricing_norm", "rev_no_pricing_norm"))
    assert [row[rev] == "" for row in cells] == [row[bw] == "" for row in cells]
    assert sum(row[bw] == "" for row in cells) == 16


@pytest.mark.parametrize("module", ["prospect_pricing", "prospect_pricing.cli"])
def test_module_entry_points_run_the_command(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", module, "ne-solve"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == NE_SOLVE_STDOUT


NUMPY_MA_RUN = """
import contextlib, io, sys
from prospect_pricing import cli, experiments, prospect, solve_nash
with contextlib.redirect_stdout(io.StringIO()):
    for command in cli._COMMANDS:
        assert cli.dispatch([command]) == 0, command
sc = experiments.build_scenario()
ref = experiments.reference_offer(sc, solve_nash(sc))
alphas = [0.5, 0.9]
prospect.no_pricing_bands(sc, ref, alphas)
prospect.admission_controls(sc, ref, alphas, 1)
prospect.bandwidth_expansions(sc, ref, alphas)
prospect.rate_controls(sc, ref, alphas)
for strategy_id in prospect.STRATEGY_IDS:
    prospect.min_alpha(sc, ref, strategy_id)
print("numpy.ma" in sys.modules)
"""


def test_no_command_or_strategy_imports_numpy_ma():
    """np.unique, among others, imports numpy.ma on first use, which adds
    1.7 MB to a process's peak memory (numpy 2.4): every command, the four
    strategies and min_alpha run without it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_RUN], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_closed_stdout_pipe_is_not_an_error(tmp_path):
    """A reader that stops early (`| head`) gets no traceback and no failure."""
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"n_users": 1}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from prospect_pricing.cli import main; main()",
         "sweep-compare", "--config", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.close()  # long before the child writes its first row
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_excessive_max_drops_exits_2(capsys):
    status, out, err = run(
        ["sweep-admission", "--alpha-min", "0.95", "--alpha-max", "0.95",
         "--max-drops", "12"], capsys)
    assert status == 2
    assert "max_drops" in err


# (seed, alpha, max_drops, row): at each alpha, found by bisection, the
# last kept set's total at the markup is B*(1 - 5e-10); the published
# cell's ids name no seed
KNIFE_EDGE_ADMISSIONS = [
    (4966, "0.878519090263", 0, "0.87851909,10,0.999999999,4.89097483e-09,0"),
    (4966, "0.707099793789", 1, "0.707099794,9,1.02,4.62704071e-09,0"),
    (4966, "0.697188320806", 2, "0.697188321,8,1.045,4.27873309e-09,0"),
    (4966, "0.748639212087", 3, "0.748639212,7,1.07714286,3.85819834e-09,0"),
    (1, "0.842975683631", 0, "0.842975684,10,0.999999999,4.62388856e-09,0"),
    (2, "0.683774979322", 1, "0.683774979,9,1.02,5.21324024e-09,0"),
    (3, "0.764895784951", 2, "0.764895785,8,1.045,4.29941325e-09,0"),
    (5, "0.83376265921", 3, "0.833762659,7,1.07714285,3.96913803e-09,0")]


@pytest.mark.parametrize("seed, alpha, max_drops, row", KNIFE_EDGE_ADMISSIONS,
                         ids=[(f"seed{seed}-" if seed != 4966 else "") + f"{alpha}-{drops}-{row}"
                              for seed, alpha, drops, row in KNIFE_EDGE_ADMISSIONS])
def test_sweep_admission_takes_the_strategies_feasibility_rule(seed, alpha, max_drops, row,
                                                               capsys):
    """sweep-admission accepts the markup by game._feasible, as
    admission_control does: at these alphas the last kept set's total at
    the markup is B*(1 - 5e-10), inside the slack, so the row is
    infeasible and prices at the equalized level less the shave, though
    that level lies above the markup (a rule on the level alone printed the
    markup and 1). The level exceeds the markup by 8.6e-12 to 1.8e-10 of
    it, so the price lies below the markup it refused."""
    status, out, err = run(["sweep-admission", "--seed", str(seed), "--alpha-min", alpha,
                            "--alpha-max", alpha, "--max-drops", str(max_drops)], capsys)
    assert (status, err) == (0, "")
    assert out.splitlines()[-1] == row
    sc = experiments.build_scenario(seed=seed)
    ref = experiments.reference_offer(sc, experiments.solve_nash(sc))
    markup = prospect.admission_price(sc, ref, ref.n_served - max_drops)
    spec = experiments.SweepSpec(sc, float(alpha), float(alpha))
    price_ratio = experiments.sweep_admission(spec, max_drops).rows[-1][2]
    assert price_ratio < markup / ref.price
    if max_drops == 0:
        model = WeightingModel(float(alpha))
        assert not prospect.admission_control(sc, ref, model, 0).feasible


# ---------------------------------------------------------------------------
# weighting-exponent fit


def test_fit_pwf_bundled(capsys):
    status, out, err = run(["fit-pwf"], capsys)
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(HEADER_FIT)
    assert len(lines) == 31
    assert all(line.startswith("0.697524036,") for line in lines[1:])


def test_fit_pwf_data_flag(capsys):
    bundled = "src/prospect_pricing/data/psychophysics.csv"
    _, default_out, _ = run(["fit-pwf"], capsys)
    status, flagged_out, _ = run(["fit-pwf", "--data", bundled], capsys)
    assert status == 0
    assert flagged_out == default_out


def test_fit_pwf_missing_data_file_exits_2(tmp_path, capsys):
    status, _, err = run(
        ["fit-pwf", "--data", str(tmp_path / "nope.csv")], capsys)
    assert status == 2
    assert "cannot read data file" in err


def test_fit_pwf_all_blank_exits_2(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text(
        "packet_loss_pct,delay_ms,rating_mean,rating_dev,fps_mean,fps_dev\n"
        "0,0,,,,\n"
        "2,40,,,,\n")
    status, _, err = run(["fit-pwf", "--data", str(path)], capsys)
    assert status == 2


def test_fit_pwf_bad_header_exits_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("packet_loss_pct,delay_ms\n0,0\n")
    status, _, err = run(["fit-pwf", "--data", str(path)], capsys)
    assert status == 2
    assert "missing columns" in err


def test_main_exits_with_dispatch_status(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["prospect-pricing", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# seeded fuzz over the validated domain


def fuzz_configs(n=40, seed=20260):
    """In-domain configs toward the domain's corners: radii of 20 m to 20 km
    and -10 to 60 dBm of power, exponents in (0.3, 1], either cost term 0
    in about 1 config in 7, and an explicit band of 1e3 to 1e10 Hz in
    about 3 in 10."""
    rng = np.random.default_rng(seed)
    log_scale = lambda value: value * 10.0 ** rng.uniform(-1.0, 1.0)
    for _ in range(n):
        config = {
            "seed": int(rng.integers(0, 10_000)),
            "n_users": int(rng.integers(1, 17)),
            "cell_radius_m": 20.0 * 10.0 ** rng.uniform(0.0, 3.0),
            "tx_power_dbm": rng.uniform(-10.0, 60.0),
            "pathloss_exponent": rng.uniform(2.0, 5.0),
            "shadow_sigma_db": rng.uniform(0.0, 8.0),
            "price_exp": 1.0 - rng.uniform(0.0, 0.7),
            "benefit_exp": 1.0 - rng.uniform(0.0, 0.7),
            "c1": 0.0 if rng.random() < 0.15 else log_scale((1.0 / 3.0) * 1e-6),
            "c3": 0.0 if rng.random() < 0.15 else log_scale(1e-8),
            "price_coeff": log_scale(2e-3),
            "benefit_coeff": log_scale(1e-2),
        }
        if rng.random() < 0.3:
            config["total_bandwidth_hz"] = 10.0 ** rng.uniform(3.0, 10.0)
        yield config


def test_in_domain_fuzz_solves_or_exits_cleanly(tmp_path, capsys):
    """Every fuzz config solves or exits with a documented status, with no
    traceback and no nan or inf cell: ne-solve, and where it solves,
    sweep-loss and sweep-compare, every other config near alpha 1 and the
    rest at alphas 0.01-0.05, where scaling a level from alpha = 1 is worst
    conditioned and where a level of 0 at alpha = 1 sends problems to a
    search at their own alpha. A config ne-solve refuses is refused by the
    sweeps' first step, the same scenario build and solve."""
    path = tmp_path / "fuzz.json"
    windows = (["--alpha-min", "0.95", "--alpha-max", "1.0", "--alpha-step", "0.025"],
               ["--alpha-min", "0.01", "--alpha-max", "0.05", "--alpha-step", "0.02"])
    for k, config in enumerate(fuzz_configs()):
        path.write_text(json.dumps(config))
        for argv in (["ne-solve"], ["sweep-loss", *windows[k % 2]],
                     ["sweep-compare", *windows[k % 2]]):
            status, out, err = run([*argv, "--config", str(path)], capsys)
            where = f"{argv} on {config}"
            assert status in (0, 2, 3, 64), where
            assert "Traceback" not in err, where
            # compare whole cells: "infeasible" contains "inf"
            cells = [c for line in out.splitlines() for c in line.split(",")]
            assert not {"nan", "inf", "-inf"} & {c.lower() for c in cells}, where
            if status and argv[0] == "ne-solve":
                break


# ---------------------------------------------------------------------------
# the command surface and the exit policy

COMMON_OPTIONS = ["-h", "--help", "--config", "--seed", "--out"]
ALPHA_OPTIONS = ["--alpha-min", "--alpha-max", "--alpha-step"]
COMMAND_OPTIONS = {
    "ne-solve": COMMON_OPTIONS,
    "sweep-loss": COMMON_OPTIONS + ALPHA_OPTIONS,
    "sweep-price": COMMON_OPTIONS + ALPHA_OPTIONS,
    "sweep-expansion": COMMON_OPTIONS + ALPHA_OPTIONS,
    "sweep-admission": COMMON_OPTIONS + ALPHA_OPTIONS + ["--max-drops"],
    "sweep-compare": COMMON_OPTIONS + ALPHA_OPTIONS,
    "fit-pwf": COMMON_OPTIONS + ["--data"],
}


def subparsers():
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, cli.argparse._SubParsersAction)]
    return commands.choices


def test_the_commands_are_the_documented_seven():
    assert list(subparsers()) == list(COMMAND_OPTIONS)


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_each_command_takes_its_options_in_order(command):
    options = [s for a in subparsers()[command]._actions for s in a.option_strings]
    assert options == COMMAND_OPTIONS[command]


HELP = ROOT / "tests" / "golden" / "help"
USAGE = "usage: prospect-pricing [-h] COMMAND ...\n"
# the program's help (None), then each command's
HELP_COMMANDS = [None, *COMMAND_OPTIONS]


def help_file(command):
    return HELP / f"{command or 'prospect-pricing'}.txt"


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_matches_golden_file(command, capsys, monkeypatch):
    """--help of the program and of each command, byte for byte as recorded
    when every run built all seven subparsers; at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    status, out, err = run(["--help"] if command is None else [command, "--help"], capsys)
    assert (status, err) == (0, "")
    assert out == help_file(command).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, message", [
    ([], "a subcommand is required"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["sweep-loss", "--bogus"], "unrecognized arguments: --bogus"),
    (["ne-solve", "--alpha-step", "0.1"], "unrecognized arguments: --alpha-step 0.1"),
    (["sweep-loss", "--alpha-step", "inf"], "--alpha-step must be finite and > 0"),
    (["ne-solve", "--bogus"], "unrecognized arguments: --bogus"),
    (["ne-solve", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["ne-solve", "--alpha-step", "1"], "unrecognized arguments: --alpha-step 1"),
], ids=["missing-command", "unknown-flag", "unknown-command-flag", "another-commands-flag",
        "infinite-step", "ne-solve-unknown-flag", "ne-solve-bad-seed",
        "ne-solve-another-commands-flag"])
def test_usage_errors_keep_their_stderr(argv, message, capsys):
    assert run(argv, capsys) == (64, "", f"prospect-pricing: error: {message}\n{USAGE}")


def test_an_unknown_command_lists_all_seven(capsys):
    status, out, err = run(["frobnicate"], capsys)
    message, rest = err.split("\n", 1)
    assert (status, out, rest) == (64, "", USAGE)
    prefix = "prospect-pricing: error: argument COMMAND: invalid choice: 'frobnicate' (choose from "
    assert message.startswith(prefix)
    assert re.findall(r"[\w-]+", message[len(prefix):]) == list(COMMAND_OPTIONS)


# argvs that exit 0; the other argvs of the test below are usage errors
RUNS = (["--help"], ["ne-solve"], ["fit-pwf", "--help"],
        ["sweep-admission", "--alpha-min", "1.0", "--max-drops", "1"])


# an argv, and the command whose parser it builds, if any
@pytest.mark.parametrize("argv, built", [
    (["ne-solve", "--alpha-step", "1"], "ne-solve"),
    (["sweep-admission", "--bogus"], "sweep-admission"),
    (["--help"], None), (["frobnicate"], None), ([], None), (["--bogus", "ne-solve"], None),
    *((argv, argv[0]) for argv in RUNS[1:])])
def test_dispatch_builds_only_the_named_commands_subparser(argv, built, capsys, monkeypatch):
    """A named command builds its own parser and no other command's. The
    parser of every command is built only for --help, an unknown or missing
    command, and once to print the usage line after a usage error."""
    seen = []
    full, one = cli._build_parser, cli._command_parser

    def own(name, subparser=None):  # a subparser is the full parser's
        if subparser is None:
            seen.append(name)
        return one(name, subparser)
    monkeypatch.setattr(cli, "_build_parser", lambda: seen.append(None) or full())
    monkeypatch.setattr(cli, "_command_parser", own)
    runs = argv in RUNS
    assert dispatch(argv) == (0 if runs else 64)
    assert seen == [built] * (built is not None) + [None] * (built is None or not runs)


def test_config_key_types_are_the_field_annotations():
    """An int field refuses a float and a bool, a float field a bool and a
    string, and only the optional field takes null."""
    for f in dataclasses.fields(ScenarioParams):
        assert f.type in ("int", "float", "float | None"), f.name
        if f.type == "int":
            for value in (2.5, True, None):
                with pytest.raises(ConfigError, match="expected an integer"):
                    config_from_mapping({f.name: value})
        else:
            for value in (True, "1", [1.0]):
                with pytest.raises(ConfigError, match="expected a number"):
                    config_from_mapping({f.name: value})
            if f.type == "float":
                with pytest.raises(ConfigError, match="expected a number"):
                    config_from_mapping({f.name: None})
    assert config_from_mapping({"total_bandwidth_hz": None}) == ScenarioParams()


def _raise(exc):
    def runner(*args, **kwargs):
        raise exc
    return runner


@pytest.mark.parametrize("exc, status, first_cell", [
    (experiments.NoEquilibriumError("no equilibrium here"), 3, "no-equilibrium"),
    (cli.UnattainableGuaranteeError(1e6, 0.9, 0.5), 3, "infeasible"),
    (ValueError("plain refusal"), 2, None),
], ids=["no-equilibrium", "infeasible", "value-error"])
@pytest.mark.parametrize("command", ["ne-solve", "sweep-loss"])
def test_dispatch_maps_each_refusal_to_its_exit_status(capsys, monkeypatch,
                                                       command, exc, status, first_cell):
    if command == "ne-solve":
        monkeypatch.setattr(experiments, "ne_table", _raise(exc))
    else:
        _, window, text = cli._SWEEPS[command]
        monkeypatch.setitem(cli._SWEEPS, command, (_raise(exc), window, text))
    got, out, err = run([command], capsys)
    assert got == status
    assert "Traceback" not in err
    if first_cell is None:
        assert out == ""
        assert err == f"prospect-pricing: error: {exc}\n"
    else:
        assert out == f"status,detail\n{first_cell},{format_cell(str(exc))}\n"
        assert err == ""


def test_out_to_a_directory_exits_2(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "prospect_pricing", "ne-solve",
                           "--out", str(tmp_path)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"prospect-pricing: error: cannot write output file {str(tmp_path)!r}: ")


def test_out_under_a_missing_directory_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "ne.csv")
    status, out, err = run(["ne-solve", "--out", path], capsys)
    assert status == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"prospect-pricing: error: cannot write output file {path!r}: ")
    assert "No such file or directory" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_full_stdout_exits_2():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "prospect_pricing", "ne-solve"],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "prospect-pricing: error: cannot write output file '<stdout>': ")
    assert "Traceback" not in proc.stderr


def test_fit_pwf_infinite_fps_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    records = ("packet_loss_pct,delay_ms,rating_mean,rating_dev,fps_mean,fps_dev\n"
               "0,0,3.5,0.5,inf,1\n"
               "2,40,3.0,0.5,20,1\n")
    # one valid record besides the infinite one, and two
    for text in (records, records + "1,0,2.0,1.0,10,1\n"):
        path.write_text(text)
        status, out, err = run(["fit-pwf", "--data", str(path)], capsys)
        assert status == 2
        assert out == ""
        assert err == "prospect-pricing: error: valid records need a finite fps_mean\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", list(cli._SWEEPS))
def test_sweeps_refuse_an_alpha_whose_reciprocal_overflows(capsys, command):
    """Below 1/DBL_MAX an alpha passes every (0, 1] check, but 1/alpha is inf:
    sweep-price printed price_realloc_norm -1e-09 at 5e-324, and 0.408463192
    at 1e-300. It is refused with exit status 2, before any row."""
    status, out, err = run([command, "--alpha-min", "5e-324", "--alpha-max", "5e-324"], capsys)
    assert status == 2
    assert out == ""
    assert err == ("prospect-pricing: error: alpha must lie in (0, 1] with a finite "
                   "reciprocal, got 5e-324\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", ["1e-300", "1e-200", "1e-100", "1e-20", "4e-13"])
@pytest.mark.parametrize("command", list(cli._SWEEPS))
def test_sweeps_solve_at_a_tiny_alpha(capsys, command, alpha):
    """An alpha_min below the grid's 12-decimal rounding is swept as given."""
    status, out, err = run([command, "--alpha-min", alpha, "--alpha-max", alpha], capsys)
    assert status == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows and all(cells[0] == alpha for cells in rows)
    assert not {"nan", "inf", "-inf"} & {c.lower() for cells in rows for c in cells}
