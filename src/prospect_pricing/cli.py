"""Command-line entry point: config parsing, seeding, dispatch, CSV output."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import experiments
from .channel import UnattainableGuaranteeError
from .experiments import (DEFAULT_ALPHA_STEP, DEFAULT_RANGE_ADMISSION,
                          DEFAULT_RANGE_COMPARISON, DEFAULT_RANGE_EXPANSION,
                          DEFAULT_RANGE_LOSS, DEFAULT_RANGE_PRICE, NoEquilibriumError,
                          ScenarioParams, SweepSpec, SweepTable, build_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64


class ConfigError(ValueError):
    pass


def config_from_mapping(data: dict) -> ScenarioParams:
    # the field annotations as written: "int", "float" or "float | None"
    types = {f.name: f.type for f in dataclasses.fields(ScenarioParams)}
    for key in data:
        if key not in types:
            raise ConfigError(f"unknown config key: {key!r}")
    coerced = {}
    for key, value in data.items():
        if types[key] == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"invalid config value for {key!r}: expected an integer")
            coerced[key] = value
        elif value is None and types[key] == "float | None":
            coerced[key] = None
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"invalid config value for {key!r}: expected a number")
            coerced[key] = float(value)
    try:
        return ScenarioParams(**coerced)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str) -> ScenarioParams:
    """Load a JSON config; an empty file (or the name 'default') means defaults."""
    if path == "default":
        return ScenarioParams()
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not text.strip():
        return ScenarioParams()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return config_from_mapping(data)


def serialize_config(params: ScenarioParams) -> str:
    return json.dumps(dataclasses.asdict(params), indent=2, sort_keys=True) + "\n"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# command -> (runner, default alpha window, help)
_SWEEPS = {
    "sweep-loss": (experiments.sweep_revenue_loss, DEFAULT_RANGE_LOSS,
                   "revenue lost when the offer is priced for unweighted users"),
    "sweep-price": (experiments.sweep_price, DEFAULT_RANGE_PRICE,
                    "highest posted price users still accept, per exponent"),
    "sweep-expansion": (experiments.sweep_expansion, DEFAULT_RANGE_EXPANSION,
                        "bandwidth needed to win the revenue back by expansion"),
    "sweep-admission": (experiments.sweep_admission, DEFAULT_RANGE_ADMISSION,
                        "revenue recovery by dropping the costliest users"),
    "sweep-compare": (experiments.sweep_comparison, DEFAULT_RANGE_COMPARISON,
                      "bandwidth and revenue of every recovery strategy"),
}


# command -> help, in the order --help lists them
_COMMANDS = {"ne-solve": "solve the pricing game once",
             **{name: text for name, (_, _, text) in _SWEEPS.items()},
             "fit-pwf": "fit the weighting exponent to rating data"}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of command's subparser alone."""
    # a fixed help column, 19: Python 3.13's argparse moves the default to 21
    parser = _Parser(prog="prospect-pricing",
                     description="Spectrum-pricing game solver and sweep runner",
                     formatter_class=lambda prog: argparse.HelpFormatter(
                         prog, max_help_position=19))
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in _COMMANDS if command is None else [command]:
        p = sub.add_parser(name, help=_COMMANDS[name])
        p.add_argument("--config", default=None,
                       help="JSON config path, or 'default' for built-ins")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        if name in _SWEEPS:
            for flag in ("--alpha-min", "--alpha-max", "--alpha-step"):
                p.add_argument(flag, type=float, default=None)
        if name == "sweep-admission":
            p.add_argument("--max-drops", type=int, default=3)
        if name == "fit-pwf":
            p.add_argument("--data", default=None,
                           help="ratings/fps CSV (default: bundled dataset)")
    return parser


def _write_table(table: SweepTable, out: str | None) -> None:
    if out is None:
        experiments.write_csv(sys.stdout, table.header, table.rows)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            experiments.write_csv(f, table.header, table.rows)


def _diagnostic(status: str, exc: Exception) -> SweepTable:
    return SweepTable(("status", "detail"), ((status, str(exc)),))


def _run(args) -> tuple[SweepTable, int]:
    """The command's table and exit status; every refusal is raised for dispatch."""
    params = ScenarioParams() if args.config is None else parse_config(args.config)
    if args.seed is not None:
        params = dataclasses.replace(params, seed=args.seed)

    if args.command == "fit-pwf":
        if args.data is None:
            records = experiments.bundled_psych_records()
        else:
            try:
                with open(args.data, "r", encoding="utf-8") as f:
                    records = experiments.load_psych_records(f)
            except OSError as exc:
                raise ConfigError(f"cannot read data file {args.data!r}: {exc}") from exc
        return experiments.fit_table(records), EXIT_OK

    scenario = build_scenario(**dataclasses.asdict(params))
    if args.command == "ne-solve":
        table = experiments.ne_table(scenario)
        _, n_served, _ = table.rows[0]
        # the solver serves nobody exactly when the game has no equilibrium
        return table, EXIT_OK if n_served else EXIT_INFEASIBLE

    runner, (amin_default, amax_default), _ = _SWEEPS[args.command]
    amin = amin_default if args.alpha_min is None else args.alpha_min
    amax = amax_default if args.alpha_max is None else args.alpha_max
    step = DEFAULT_ALPHA_STEP if args.alpha_step is None else args.alpha_step
    if not 0.0 < step < math.inf:
        raise _UsageError("--alpha-step must be finite and > 0")
    if not 0.0 < amin <= amax <= 1.0:
        raise _UsageError("alpha range must satisfy 0 < min <= max <= 1")
    try:
        spec = SweepSpec(scenario=scenario, alpha_min=amin, alpha_max=amax,
                         alpha_step=step, offer_margin=params.bandwidth_margin)
    except ValueError as exc:  # range and step are valid, so the grid is too long or fine
        raise _UsageError(f"--alpha-step: {exc}") from exc
    extra = {"max_drops": args.max_drops} if args.command == "sweep-admission" else {}
    return runner(spec, **extra), EXIT_OK


def dispatch(argv: list[str] | None = None) -> int:
    """Run one command; the one place a refusal becomes an exit status: usage
    64; no equilibrium or an unattainable guarantee 3, with a status,detail
    row; any other ValueError, or an unwritable --out, 2 with its message."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs its own subparser only; --help, an unknown
    # command and a missing one need them all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return exc.code
        if args.command is None:
            raise _UsageError("a subcommand is required")
        table, status = _run(args)
    except _UsageError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return EXIT_USAGE
    except NoEquilibriumError as exc:
        table, status = _diagnostic("no-equilibrium", exc), EXIT_INFEASIBLE
    except UnattainableGuaranteeError as exc:
        table, status = _diagnostic("infeasible", exc), EXIT_INFEASIBLE
    except ValueError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return EXIT_CONFIG
    try:
        _write_table(table, args.out)
    except BrokenPipeError:
        # the reader stopped early (`| head`); point stdout at devnull so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        path = "<stdout>" if args.out is None else args.out
        sys.stderr.write(f"{parser.prog}: error: cannot write output file {path!r}: {exc}\n")
        return EXIT_CONFIG
    return status


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
