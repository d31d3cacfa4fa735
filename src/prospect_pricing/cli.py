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
                          ScenarioParams, SweepSpec, SweepTable)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64


class ConfigError(ValueError):
    pass


def config_from_mapping(data: dict) -> ScenarioParams:
    names = {f.name for f in dataclasses.fields(ScenarioParams)}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown config key: {key!r}")
    try:
        return ScenarioParams(**data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_config(path: str) -> dict:
    """A JSON config's object; an empty file (or the name 'default') means defaults."""
    if path == "default":
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not text.strip():
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return data


def parse_config(path: str) -> ScenarioParams:
    """Load a JSON config; an empty file (or the name 'default') means defaults."""
    return config_from_mapping(_read_config(path))


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


def _command_parser(name: str, parser: _Parser | None = None) -> _Parser:
    """Command name's options on parser, its subparser, or on its own parser made like one."""
    p = _Parser(prog=f"prospect-pricing {name}") if parser is None else parser
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
    return p


def _build_parser() -> _Parser:
    """Every command's parser: for --help, an unknown or missing command, and usage lines."""
    # a fixed help column, 19: Python 3.13's argparse moves the default to 21
    parser = _Parser(prog="prospect-pricing",
                     description="Spectrum-pricing game solver and sweep runner",
                     formatter_class=lambda prog: argparse.HelpFormatter(
                         prog, max_help_position=19))
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, text in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=text))
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
    config = {} if args.config is None else _read_config(args.config)
    if args.seed is not None:
        config = {**config, "seed": args.seed}
    # the one ScenarioParams a command builds, so a config is validated once
    params = config_from_mapping(config)

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

    scenario = experiments._scenario(params)
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
    # a named command needs its own parser only; --help, an unknown command,
    # a missing one and a usage error's usage line need the full parser
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _build_parser() if name is None else _command_parser(name)
    try:
        try:
            args = parser.parse_args(argv[1:] if name else argv, argparse.Namespace(command=name))
        except SystemExit as exc:  # --help
            return exc.code
        if args.command is None:
            raise _UsageError("a subcommand is required")
        table, status = _run(args)
    except _UsageError as exc:
        sys.stderr.write(f"prospect-pricing: error: {exc}\n")
        sys.stderr.write((_build_parser() if name else parser).format_usage())
        return EXIT_USAGE
    except NoEquilibriumError as exc:
        table, status = _diagnostic("no-equilibrium", exc), EXIT_INFEASIBLE
    except UnattainableGuaranteeError as exc:
        table, status = _diagnostic("infeasible", exc), EXIT_INFEASIBLE
    except ValueError as exc:
        sys.stderr.write(f"prospect-pricing: error: {exc}\n")
        return EXIT_CONFIG
    try:
        _write_table(table, args.out)
    except BrokenPipeError:
        # the reader stopped early (`| head`); point stdout at devnull so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        path = "<stdout>" if args.out is None else args.out
        sys.stderr.write(f"prospect-pricing: error: cannot write output file {path!r}: {exc}\n")
        return EXIT_CONFIG
    return status


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
