"""Command-line front end.

Subcommands: run (one seeded run, record stream out), sweep (seed range,
aggregated report), report (re-aggregate saved record streams), parse-timer
and print-config. Exit codes: 0 success, 1 scenario/input error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import asdict, replace

import yaml

from .experiment import emit_report, read_records, sweep, write_records
from .measures import MeasureKind
from .scenario import (
    SCENARIO_PRESETS,
    SchemaError,
    ScenarioConfig,
    dump_config_yaml,
    load_scenario,
)
from .sim import run
from .timers import TimerParseError, due_times, format_timer, parse_timer

EXIT_OK = 0
EXIT_SCENARIO = 1
EXIT_RUNTIME = 2


class ScenarioInputError(Exception):
    pass


def _unreadable(path: str, exc: Exception) -> ScenarioInputError:
    """An input file that cannot be read as text, or as YAML: named by its
    path, and for a YAML error by the parser's line and column."""
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        return ScenarioInputError(f"{path}:{mark.line + 1}:{mark.column + 1}: {exc.problem}")
    return ScenarioInputError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}")


def _resolve_scenario(name: str) -> ScenarioConfig:
    if name in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[name]()
    try:
        return load_scenario(name)
    except FileNotFoundError:
        raise ScenarioInputError(
            f"no such scenario file or preset: {name!r}; presets: {sorted(SCENARIO_PRESETS)}"
        ) from None
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise _unreadable(name, exc) from None


def _measure_arg(value: str | None) -> MeasureKind | None:
    if value is None:
        return None
    try:
        return MeasureKind(value)
    except ValueError:
        raise ScenarioInputError(
            f"unknown measure {value!r}; valid kinds: {[m.value for m in MeasureKind]}"
        ) from None


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_run(args) -> int:
    config = _resolve_scenario(args.scenario)
    trace = run(config, args.seed, _measure_arg(args.measure))
    records = io.StringIO()
    write_records(trace, records)
    _write_out(args.out, records.getvalue())
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            trace.export_trace(fh)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ScenarioInputError(f"--seeds must be at least 1, got {args.seeds}")
    config = _resolve_scenario(args.scenario)
    seeds = range(args.seed, args.seed + args.seeds)
    measure = _measure_arg(args.measure)
    report = sweep(replace(config, measures=(measure,)) if measure else config, seeds)
    _write_out(args.out, emit_report(report, args.format))
    return EXIT_OK


def _cmd_report(args) -> int:
    files = []
    for path in args.records:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                files.append((path, fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise _unreadable(path, exc) from None
    try:
        report = read_records(files)
    except ValueError as exc:  # a bad line, at its path:line
        raise ScenarioInputError(str(exc)) from None
    _write_out(args.out, emit_report(report, args.format))
    return EXIT_OK


def _cmd_parse_timer(args) -> int:
    try:
        spec = parse_timer(args.text)
    except TimerParseError as exc:
        print(f"parse error at position {exc.position}: {exc.reason}", file=sys.stderr)
        return EXIT_SCENARIO
    fields = ", ".join(f"{k}={v}" for k, v in asdict(spec).items())
    print(f"{type(spec).__name__}({fields})")
    print(f"canonical: {format_timer(spec)}")
    try:
        dues = due_times(spec, args.enablement, limit=5)
    except ValueError as exc:  # a cycle stepped past year 9999
        raise ScenarioInputError(str(exc)) from None
    for i, due in enumerate(dues):
        print(f"due[{i}] = {due}")
    return EXIT_OK


def _cmd_print_config(args) -> int:
    config = _resolve_scenario(args.scenario)
    _write_out(args.out, dump_config_yaml(config))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaintime",
        description="Deterministic simulation of on-chain time measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded run; emits the record stream")
    p_run.add_argument("--scenario", default="invoice-demo")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--measure", default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--trace-out", default=None, help="also export the chain trace")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="seed sweep with aggregated report")
    p_sweep.add_argument("--scenario", default="invoice-demo")
    p_sweep.add_argument("--seed", type=int, default=0, help="first seed")
    p_sweep.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p_sweep.add_argument("--measure", default=None)
    p_sweep.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="aggregate saved record streams")
    p_report.add_argument("records", nargs="+")
    p_report.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)

    p_timer = sub.add_parser("parse-timer", help="parse a timer definition")
    p_timer.add_argument("text")
    p_timer.add_argument(
        "--enablement", type=int, default=0, help="enablement instant for due times (ms)"
    )
    p_timer.set_defaults(func=_cmd_parse_timer)

    p_config = sub.add_parser("print-config", help="show the effective configuration")
    p_config.add_argument("--scenario", default="invoice-demo")
    p_config.add_argument("--out", default=None)
    p_config.set_defaults(func=_cmd_print_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioInputError, SchemaError, TimerParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
