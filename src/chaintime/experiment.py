"""Batch experiments: seed sweeps, outcome aggregation, and report output.

Sweeps aggregate incrementally so that large traces never accumulate in
memory; a per-run callback lets callers inspect each trace before it is
discarded. All emitted text is byte-deterministic for a given config and
seed list.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, IO, Iterable

from .measures import MeasureKind
from .process import ABSOLUTE, CYCLE, DEFERRED_CHOICE, RELATIVE, GuardRecord, Outcome
from .scenario import ScenarioConfig
from .sim import RunTrace, SeedWorld, run

CONSTRAINT_ORDER = (ABSOLUTE, RELATIVE, CYCLE, DEFERRED_CHOICE)

RECORD_HEADER = "scenario,seed,measure,constraint,element,ground_truth_ms,measured_ms,outcome"
# the count columns tp..stuck follow Outcome's declaration order
REPORT_HEADER = (
    "measure,constraint_type,tp,tn,fp,fn,match,mismatch,stuck,"
    "mean_abs_err_ms,max_abs_err_ms"
)


@dataclass
class CellStats:
    """Aggregated outcomes for one (measure, constraint type) pair."""

    counts: Counter[Outcome] = field(default_factory=Counter)
    err_sum: int = 0
    err_count: int = 0
    err_max: int = 0

    def add(self, record: GuardRecord) -> None:
        self.counts[record.outcome] += 1
        if record.measured_ms is not None and record.ground_truth_ms is not None:
            err = abs(record.measured_ms - record.ground_truth_ms)
            self.err_sum += err
            self.err_count += 1
            self.err_max = max(self.err_max, err)

    @property
    def mean_abs_err(self) -> float | None:
        return self.err_sum / self.err_count if self.err_count else None


@dataclass
class MetricsReport:
    """Sweep results: one CellStats per (measure, constraint type)."""

    scenario: str
    seeds: tuple[int, ...]
    cells: dict[tuple[MeasureKind, str], CellStats] = field(default_factory=dict)
    runs: int = 0

    def cell(self, measure: MeasureKind, constraint: str) -> CellStats:
        return self.cells.setdefault((measure, constraint), CellStats())

    def add_trace(self, trace: RunTrace) -> None:
        self.runs += 1
        for record in trace.records:
            self.cell(trace.measure, record.constraint_type).add(record)

    def sorted_keys(self) -> list[tuple[MeasureKind, str]]:
        measure_rank = {m: i for i, m in enumerate(MeasureKind)}
        constraint_rank = {c: i for i, c in enumerate(CONSTRAINT_ORDER)}
        return sorted(
            self.cells,
            key=lambda key: (measure_rank[key[0]], constraint_rank[key[1]]),
        )


def sweep(
    config: ScenarioConfig, seeds: Iterable[int], per_run: Callable[[RunTrace], None] | None = None
) -> MetricsReport:
    """Run every (seed, config.measures) combination, aggregating as it goes;
    the runs of one seed share its world. To sweep other measures, pass
    dataclasses.replace(config, measures=...)."""
    seed_list = tuple(seeds)
    report = MetricsReport(scenario=config.name, seeds=seed_list)
    for seed in seed_list:
        world = SeedWorld(config, seed)
        for measure in config.measures:
            trace = run(config, seed, measure, world=world)
            report.add_trace(trace)
            if per_run is not None:
                per_run(trace)
    return report


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------

def _parse_record(line: str) -> tuple[str, int, GuardRecord]:
    """A record-stream line back as its scenario, seed and the record fields
    a report aggregates; raises ValueError naming the malformed field."""
    parts = line.split(",")
    if len(parts) != 8:
        raise ValueError("malformed record line")
    scenario, seed, measure, constraint, element, truth, measured, outcome = parts
    return scenario, _parse_field("seed", seed, _parse_int), GuardRecord(
        element=element,
        constraint_type=_parse_field("constraint", constraint, _parse_constraint),
        measure_kind=_parse_field("measure", measure, MeasureKind),
        outcome=_parse_field("outcome", outcome, Outcome),
        ground_truth_ms=_parse_field("ground_truth_ms", truth, _parse_int) if truth else None,
        measured_ms=_parse_field("measured_ms", measured, _parse_int) if measured else None,
    )


def _parse_field(name: str, text: str, parse):
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"invalid {name} {text!r}") from None


def _parse_int(text: str) -> int:
    """An integer as record_lines writes it: ASCII digits after an optional
    '-', which int() alone would also take with '+', '_' or blanks."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise ValueError(text)
    return int(text)


def _parse_constraint(text: str) -> str:
    if text not in CONSTRAINT_ORDER:
        raise ValueError(text)
    return text


def _record_line(scenario: str, seed: int, record: GuardRecord) -> str:
    """One decision as a record-stream line; _parse_record reads it back."""
    truth = "" if record.ground_truth_ms is None else record.ground_truth_ms
    measured = "" if record.measured_ms is None else record.measured_ms
    return (
        f"{scenario},{seed},{record.measure_kind.value},{record.constraint_type},"
        f"{record.element},{truth},{measured},{record.outcome.value}"
    )


def record_lines(trace: RunTrace) -> list[str]:
    """One decision per line, in the documented record-stream format."""
    return [_record_line(trace.scenario, trace.seed, record) for record in trace.records]


def write_records(trace: RunTrace, stream: IO[str]) -> None:
    stream.write(RECORD_HEADER + "\n")
    for line in record_lines(trace):
        stream.write(line + "\n")


def read_records(files: Iterable[tuple[str, str]]) -> MetricsReport:
    r"""Aggregate record files, given as (path, text) pairs, as write_records
    writes them: lines end at '\n' alone, a header line starts a run, seeds
    come from the seed column, and the scenario titles the report when the
    records name one. A bad line raises ValueError("path:line: reason")."""
    report = MetricsReport(scenario="records", seeds=())
    scenarios, seeds = set(), set()
    for path, text in files:
        for lineno, line in enumerate(text.split("\n"), 1):
            if line == RECORD_HEADER:
                report.runs += 1
            elif line:
                try:
                    scenario, seed, record = _parse_record(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                scenarios.add(scenario)
                seeds.add(seed)
                report.cell(record.measure_kind, record.constraint_type).add(record)
    if len(scenarios) == 1:
        (report.scenario,) = scenarios
    report.seeds = tuple(sorted(seeds))
    return report


def emit_report(report: MetricsReport, fmt: str = "csv") -> str:
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}; use 'csv' or 'markdown'")


def _row(measure: MeasureKind, constraint: str, stats: CellStats) -> list[str]:
    mean = stats.mean_abs_err
    return [
        measure.value,
        constraint,
        *(str(stats.counts[outcome]) for outcome in Outcome),
        "" if mean is None else f"{mean:.3f}",
        "" if stats.err_count == 0 else str(stats.err_max),
    ]


def _emit_csv(report: MetricsReport) -> str:
    lines = [REPORT_HEADER]
    for measure, constraint in report.sorted_keys():
        lines.append(",".join(_row(measure, constraint, report.cells[(measure, constraint)])))
    return "\n".join(lines) + "\n"


# Design-level ratings of each measure in MeasureKind order, asserted from
# qualitative analysis rather than simulation output (more dots = better).
REFERENCE_CRITERIA_RATINGS = {
    "accuracy": (2, 0, 3, 1, 1),
    "trust": (2, 3, 0, 1, 1),
    "immediacy": (3, 3, 3, 3, 0),
    "cost": (3, 3, 2, 0, 0),
    "reliability": (3, 3, 2, 1, 0),
}

REFERENCE_CONSTRAINT_RATINGS = {
    "absolute": (2, 0, 3, 1, 1),
    "relative": (2, 1, 3, 0, 0),
}


def _dots(level: int) -> str:
    return "●" * level + "○" * (3 - level)


def _emit_markdown(report: MetricsReport) -> str:
    out = [
        f"# Sweep report: {report.scenario}",
        "",
        f"Runs: {report.runs} ({len(report.seeds)} seeds)",
        "",
        "## Measured outcomes",
        "",
        "| measure | constraint | TP | TN | FP | FN | Match | Mismatch | Stuck "
        "| mean abs err (ms) | max abs err (ms) |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for measure, constraint in report.sorted_keys():
        row = _row(measure, constraint, report.cells[(measure, constraint)])
        out.append("| " + " | ".join(value or "-" for value in row) + " |")
    out += ["", "## Reference ratings (design-level, not measured)"]
    for title, table in (
        ("criterion", REFERENCE_CRITERIA_RATINGS), ("constraint fit", REFERENCE_CONSTRAINT_RATINGS)
    ):
        out += ["", f"| {title} | " + " | ".join(m.value for m in MeasureKind) + " |"]
        out.append("|---|---|---|---|---|---|")
        out += [
            f"| {name} | " + " | ".join(map(_dots, levels)) + " |"
            for name, levels in table.items()
        ]
    return "\n".join(out) + "\n"
