"""Sweep aggregation and report emission."""

import inspect
import io
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from chaintime.experiment import (
    CONSTRAINT_ORDER,
    MetricsReport,
    RECORD_HEADER,
    REPORT_HEADER,
    _parse_record,
    _record_line,
    emit_report,
    record_lines,
    sweep,
    write_records,
)
from chaintime.measures import MeasureKind
from chaintime.process import GuardRecord, Outcome
from chaintime.scenario import (
    SchemaError,
    deferred_fifo_scenario,
    deferred_overtake_scenario,
    invoice_demo_scenario,
)
from chaintime.sim import run


class TestSweep:
    def test_aggregates_match_individual_runs(self):
        config = deferred_overtake_scenario()
        seeds = (0, 1, 2)
        report = sweep(config, seeds)
        manual_mismatch = 0
        for seed in seeds:
            trace = run(config, seed)
            manual_mismatch += sum(
                1 for r in trace.records if r.outcome.value == "Mismatch"
            )
        cell = report.cells[(MeasureKind.BLOCK_TIMESTAMP, "deferred_choice")]
        assert cell.counts[Outcome.MISMATCH] == manual_mismatch == 3
        assert report.runs == 3

    def test_per_run_callback_sees_every_trace(self):
        seen = []
        sweep(deferred_fifo_scenario(), (0, 1), per_run=lambda t: seen.append(t.seed))
        assert seen == [0, 1]

    def test_config_measures_restrict(self):
        config = replace(invoice_demo_scenario(), measures=(MeasureKind.BLOCK_TIMESTAMP,))
        report = sweep(config, (0,))
        assert report.cells and report.runs == 1
        assert all(measure is MeasureKind.BLOCK_TIMESTAMP for measure, _ in report.cells)

    def test_sweep_has_one_measures_setter(self):
        assert "measures" not in inspect.signature(sweep).parameters

    @pytest.mark.parametrize(
        "measures, path",
        [((MeasureKind.BLOCK_TIMESTAMP, MeasureKind.BLOCK_TIMESTAMP), "measures[1]"),
         ((), "measures")],
    )
    def test_replaced_measures_are_checked_like_the_config(self, measures, path):
        # a repeated measure would count every cell twice
        with pytest.raises(SchemaError) as exc_info:
            replace(deferred_fifo_scenario(), measures=measures)
        assert exc_info.value.path == path


class TestEmission:
    def test_csv_header_and_ordering(self):
        report = sweep(deferred_overtake_scenario(), (0,))
        text = emit_report(report, "csv")
        lines = text.splitlines()
        assert lines[0] == REPORT_HEADER
        constraints = [line.split(",")[1] for line in lines[1:]]
        assert constraints == ["absolute", "deferred_choice"]

    def test_csv_is_deterministic(self):
        config = deferred_overtake_scenario()
        assert emit_report(sweep(config, (0, 1)), "csv") == emit_report(
            sweep(config, (0, 1)), "csv"
        )

    def test_markdown_contains_reference_tables(self):
        report = sweep(deferred_overtake_scenario(), (0,))
        text = emit_report(report, "markdown")
        assert "## Measured outcomes" in text
        assert "Reference ratings (design-level, not measured)" in text
        assert "●●●" in text

    def test_unknown_format_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            emit_report(MetricsReport(scenario="x", seeds=()), "xml")


class TestRecordStream:
    def test_line_shape(self):
        trace = run(deferred_overtake_scenario(), seed=7)
        lines = record_lines(trace)
        assert lines
        for line in lines:
            parts = line.split(",")
            assert len(parts) == 8
            assert parts[0] == "deferred-overtake"
            assert parts[1] == "7"
            assert parts[2] == "block_timestamp"

    def test_write_records_has_header(self):
        trace = run(deferred_overtake_scenario(), seed=0)
        out = io.StringIO()
        write_records(trace, out)
        assert out.getvalue().splitlines()[0] == RECORD_HEADER


names = st.text(min_size=1, max_size=8).filter(lambda s: not set(s) & set(",\r\n"))
times = st.none() | st.integers(-(10**13), 10**13)  # a delta record's times can be negative
guard_records = st.builds(
    GuardRecord,
    element=names,
    constraint_type=st.sampled_from(CONSTRAINT_ORDER),
    measure_kind=st.sampled_from(MeasureKind),
    outcome=st.sampled_from(Outcome),
    ground_truth_ms=times,
    measured_ms=times,
)


@settings(max_examples=300, deadline=None)
@given(names, st.integers(0, 2**32), guard_records)
@example("s", 0, GuardRecord("late", "relative", MeasureKind.PARAMETER, Outcome.FN, None, -1_300))
def test_record_line_round_trips(scenario, seed, record):
    line = _record_line(scenario, seed, record)
    assert _record_line(*_parse_record(line)) == line
