"""Command-line surface: subcommands, formats, and exit codes."""

import copy
import io
import os

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from chaintime.cli import EXIT_OK, EXIT_SCENARIO, main
from chaintime.experiment import RECORD_HEADER, REPORT_HEADER, write_records
from chaintime.measures import MeasureKind
from chaintime.scenario import (
    INVOICE_START_DUE,
    MS_PER_DAY,
    SCENARIO_PRESETS,
    build_config,
    config_to_dict,
    deferred_fifo_scenario,
    deferred_overtake_scenario,
)
from chaintime.sim import run


class TestRun:
    def test_writes_record_stream(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(["run", "--scenario", "deferred-overtake", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == RECORD_HEADER
        assert any(",Mismatch" in line for line in lines)

    @pytest.mark.parametrize("preset, measure, genesis", [
        ("deferred-fifo", "block_timestamp", 0),
        # invoice-demo from two days before the invoice window: 115k blocks,
        # thousands of them holding updates only
        ("invoice-demo", "storage_oracle", INVOICE_START_DUE - 2 * MS_PER_DAY),
    ])
    def test_trace_export(self, tmp_path, preset, measure, genesis):
        tree = config_to_dict(SCENARIO_PRESETS[preset]())
        tree["network"]["genesis_timestamp_ms"] = genesis
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(tree))
        trace_out = tmp_path / "trace.txt"
        code = main(["run", "--scenario", str(scenario), "--seed", "1", "--measure", measure,
                     "--out", str(tmp_path / "records.csv"), "--trace-out", str(trace_out)])
        assert code == EXIT_OK
        expected = io.StringIO()
        run(build_config(tree), 1, MeasureKind(measure)).export_trace(expected)
        assert trace_out.read_bytes() == expected.getvalue().encode()
        assert trace_out.read_bytes().count(b"\ntx,") > (100 if preset == "invoice-demo" else 1)

    def test_unknown_scenario_is_input_error(self, capsys):
        assert main(["run", "--scenario", "missing.yaml"]) == EXIT_SCENARIO
        assert "presets" in capsys.readouterr().err

    def test_unknown_measure_is_input_error(self, capsys):
        code = main(["run", "--scenario", "deferred-fifo", "--measure", "sundial"])
        assert code == EXIT_SCENARIO
        assert "block_timestamp" in capsys.readouterr().err

    def test_malformed_scenario_file_is_input_error_with_path(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "preset: deferred-overtake\n"
            "participants:\n"
            "- name: customer\n"
            "  script:\n"
            "  - element: notice\n"
            "    at_ms: soon\n"
        )
        assert main(["run", "--scenario", str(path)]) == EXIT_SCENARIO
        assert "error: participants[0].script[0].at_ms: " in capsys.readouterr().err

    def test_element_id_with_comma_is_input_error(self, tmp_path, capsys):
        tree = config_to_dict(deferred_overtake_scenario())
        tree["process"]["elements"][1]["id"] = "race,gw"
        tree["process"]["flows"]["start_timer"] = "race,gw"
        path = tmp_path / "comma.yaml"
        path.write_text(yaml.safe_dump(tree))
        out = tmp_path / "records.csv"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_SCENARIO
        assert "error: process.elements[1].id: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("element", ["__callback__", "__oracle_update__"])
    def test_element_named_like_an_oracle_op_runs(self, tmp_path, element):
        # a task writes no guard record of its own; the timer it enables does
        path = tmp_path / "sentinel.yaml"
        path.write_text(yaml.safe_dump({
            "network": {"block_time": {"kind": "constant", "value_ms": 10_000}},
            "process": {
                "start": "start_timer",
                "elements": [
                    {"type": "start_timer", "id": "start_timer", "spec": "1970-01-01T00:00:10Z"},
                    {"type": "task", "id": element, "name": "op", "performer": "mno"},
                    {"type": "timer_catch", "id": "cooldown", "spec": "PT10S"},
                ],
                "flows": {"start_timer": element, element: "cooldown", "cooldown": None},
            },
            "measures": ["block_timestamp"],
            "participants": [{"name": "mno", "script": [
                {"element": "start_timer", "at_ms": 15_000},
                {"element": element, "on_enabled_delay_ms": 1_000},
                {"element": "cooldown", "on_enabled_delay_ms": 30_000},
            ]}],
            "horizon_ms": 200_000,
        }))
        out = tmp_path / "records.csv"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[3], row[4]) for row in rows] == [
            ("absolute", "start_timer"), ("relative", "cooldown"),
        ]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "measure, message",
        [
            ("storage_oracle", "oracles.push: storage_oracle measure needs a push provider"),
            ("request_response_oracle",
             "oracles.pull: request_response_oracle measure needs a pull provider"),
        ],
    )
    def test_measure_without_its_provider_is_input_error(self, capsys, command, measure, message):
        code = main([command, "--scenario", "deferred-overtake", "--measure", measure])
        assert code == EXIT_SCENARIO
        assert f"error: {message}" in capsys.readouterr().err


def unreadable(tmp_path, defect: str) -> str:
    """A path to an input file that cannot be read as text: a directory, or
    bytes that are not UTF-8."""
    if defect == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.txt"
    path.write_bytes("name: caf\xe9\n".encode("latin-1"))
    return str(path)


class TestUnreadableInput:
    @pytest.mark.parametrize("defect", ["directory", "not utf-8"])
    def test_scenario_file(self, tmp_path, capsys, defect):
        path = unreadable(tmp_path, defect)
        assert main(["run", "--scenario", path]) == EXIT_SCENARIO
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["directory", "not utf-8"])
    def test_record_file(self, tmp_path, capsys, defect):
        path = unreadable(tmp_path, defect)
        assert main(["report", path]) == EXIT_SCENARIO
        assert f"error: {path}: " in capsys.readouterr().err

    def test_yaml_syntax_error_names_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("name: x\n  horizon_ms: 5\n")
        assert main(["run", "--scenario", str(path)]) == EXIT_SCENARIO
        assert f"error: {path}:2:13: mapping values are not allowed here" in capsys.readouterr().err

    def test_duplicate_key_names_the_second_one(self, tmp_path, capsys):
        path = tmp_path / "twice.yaml"
        path.write_text("preset: deferred-fifo\nhorizon_ms: 150000\nhorizon_ms: 300000\n")
        assert main(["print-config", "--scenario", str(path)]) == EXIT_SCENARIO
        assert f"error: {path}:3:1: duplicate key 'horizon_ms'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["!!map foo", "!!map [a, b]", "!!set foo"])
    def test_mapping_tag_on_a_non_mapping(self, tmp_path, capsys, value):
        path = tmp_path / "tagged.yaml"
        path.write_text(f"preset: deferred-fifo\nhorizon_ms: {value}\n")
        assert main(["print-config", "--scenario", str(path)]) == EXIT_SCENARIO
        assert f"error: {path}:2:13: expected a mapping node" in capsys.readouterr().err


class TestSweepAndReport:
    def test_sweep_csv(self, capsys):
        code = main(["sweep", "--scenario", "deferred-overtake", "--seeds", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == REPORT_HEADER

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_sweep_of_no_seeds_is_input_error(self, capsys, seeds):
        code = main(["sweep", "--scenario", "deferred-overtake", "--seeds", seeds])
        assert code == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --seeds must be at least 1, got {seeds}" in captured.err

    def test_report_reaggregates_run_output(self, tmp_path, capsys):
        paths = []
        for seed in (0, 1):
            path = tmp_path / f"r{seed}.csv"
            main(["run", "--scenario", "deferred-overtake", "--seed", str(seed),
                  "--out", str(path)])
            paths.append(str(path))
        capsys.readouterr()
        for fmt in ("csv", "markdown"):
            code = main(["sweep", "--scenario", "deferred-overtake", "--seeds", "2",
                         "--format", fmt])
            assert code == EXIT_OK
            swept = capsys.readouterr().out
            code = main(["report", *paths, "--format", fmt])
            assert code == EXIT_OK
            reported = capsys.readouterr().out
            # same decisions in, same counters and error columns out, and in
            # markdown the same title and run and seed counts
            assert reported == swept

    def test_report_reads_run_output_whose_name_holds_other_line_breaks(self, tmp_path, capsys):
        # str.splitlines() also breaks at these; every stream is "\n"-delimited
        tree = config_to_dict(deferred_fifo_scenario())
        tree["name"] = "df\v\f\x1c\x1d\x1e\x85\u2028\u2029x"
        scenario = tmp_path / "breaks.yaml"
        scenario.write_text(yaml.safe_dump(tree), encoding="utf-8")
        records = tmp_path / "records.csv"
        assert main(["run", "--scenario", str(scenario), "--out", str(records)]) == EXIT_OK
        for fmt in ("csv", "markdown"):
            capsys.readouterr()
            assert main(["sweep", "--scenario", str(scenario), "--seeds", "1",
                         "--format", fmt]) == EXIT_OK
            swept = capsys.readouterr().out
            assert main(["report", str(records), "--format", fmt]) == EXIT_OK
            assert capsys.readouterr().out == swept

    def test_report_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,record\n")
        assert main(["report", str(bad)]) == EXIT_SCENARIO
        assert f"{bad}:1: malformed record line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("s,0,parameter,absolute,start,x15000,15000,TP", "invalid ground_truth_ms 'x15000'"),
            ("s,0,parameter,absolute,start,15000,1.5,TP", "invalid measured_ms '1.5'"),
            ("s,0,sundial,absolute,start,15000,15000,TP", "invalid measure 'sundial'"),
            ("s,0,parameter,absolute,start,15000,15000,Maybe", "invalid outcome 'Maybe'"),
            ("s,x,parameter,absolute,start,15000,15000,TP", "invalid seed 'x'"),
            # int() takes these too; record_lines never writes them
            ("s,+0,parameter,absolute,start,1000,1300,FP", "invalid seed '+0'"),
            ("s,0,parameter,absolute,start,1_000,1300,FP", "invalid ground_truth_ms '1_000'"),
            ("s,0,parameter,absolute,start,1000, 1300,FP", "invalid measured_ms ' 1300'"),
            ("s,0,parameter,absolute,start,\u0661\u0660\u0660\u0660,1300,FP",
             "invalid ground_truth_ms '\u0661\u0660\u0660\u0660'"),
            ("s,0,parameter,bogus,start,1000,1300,FP", "invalid constraint 'bogus'"),
        ],
    )
    def test_report_bad_field_is_input_error_with_location(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.csv"
        good = "s,0,parameter,absolute,start,15000,15000,TP"
        bad.write_text(f"{RECORD_HEADER}\n{good}\n{line}\n", encoding="utf-8")
        assert main(["report", str(bad)]) == EXIT_SCENARIO
        assert f"error: {bad}:3: {message}" in capsys.readouterr().err

    def test_report_counts_records_without_times(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text(
            f"{RECORD_HEADER}\n"
            "s,0,parameter,deferred_choice,gate,,,Match\n"
            "s,0,parameter,absolute,start,100,,StuckPending\n"
            "s,0,parameter,absolute,start,100,130,FP\n"
            "s,-1,parameter,relative,wait,-200,-170,TP\n"
        )
        assert main(["report", str(path)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows == [
            "parameter,absolute,0,0,1,0,0,0,1,30.000,30",
            "parameter,relative,1,0,0,0,0,0,0,30.000,30",
            "parameter,deferred_choice,0,0,0,0,1,0,0,,",
        ]


class TestParseTimer:
    def test_structured_output_with_due_times(self, capsys):
        code = main(["parse-timer", "R7/PT24H"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "CycleRelTimer" in out
        assert "canonical: R7/PT24H" in out
        assert "due[4] = 432000000" in out  # fifth daily due from epoch 0

    @pytest.mark.parametrize(
        "text",
        ["banana", "R/9999-12-31/P1M", "R/2020-01-01/P99999999999Y", "R/PT0S",
         "R/2020-01-01/PT0S"],
    )
    def test_invalid_timer_exits_one(self, capsys, text):
        assert main(["parse-timer", text]) == EXIT_SCENARIO


class TestOther:
    def test_print_config_yaml(self, capsys):
        code = main(["print-config", "--scenario", "invoice-demo"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "name: invoice-demo" in out
        assert "assumed_mean_block_time_ms: 15190" in out

    def test_sweep_invoice_markdown(self, capsys):
        code = main(["sweep", "--scenario", "invoice-demo", "--seeds", "1", "--format", "markdown"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Sweep report: invoice-demo" in out
        assert "| parameter |" in out or "parameter" in out

    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


# -- bounded fuzzers: malformed input exits 1, never 2 -------------------------

def _record_file() -> bytes:
    out = io.StringIO()
    for seed in (0, 3):
        write_records(run(deferred_overtake_scenario(), seed), out)
    return out.getvalue().encode()


def _int_leaves(node, path=()):
    """The paths of a config tree's integer leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _int_leaves(value, (*path, key))
        elif isinstance(value, int) and not isinstance(value, bool):
            yield (*path, key)


RECORD_FILE = _record_file()
DEFERRED_TREES = {
    name: config_to_dict(SCENARIO_PRESETS[name]())
    for name in ("deferred-fifo", "deferred-overtake")
}
INT_LEAVES = [(name, path) for name, tree in DEFERRED_TREES.items() for path in _int_leaves(tree)]
FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def byte_edits(draw, data: bytes) -> bytes:
    """data with one byte replaced, inserted or deleted."""
    at = draw(st.integers(0, len(data) - 1))
    byte = bytes([draw(st.integers(0, 255))])
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    tail = data[at + 1:] if edit != "insert" else data[at:]
    return data[:at] + (b"" if edit == "delete" else byte) + tail


@FUZZ
@given(data=byte_edits(RECORD_FILE))
def test_mutated_record_file_exits_zero_or_one(tmp_path, data):
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    assert main(["report", str(path), "--out", os.devnull]) in (EXIT_OK, EXIT_SCENARIO)


@st.composite
def mutated_scenarios(draw) -> bytes:
    """A deferred preset's print-config YAML with one integer set to an
    extreme or with one byte edited."""
    if draw(st.booleans()):
        name, (*keys, last) = draw(st.sampled_from(INT_LEAVES))
        tree = copy.deepcopy(DEFERRED_TREES[name])
        node = tree
        for key in keys:
            node = node[key]
        node[last] = draw(st.sampled_from([2**63, -(2**63), 2**63 - 1, -1, 0]))
        return yaml.safe_dump(tree).encode()
    tree = DEFERRED_TREES[draw(st.sampled_from(sorted(DEFERRED_TREES)))]
    return draw(byte_edits(yaml.safe_dump(tree).encode()))


@FUZZ
@given(data=mutated_scenarios())
def test_mutated_scenario_exits_zero_or_one(tmp_path, data):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(data)
    assert main(["run", "--scenario", str(path), "--out", os.devnull]) in (EXIT_OK, EXIT_SCENARIO)
