"""Acceptance suite: one test per criterion, each a single pass/fail line.

Criteria 3, 5, 6, and 7 share one 100-seed sweep of the invoicing demo
(all five measures, faults disabled), audited incrementally with
`check_trace` so traces are not retained.
"""

import io
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from chaintime.chain import Transaction
from chaintime.experiment import check_trace, emit_report, sweep
from chaintime.measures import ChainParams, MeasureKind, PushOracleConfig, TxContext, measure_bn
from chaintime.process import Outcome
from chaintime.scenario import (
    NetworkConfig,
    ScenarioConfig,
    deferred_fifo_scenario,
    deferred_overtake_scenario,
    invoice_demo_scenario,
)
from chaintime.sim import run
from chaintime.timers import (
    CycleAbsTimer,
    CycleRelTimer,
    DateTimer,
    DurationTimer,
    format_timer,
    parse_timer,
)
from chaintime.dists import normal, uniform

SEED_COUNT = 100


@dataclass
class SweepAudit:
    """Incrementally collected facts about the shared demo sweep."""

    problems: dict = field(default_factory=dict)  # measure -> check_trace's lines
    outcomes: Counter = field(default_factory=Counter)  # (measure, outcome) -> count
    pa_constraints: set = field(default_factory=set)
    means: dict = field(default_factory=dict)  # seed -> measure -> mean |raw - s_tx|


def _audit_trace(audit: SweepAudit, config, trace) -> None:
    measure, records = trace.measure, trace.records
    audit.problems.setdefault(measure, []).extend(check_trace(config, trace))
    audit.outcomes.update((measure, record.outcome) for record in records)
    if measure is MeasureKind.PARAMETER:
        audit.pa_constraints.update(record.constraint_type for record in records)
    errors = [abs(record.raw_measured_ms - trace.tx_meta[record.tx_id].created_at)
              for record in records if record.raw_measured_ms is not None]
    audit.means.setdefault(trace.seed, {})[measure] = sum(errors) / len(errors) if errors else 0.0


@pytest.fixture(scope="module")
def demo_audit() -> SweepAudit:
    audit = SweepAudit()
    config = invoice_demo_scenario()
    sweep(config, range(SEED_COUNT), per_run=lambda trace: _audit_trace(audit, config, trace))
    return audit


def test_criterion_01_block_number_extrapolation():
    block = 9_690_267
    mean_block_ms = 15_190
    stated_output = 1_585_465_129_000  # 2020-03-29T06:58:49Z
    actual_mined = 1_584_464_127_000  # 2020-03-17T16:55:27Z
    known_genesis = 1_438_269_973_000  # 2015-07-30T15:26:13Z

    inverted_genesis = stated_output - block * mean_block_ms
    # inverting lands within a second of the chain's real genesis timestamp
    assert abs(inverted_genesis - known_genesis) <= 1_000

    def extrapolate(genesis_ms: int) -> int:
        tx = Transaction(id="q", sender="reader", created_at=actual_mined)
        ctx = TxContext(
            tx=tx,
            block_number=block,
            block_timestamp=actual_mined,
            position_in_block=0,
            chain_params=ChainParams(genesis_ms, mean_block_ms),
        )
        return measure_bn(ctx)

    assert abs(extrapolate(inverted_genesis) - stated_output) <= 120_000
    assert abs(extrapolate(known_genesis) - stated_output) <= 120_000

    gap = stated_output - actual_mined
    assert abs(gap - 1_001_002_000) <= 3_600_000  # the two stated instants, +-1h
    assert 11 < gap / 86_400_000 < 13  # "some 12 days" late


def test_criterion_02_block_time_statistics():
    config = ScenarioConfig(
        name="stats",
        network=NetworkConfig(
            block_time=normal(15_190, 2_710, 4_460, 30_310),
            mining_time=uniform(500, 2_500),
            inclusion_delay=uniform(500, 6_000),
        ),
        horizon_ms=160_000_000,
        measures=(MeasureKind.BLOCK_TIMESTAMP,),
    )
    trace = run(config, seed=0)
    out = io.StringIO()
    trace.export_trace(out)
    # independent statistics pass over the exported text, not the arrays
    timestamps = []
    for line in out.getvalue().splitlines():
        if line.startswith("block,"):
            _, _, ts, _ = line.split(",")
            timestamps.append(int(ts))
    assert len(timestamps) >= 10_000
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])][:10_000]
    mean = sum(gaps) / len(gaps)
    assert 14_900 <= mean <= 15_500
    assert min(gaps) >= 4_460 and max(gaps) <= 30_310


def test_criterion_03_measure_value_ranges(demo_audit):
    # every measured value is its exact definition, which lies in the paper's range
    assert demo_audit.problems == {measure: [] for measure in MeasureKind}


def test_criterion_04_classification_oracle():
    from chaintime.process import classify_absolute

    rng = np.random.default_rng(12345)
    triples = rng.integers(0, 1_000_000_000, size=(100_000, 3))
    outcomes = Counter()
    for s_tx, s_e, measured in triples.tolist():
        truth = s_e <= s_tx
        reported = s_e <= measured
        expected = {
            (True, True): Outcome.TP,
            (False, False): Outcome.TN,
            (False, True): Outcome.FP,
            (True, False): Outcome.FN,
        }[(truth, reported)]
        got = classify_absolute(s_tx, s_e, measured)
        assert got is expected
        outcomes[got] += 1
    # the four outcomes partition the sampled space
    assert sum(outcomes.values()) == 100_000
    assert set(outcomes) <= {Outcome.TP, Outcome.TN, Outcome.FP, Outcome.FN}


def test_criterion_05_parameter_measure_is_perfect(demo_audit):
    assert demo_audit.pa_constraints >= {"absolute", "relative", "cycle", "deferred_choice"}
    for outcome in (Outcome.FP, Outcome.FN, Outcome.MISMATCH):
        assert demo_audit.outcomes[(MeasureKind.PARAMETER, outcome)] == 0


def test_criterion_06_bt_false_positive_characterization(demo_audit):
    # BT measures s_i and each outcome is re-derived, so FP iff s_tx < s_e <= s_i
    assert demo_audit.problems[MeasureKind.BLOCK_TIMESTAMP] == []
    assert demo_audit.outcomes[(MeasureKind.BLOCK_TIMESTAMP, Outcome.FP)] > 0


def test_criterion_07_accuracy_ordering(demo_audit):
    assert len(demo_audit.means) == SEED_COUNT
    ok = 0
    for per_measure in demo_audit.means.values():
        pa = per_measure[MeasureKind.PARAMETER]
        bt = per_measure[MeasureKind.BLOCK_TIMESTAMP]
        bn = per_measure[MeasureKind.BLOCK_NUMBER]
        so = per_measure[MeasureKind.STORAGE_ORACLE]
        ro = per_measure[MeasureKind.REQUEST_RESPONSE_ORACLE]
        if pa < bt < min(so, ro) and bn == max(per_measure.values()):
            ok += 1
    assert ok >= 95, f"accuracy ordering held on only {ok}/{SEED_COUNT} seeds"


def test_criterion_08_deferred_choice_overtaking():
    for seed in range(5):
        trace = run(deferred_overtake_scenario(), seed=seed)
        races = [r for r in trace.records if r.constraint_type == "deferred_choice"]
        assert [r.outcome for r in races] == [Outcome.MISMATCH]
    for seed in range(5):
        trace = run(deferred_fifo_scenario(), seed=seed)
        races = [r for r in trace.records if r.constraint_type == "deferred_choice"]
        assert [r.outcome for r in races] == [Outcome.MATCH]


def test_criterion_09_timer_grammar():
    expectations = {
        "2020-12-24T12:00:00Z": DateTimer,
        "P7D": DurationTimer,
        "R/2020-01-01/P1M": CycleAbsTimer,
        "R7/PT24H": CycleRelTimer,
    }
    for text, variant in expectations.items():
        spec = parse_timer(text)
        assert isinstance(spec, variant)
        assert parse_timer(format_timer(spec)) == spec
    assert parse_timer("2020-12-24T12:00:00Z").instant_ms // 1_000 == 1_608_811_200


def test_criterion_10_determinism_and_substream_isolation():
    config = deferred_overtake_scenario()
    seeds = range(5)
    first = emit_report(sweep(config, seeds), "csv")
    second = emit_report(sweep(config, seeds), "csv")
    assert first.encode() == second.encode()

    base_config = invoice_demo_scenario()
    base = run(base_config, seed=0, measure=MeasureKind.BLOCK_TIMESTAMP)
    extended = replace(
        base_config,
        push_oracles=base_config.push_oracles
        + (PushOracleConfig(provider="bystander", cadence_ms=45_000,
                            active_from_ms=base_config.network.genesis_timestamp_ms),),
        simulate_unused_oracles=True,
    )
    other = run(extended, seed=0, measure=MeasureKind.BLOCK_TIMESTAMP)
    assert np.array_equal(base.chain.timestamps, other.chain.timestamps)
    for tx_id, meta in base.tx_meta.items():
        assert other.tx_meta[tx_id] == meta  # pre-existing samples untouched
    assert other.records == base.records
