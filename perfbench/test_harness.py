"""Tests of the benchmark harness at tiny size.

    python3 -m pytest perfbench/test_harness.py

The invoice-demo based workloads run on a shortened chain (genesis two days
before the invoice window) with slower oracle cadences, so each item takes
a fraction of a second; these items are not pinned and are checked by the
range invariants only. race-sweep runs its real presets.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from chaintime.measures import PushOracleConfig  # noqa: E402
from chaintime.scenario import INVOICE_START_DUE, MS_PER_DAY  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())


def tiny_invoice():
    base = workloads.invoice_demo_scenario()
    genesis = INVOICE_START_DUE - 2 * MS_PER_DAY
    return replace(
        base,
        network=replace(base.network, genesis_timestamp_ms=genesis),
        activation_floor_ms=genesis,
        push_oracles=(replace(base.push_oracles[0], cadence_ms=600_000),),
    )


def tiny_flood():
    base = tiny_invoice()
    bystander = PushOracleConfig(
        provider="bystander", cadence_ms=450_000, active_from_ms=base.network.genesis_timestamp_ms
    )
    return replace(
        base, push_oracles=base.push_oracles + (bystander,), simulate_unused_oracles=True
    )


def tiny_workloads():
    return {
        "invoice-sweep": (workloads.InvoiceSweep(tiny_invoice()), 1),
        "oracle-flood": (workloads.OracleFlood(tiny_flood()), 1),
        "race-sweep": (workloads.RaceSweep(), 1),
        "trace-export": (workloads.TraceExport(tiny_invoice()), 5),
    }


@pytest.fixture(scope="module")
def passes():
    """Per workload: (untraced results, traced results, tracer)."""
    out = {}
    for name, (workload, n_items) in tiny_workloads().items():
        keys = workload.sequence(0)
        items = [next(keys) for _ in range(n_items)]
        untraced = run.run_items(workload, items, {})
        tracer = Tracer()
        with tracer:
            traced = run.run_items(workload, items, {}, tracer)
        out[name] = (untraced, traced, tracer)
    return out


def test_traced_run_repeats_untraced_outputs(passes):
    for name, (untraced, traced, _) in passes.items():
        for plain, wrapped in zip(untraced, traced):
            assert plain.digests == wrapped.digests, name
            assert plain.counts == wrapped.counts, name
            assert plain.counts["runs"] > 0, name
            assert not plain.problems and not wrapped.problems, name


def test_every_span_is_called_on_some_workload(passes):
    called = {
        span for _, _, tracer in passes.values()
        for span, (calls, _, _) in tracer.stats.items() if calls
    }
    assert called == set(SPAN_NAMES)


def test_self_times_account_for_traced_wall(passes):
    for name, (_, traced, tracer) in passes.items():
        self_total = sum(self_s for _, _, self_s in tracer.stats.values())
        root = tracer.stats["bench.item"]
        assert root[0] == len(traced), name
        assert self_total == pytest.approx(root[1], rel=1e-9), name


def test_tracer_uninstalls_every_wrapper():
    from chaintime import experiment, process, sim
    from chaintime.chain import Chain

    before = (sim.run, experiment.run, process.due_times, Chain.__dict__["from_schedule"])
    with Tracer():
        assert sim.run is experiment.run and sim.run is not before[0]
    assert (sim.run, experiment.run, process.due_times,
            Chain.__dict__["from_schedule"]) == before


def test_metric_names_match_benchmark_json(passes):
    untraced, traced, tracer = passes["race-sweep"]
    e2e, _ = run.end_to_end(untraced, group=1, setup_s=0.1, peak_rss_mb=40.0)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for name, (_, unit) in e2e.items():
        assert unit == next(m["unit"] for m in BENCHMARK["end_to_end"] if m["name"] == name)
    layers = run.per_layer(tracer, untraced, traced)
    assert [(n, u) for n, (_, u) in layers.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_sequence_is_seeded_and_starts_with_the_pinned_pool():
    workload = workloads.TraceExport(tiny_invoice())
    pool = workload.pool("default")

    def first(seed, n):
        keys = workload.sequence(seed)
        return [next(keys) for _ in range(n)]

    assert first(3, 40) == first(3, 40)
    assert first(3, 40) != first(4, 40)
    head = first(3, len(pool) + 5)
    assert sorted(head[:len(pool)]) == pool
    assert all(key >= workloads.UNPINNED_BASE for key in head[len(pool):])
    # groups of five keep one run of every measure together
    assert [key % 5 for key in head] == [0, 1, 2, 3, 4] * (len(head) // 5)


def test_pinned_digests_are_checked():
    result = workloads.RaceSweep().run_item(0)
    expected = PINNED["race-sweep"]["default"]["0"]
    result.check_pinned(expected)
    assert result.problems == []
    tampered = json.loads(json.dumps(expected))
    tampered["digests"]["records"] = "0" * 64
    tampered["counts"]["records"] += 1
    result.check_pinned(tampered)
    assert len(result.problems) == 2
