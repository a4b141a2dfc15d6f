"""Golden digests for the runs no preset reaches: the two non-FIFO miner
orderings under the storage oracle, and miner clock drift.

The scenario is a shortened invoice-demo (genesis two days before the
invoice window) whose mno claims carry non-zero priorities, so that
`priority_then_arrival` moves them ahead of the oracle updates they share a
block with. Each digest is the sha256 of the run's record lines followed by
its trace export. Every case must also differ from the plain run (FIFO,
drift off) under the same measure, so a policy that silently fell back to
FIFO would fail here.
"""

import hashlib
import io
from dataclasses import replace

import pytest

from chaintime.experiment import record_lines
from chaintime.measures import MeasureKind
from chaintime.scenario import INVOICE_START_DUE, MS_PER_DAY, invoice_demo_scenario
from chaintime.sim import run

SEED = 4

# element -> priority of the mno entry that claims it
PRIORITIES = {"start_timer": 1, "send_invoice": 3, "overdue_timer": 2, "patience_cycle": 2}


def short_invoice(ordering: str = "fifo_by_arrival", drift: bool = False):
    base = invoice_demo_scenario()
    genesis = INVOICE_START_DUE - 2 * MS_PER_DAY
    mno, customer = base.participants
    script = tuple(
        replace(entry, priority=PRIORITIES.get(entry.element, 0)) for entry in mno.script
    )
    return replace(
        base,
        network=replace(base.network, genesis_timestamp_ms=genesis, miner_ordering=ordering),
        faults=replace(base.faults, miner_drift_enabled=drift),
        participants=(replace(mno, script=script), customer),
    )


def digest(config, measure: MeasureKind) -> str:
    trace = run(config, SEED, measure)
    exported = io.StringIO()
    trace.export_trace(exported)
    text = "\n".join(record_lines(trace)) + "\n" + exported.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()


CASES = {
    "priority_then_arrival/storage_oracle": (
        "priority_then_arrival", False, MeasureKind.STORAGE_ORACLE,
        "520e6f893da56ca19db25036037d7620fdfd3f4c59293653e58554aee6db3dad",
    ),
    "adversarial_reorder/storage_oracle": (
        "adversarial_reorder", False, MeasureKind.STORAGE_ORACLE,
        "4b767206a07d595527a45810b868a400f8ea31e12f7518447710b2dc838bf042",
    ),
    "drift/block_timestamp": (
        "fifo_by_arrival", True, MeasureKind.BLOCK_TIMESTAMP,
        "3f3f6cf852572536773db4fafc4fd9e25b1d19c5ff8d5f8bb536bf93dff40de7",
    ),
}


@pytest.fixture(scope="module")
def plain_digests():
    measures = {measure for _, _, measure, _ in CASES.values()}
    return {measure: digest(short_invoice(), measure) for measure in measures}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ordering_digest_is_pinned(case, plain_digests):
    ordering, drift, measure, expected = CASES[case]
    got = digest(short_invoice(ordering, drift), measure)
    assert got == expected
    assert got != plain_digests[measure]
