"""Golden digests of the push-oracle update stream, and its tie rules.

The golden scenario is a shortened invoice-demo with two push providers,
both driven: the feed has an outage and a non-zero staleness, and a
bystander ticks alongside it. The mno claims carry priorities so that
`priority_then_arrival` differs from FIFO. Each case pins the sha256 of five
outputs of one run: its record lines, its trace export, its oracle events,
its transaction metadata sorted by id, and its dropped transactions.
"""

import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest

from chaintime.dists import constant
from chaintime.experiment import record_lines
from chaintime.measures import MeasureKind, PushOracleConfig
from chaintime.scenario import (
    INVOICE_START_DUE,
    MS_PER_DAY,
    Participant,
    ScriptEntry,
    deferred_fifo_scenario,
    invoice_demo_scenario,
)
from chaintime.sim import SeedWorld, run

SEED = 2
SO, BT = MeasureKind.STORAGE_ORACLE, MeasureKind.BLOCK_TIMESTAMP
UPDATE = "__oracle_update__"

# element -> priority of the mno entry that claims it
PRIORITIES = {"start_timer": 1, "send_invoice": 3, "overdue_timer": 2, "patience_cycle": 2}


def two_feeds(ordering: str = "fifo_by_arrival", drift: bool = False):
    base = invoice_demo_scenario()
    genesis = INVOICE_START_DUE - 2 * MS_PER_DAY
    mno, customer = base.participants
    script = tuple(
        replace(entry, priority=PRIORITIES.get(entry.element, 0)) for entry in mno.script
    )
    feed = replace(
        base.push_oracles[0],
        staleness_ms=2_500,
        outages=((INVOICE_START_DUE + MS_PER_DAY, INVOICE_START_DUE + 2 * MS_PER_DAY),),
    )
    bystander = PushOracleConfig(provider="bystander", cadence_ms=450_000, active_from_ms=genesis)
    return replace(
        base,
        network=replace(base.network, genesis_timestamp_ms=genesis, miner_ordering=ordering),
        faults=replace(base.faults, miner_drift_enabled=drift),
        participants=(replace(mno, script=script), customer),
        push_oracles=(feed, bystander),
        simulate_unused_oracles=True,
    )


def outputs(trace) -> dict[str, str]:
    exported = io.StringIO()
    trace.export_trace(exported)
    meta = trace.tx_meta
    texts = {
        "records": "\n".join(record_lines(trace)),
        "trace": exported.getvalue(),
        "oracle_events": "\n".join(",".join(map(str, event)) for event in trace.oracle_events),
        "tx_meta": "\n".join(
            f"{tx_id},{meta[tx_id].created_at},{meta[tx_id].sender},"
            f"{meta[tx_id].visible_at},{meta[tx_id].block}"
            for tx_id in sorted(meta)
        ),
        "dropped": ",".join(trace.dropped),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


FIELDS = ("records", "trace", "oracle_events", "tx_meta", "dropped")
CASES = {
    "fifo_by_arrival/plain/storage_oracle": (
        "562f0f35312154deb8ad25160ff3fb3aef962e88ab469fcade9f8728b3ce946c",
        "f5143d87357242877dda95be005f8be694fb112dcb56bee8736c077f822d7722",
        "eaf1f15343eabe5da0f1221b4d54b9d9954835d1ed7566a19f94812587e828ce",
        "679387758290802cf078a34f3e534cf62a2c1e3d91be9100f506be0fdf46a726",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
    "fifo_by_arrival/plain/block_timestamp": (
        "f9b0cafc0ae331f7e1d8a0d404974a5b387fab95595a86a6f577108b81d16659",
        "24908d77f8e81a22668df3bb2a8a833e705088a7234d74685c86b09a9d13d21a",
        "eaf1f15343eabe5da0f1221b4d54b9d9954835d1ed7566a19f94812587e828ce",
        "ab65df70e272b2711c26af20b2739337ce849760cf3eeebb08d52efb4ca04166",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
    "priority_then_arrival/plain/storage_oracle": (
        "a442839e4b66f75dab6e80ea726723a9f2e3e694a556829f26d7afa7a8c09629",
        "7655a0f671d21ecf024b4aa805c104800a5b09677b9d1d78555ee9824796a22a",
        "eaf1f15343eabe5da0f1221b4d54b9d9954835d1ed7566a19f94812587e828ce",
        "c04052320e6b9739f1dfd6bf6bc47fd73eeee9c39f8c052644b2a0d057660575",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
    "priority_then_arrival/plain/block_timestamp": (
        "f9b0cafc0ae331f7e1d8a0d404974a5b387fab95595a86a6f577108b81d16659",
        "24908d77f8e81a22668df3bb2a8a833e705088a7234d74685c86b09a9d13d21a",
        "eaf1f15343eabe5da0f1221b4d54b9d9954835d1ed7566a19f94812587e828ce",
        "ab65df70e272b2711c26af20b2739337ce849760cf3eeebb08d52efb4ca04166",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
    "adversarial_reorder/plain/storage_oracle": (
        "929b17a6280cb173a6db8c198c3a4c1508875b6055242a886ae826ea9d6f142a",
        "22a2a4e513a63b064a5264c791b156ef99839ca69bbcfb518ecbe4c3760d185b",
        "f880b59e8f23b3ea1b040ed3bb161f01f7616a59ef7d49e0d95ec47ccc2477cf",
        "c04052320e6b9739f1dfd6bf6bc47fd73eeee9c39f8c052644b2a0d057660575",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
    "adversarial_reorder/plain/block_timestamp": (
        "f9b0cafc0ae331f7e1d8a0d404974a5b387fab95595a86a6f577108b81d16659",
        "6861fd7dcf9893193f07860dbbf7122fd6b697b182ba1d77a13c0d823b66c76d",
        "56e9e8e4148b2927b88d05a4dffb689f4e84c5c5a90f02894b0bf5d2be8de11d",
        "ab65df70e272b2711c26af20b2739337ce849760cf3eeebb08d52efb4ca04166",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
    "fifo_by_arrival/drift/storage_oracle": (
        "562f0f35312154deb8ad25160ff3fb3aef962e88ab469fcade9f8728b3ce946c",
        "6aa4259a1180fe77aea135b178b22572cb6290b905c74ef835ec8693469a3968",
        "eaf1f15343eabe5da0f1221b4d54b9d9954835d1ed7566a19f94812587e828ce",
        "679387758290802cf078a34f3e534cf62a2c1e3d91be9100f506be0fdf46a726",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
    "fifo_by_arrival/drift/block_timestamp": (
        "5a069f5b882cfcc5617a8b616588e0cde5b3d34a6859f58df6c2297fb1a5df22",
        "0aaacaecf830ad909b9c9a53f0f44cf72243ac1b887c42c3bddc918a8cb4b5de",
        "eaf1f15343eabe5da0f1221b4d54b9d9954835d1ed7566a19f94812587e828ce",
        "ab65df70e272b2711c26af20b2739337ce849760cf3eeebb08d52efb4ca04166",
        "12b6c0817f87d0a79819c9e3c3c60789767dd30ee793949c2789bbf41a679091",
    ),
}


def block_contents(trace) -> list[list[str]]:
    """The senders of each non-empty block, in block order."""
    return [[tx.sender for tx in txs] for _, txs in sorted(trace.chain.txs.items())]


@pytest.mark.parametrize("case", sorted(CASES))
def test_update_stream_digests_are_pinned(case):
    ordering, drift, measure = case.split("/")
    trace = run(two_feeds(ordering, drift == "drift"), SEED, MeasureKind(measure))
    assert outputs(trace) == dict(zip(FIELDS, CASES[case]))
    blocks = block_contents(trace)
    updates = [sum(s.startswith("oracle:") for s in senders) for senders in blocks]
    assert any(n >= 2 for n in updates)
    assert any(0 < n < len(senders) for n, senders in zip(updates, blocks))
    if ordering == "adversarial_reorder":
        # a block of two or more updates and a claim: it has a seal event of
        # its own, and the claim's must not seal it a second time
        assert any(2 <= n < len(senders) for n, senders in zip(updates, blocks))
        ids = [tx.id for txs in trace.chain.txs.values() for tx in txs]
        assert len(ids) == len(set(ids))
    assert trace.dropped
    # one record per transaction: the chain's blocks hold the tx_meta objects
    # of claims and callbacks, and updates equal to tx_meta's, built again
    meta = trace.tx_meta
    for number, txs in trace.chain.txs.items():
        assert all(tx.block == number for tx in txs)
        assert all(tx == meta[tx.id] if tx.op == UPDATE else tx is meta[tx.id] for tx in txs)
    assert {tx_id for tx_id, tx in meta.items() if tx.block is None} == set(trace.dropped)
    assert len(meta) == sum(map(len, trace.chain.txs.values())) + len(trace.dropped)


@pytest.mark.parametrize("ordering", ["fifo_by_arrival", "adversarial_reorder"])
def test_runs_sharing_a_world_leave_it_as_built(ordering):
    config = two_feeds(ordering)
    world = SeedWorld(config, SEED)
    for measure in (SO, BT, SO):
        trace = run(config, SEED, measure, world=world)
        expected = CASES[f"{ordering}/plain/{measure.value}"]
        assert outputs(trace) == dict(zip(FIELDS, expected))


def test_the_storage_cell_of_a_lone_feed_is_a_view_of_the_update_columns():
    lone = SeedWorld(invoice_demo_scenario(), SEED).updates
    assert lone.kept and np.shares_memory(lone.cell[0], lone.block)
    assert np.shares_memory(lone.cell[1], lone.value)
    # beside a second feed, the cell keeps only oracles.push[0]'s rows
    two = SeedWorld(two_feeds(), SEED).updates
    rows = two.provider[:two.kept] == 0
    assert rows.any() and not rows.all()
    assert two.cell[0].tolist() == two.block[:two.kept][rows].tolist()
    assert two.cell[1].tolist() == two.value[:two.kept][rows].tolist()


def test_a_world_serves_only_its_seed_and_scenario():
    config = two_feeds()
    world = SeedWorld(config, SEED)
    with pytest.raises(ValueError, match="another seed or scenario"):
        run(config, SEED + 1, SO, world=world)
    with pytest.raises(ValueError, match="another seed or scenario"):
        run(replace(config, horizon_ms=config.horizon_ms - 1), SEED, SO, world=world)


def test_late_claim_follows_an_update_of_its_instant():
    # 10 s blocks visible at their start and a 2 s inclusion delay for all.
    # Block 2 (20 000 ms) enables notice, whose zero-delay entry creates a
    # claim at 20 000 ms after that block's seal: after the feed's tick of the
    # same instant. Both become visible at 22 000 ms, so block 3 keeps their
    # submission order.
    base = deferred_fifo_scenario()
    mno = base.participants[0]
    notice = ScriptEntry(element="notice", on_enabled_delay_ms=0)
    config = replace(
        base,
        network=replace(base.network, inclusion_delay=constant(2_000)),
        push_oracles=(PushOracleConfig(provider="feed", cadence_ms=10_000),),
        measures=(MeasureKind.STORAGE_ORACLE,),
        participants=(mno, Participant(name="customer", script=(notice,))),
    )
    trace = run(config, seed=0)
    blocks = {n: [tx.id for tx in txs] for n, txs in trace.chain.txs.items()}
    assert blocks[3] == ["oracle:feed-2", "customer-0"]


def test_claims_ahead_of_an_update_read_before_it():
    # 10 s blocks visible at their start, no inclusion delay: the claims at
    # 12 000 and 14 000 ms and the feed's 17 000 ms tick all make block 2, in
    # that order, so both claims read the 7 000 ms tick of block 1
    base = deferred_fifo_scenario()
    claimants = tuple(
        Participant(name=name, script=(ScriptEntry(element="start_timer", at_ms=at),))
        for name, at in (("a", 12_000), ("b", 14_000))
    )
    config = replace(
        base,
        push_oracles=(PushOracleConfig(provider="feed", cadence_ms=10_000, active_from_ms=7_000),),
        measures=(MeasureKind.STORAGE_ORACLE,),
        participants=claimants,
    )
    trace = run(config, seed=0)
    assert [tx.id for tx in trace.chain.txs[2]] == ["a-0", "b-0", "oracle:feed-1"]
    assert [(r.tx_id, r.raw_measured_ms) for r in trace.records] == [("a-0", 7_000), ("b-0", 7_000)]


def test_dropped_transactions_keep_submission_order():
    # a 6 s inclusion delay drops every update ticked after 194 000 ms, and
    # the claim created at 199 000 ms, from the 200 000 ms horizon's chain
    base = deferred_fifo_scenario()
    late = Participant(name="customer", script=(ScriptEntry(element="notice", at_ms=199_000),))
    config = replace(
        base,
        network=replace(base.network, inclusion_delay=constant(6_000)),
        push_oracles=(PushOracleConfig(provider="feed", cadence_ms=5_000),),
        participants=(base.participants[0], late),
        simulate_unused_oracles=True,
    )
    trace = run(config, seed=0)
    assert trace.dropped == ["oracle:feed-39", "customer-0", "oracle:feed-40"]
