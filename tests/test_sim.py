"""Simulator: schedules, determinism, tx placement, and oracle mechanics."""

import io
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaintime.dists import constant, normal, uniform
from chaintime.measures import MeasureKind, PullOracleConfig, PushOracleConfig
from chaintime.process import Outcome
from chaintime.rng import substream
from chaintime.scenario import (
    INVOICE_START_DUE,
    MS_PER_DAY,
    FaultConfig,
    SchemaError,
    NetworkConfig,
    Participant,
    ScenarioConfig,
    ScriptEntry,
    deferred_fifo_scenario,
    deferred_overtake_scenario,
    invoice_demo_scenario,
)
from chaintime import sim
from chaintime.sim import _SCHEDULE_CHUNK as CHUNK, block_schedule, run

# the gap chunk of reference_block_schedule
REFERENCE_CHUNK = 1 << 16


def plain_config(**kwargs) -> ScenarioConfig:
    defaults = dict(
        name="plain",
        network=NetworkConfig(
            block_time=normal(15_190, 2_710, 4_460, 30_310),
            mining_time=uniform(500, 2_500),
            inclusion_delay=uniform(500, 6_000),
        ),
        horizon_ms=40_000_000,
        measures=(MeasureKind.BLOCK_TIMESTAMP,),
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def short_invoice(**kwargs) -> ScenarioConfig:
    """invoice-demo on two days of history, with a 10-minute feed."""
    base = invoice_demo_scenario()
    genesis = INVOICE_START_DUE - 2 * MS_PER_DAY
    return replace(
        base,
        network=replace(base.network, genesis_timestamp_ms=genesis),
        push_oracles=(replace(base.push_oracles[0], cadence_ms=600_000),),
        **kwargs,
    )


def placements(trace) -> dict[str, tuple[int, int]]:
    """{tx_id: (block, position)} of every included transaction, read from
    the run's trace export."""
    out = io.StringIO()
    trace.export_trace(out)
    where, block, position = {}, None, 0
    for line in out.getvalue().splitlines():
        kind, name = line.split(",", 2)[:2]
        if kind == "block":
            block, position = int(name), 0
        elif kind == "tx":
            where[name] = (block, position)
            position += 1
    return where


def reference_block_schedule(
    config: ScenarioConfig, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(real mining starts, reported timestamps, mining durations).

    Reported timestamps differ from the real starts only when miner clock
    drift is enabled; a running clamp keeps them strictly increasing.
    """
    # sim.block_schedule as it was before its chunks were sized to the chain,
    # verbatim but for the names it reads: fixed 65,536-gap chunks, a mask over
    # the whole chain, and a cap counted in chunks
    MAX_BLOCKS, _SCHEDULE_CHUNK = sim.MAX_BLOCKS, REFERENCE_CHUNK  # noqa: N806
    net = config.network
    rng_block = substream(seed, "chain/block_time")
    genesis = net.genesis_timestamp_ms
    chunks = [np.array([genesis], dtype=np.int64)]
    last = genesis
    while last <= config.horizon_ms:
        if len(chunks) > MAX_BLOCKS // _SCHEDULE_CHUNK:
            raise SchemaError("horizon_ms", f"the chain would pass {MAX_BLOCKS:,} blocks")
        gaps = np.maximum(net.block_time.sample(rng_block, _SCHEDULE_CHUNK), 1)
        chunk = last + np.cumsum(gaps)
        chunks.append(chunk)
        last = int(chunk[-1])
    starts = np.concatenate(chunks)
    starts = starts[starts <= config.horizon_ms]
    n = len(starts)

    rng_mining = substream(seed, "chain/mining")
    mining = net.mining_time.sample(rng_mining, n)
    mining[0] = 0

    if config.faults.miner_drift_enabled:
        rng_drift = substream(seed, "chain/drift")
        drift = rng_drift.integers(
            config.faults.miner_drift_min_ms,
            config.faults.miner_drift_max_ms + 1,
            size=n,
            dtype=np.int64,
        )
        drift[0] = 0
        index = np.arange(n, dtype=np.int64)
        # running clamp: ts_i = max(ts_{i-1} + 1, starts_i + drift_i)
        timestamps = np.maximum.accumulate(starts + drift - index) + index
    else:
        timestamps = starts
    return starts, timestamps, mining


def schedule_config(block_time, mining_time, faults, genesis=0) -> ScenarioConfig:
    """A scenario of these timings; each test sets its horizon."""
    network = NetworkConfig(
        genesis_timestamp_ms=genesis, block_time=block_time, mining_time=mining_time
    )
    return ScenarioConfig(
        name="schedule", network=network, faults=faults, horizon_ms=genesis + 1,
        measures=(MeasureKind.BLOCK_TIMESTAMP,),
    )


def assert_schedule_is_the_reference(config: ScenarioConfig, seed: int) -> None:
    columns = block_schedule(config, seed)
    for column, expected in zip(columns, reference_block_schedule(config, seed), strict=True):
        assert column.dtype == expected.dtype and np.array_equal(column, expected)


def horizon_at(config: ScenarioConfig, seed: int, block: int, offset: int, max_gap: int) -> int:
    """The start of a block of config's chain (the last if it has fewer)
    plus offset, after the genesis; no gap is longer than max_gap."""
    genesis = config.network.genesis_timestamp_ms
    reach = replace(config, horizon_ms=genesis + (block + 1) * max_gap)
    starts = reference_block_schedule(reach, seed)[0]
    return max(genesis + 1, int(starts[min(block, len(starts) - 1)]) + offset)


# the last block of each gap chunk, 64 * (2**k - 1) and then every CHUNK more,
# and of each chunk before they were sized to the chain, every CHUNK
CHUNK_ENDS = (64, 192, 448, 65_472, 131_008, 131_008 + CHUNK, CHUNK, 2 * CHUNK)
NO_DRIFT = FaultConfig()
DRIFT = FaultConfig(miner_drift_enabled=True, miner_drift_min_ms=0, miner_drift_max_ms=40)
# distributions of all three kinds, with gaps short enough for 10**5 blocks
short_dists = st.one_of(
    st.builds(constant, st.just(0) | st.integers(0, 40)),
    st.lists(st.integers(0, 40), min_size=2, max_size=2).map(sorted).map(lambda b: uniform(*b)),
    st.tuples(st.integers(-20, 60), st.integers(0, 30), st.integers(1, 20), st.integers(0, 40))
    .map(lambda t: normal(t[0], t[1], t[2], t[2] + t[3])),
)
drifts = st.just(NO_DRIFT) | st.lists(st.integers(0, 60), min_size=2, max_size=2).map(sorted).map(
    lambda b: replace(DRIFT, miner_drift_min_ms=b[0], miner_drift_max_ms=b[1])
)


class TestBlockSchedule:
    def test_deterministic_per_seed(self):
        config = plain_config()
        a = block_schedule(config, seed=5)
        b = block_schedule(config, seed=5)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)
        c = block_schedule(config, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_gaps_respect_clamp(self):
        starts, _, _ = block_schedule(plain_config(), seed=0)
        gaps = np.diff(starts)
        assert gaps.min() >= 4_460 and gaps.max() <= 30_310

    def test_covers_horizon(self):
        config = plain_config()
        starts, timestamps, mining = block_schedule(config, seed=1)
        assert starts[0] == config.network.genesis_timestamp_ms
        assert starts[-1] <= config.horizon_ms
        assert len(starts) == len(timestamps) == len(mining)
        assert mining[0] == 0

    def test_without_drift_timestamps_equal_starts(self):
        starts, timestamps, _ = block_schedule(plain_config(), seed=2)
        assert np.array_equal(starts, timestamps)
        # nothing writes either column, so they are one array
        assert np.shares_memory(starts, timestamps)

    def test_a_chain_holds_at_most_max_blocks(self, monkeypatch):
        # 10 s blocks from 0: a horizon of (n - 1) * 10 s makes n blocks; a
        # cap of 1,000 blocks falls inside a chunk, 2 * CHUNK after one
        config = deferred_fifo_scenario()
        for cap in (2 * CHUNK, 1_000):
            monkeypatch.setattr(sim, "MAX_BLOCKS", cap)
            starts, _, _ = block_schedule(replace(config, horizon_ms=(cap - 1) * 10_000), 0)
            assert len(starts) == cap
            for blocks in (cap + 1, 2 * CHUNK + 1, 3 * CHUNK + 5):
                with pytest.raises(SchemaError) as exc_info:
                    block_schedule(replace(config, horizon_ms=(blocks - 1) * 10_000), 0)
                assert exc_info.value.path == "horizon_ms"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_gap_chunks_do_not_outlive_the_starts(self, seed):
        # the chunks are freed once concatenated into the starts, so the peak
        # passes the returned columns by a chunk or two of scratch, not by
        # the whole chain again; a short schedule first keeps the first
        # call's one-time allocations out of the measure
        config = invoice_demo_scenario()
        assert not config.faults.miner_drift_enabled
        first_day = config.network.genesis_timestamp_ms + MS_PER_DAY
        block_schedule(replace(config, horizon_ms=first_day), seed)
        tracemalloc.start()
        try:
            columns = block_schedule(config, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum({id(column): column.nbytes for column in columns}.values())
        assert peak - returned <= 2 * CHUNK * np.dtype(np.int64).itemsize

    def test_a_seed_holds_at_most_max_updates(self, monkeypatch):
        # the cap counts ticks before they are drawn, outages aside: 11 from 0
        # to 100 s, and 6 from 50 s of which the outage drops 60 s and 70 s
        feed = PushOracleConfig(provider="feed", cadence_ms=10_000)
        late = replace(feed, provider="late", active_from_ms=50_000, outages=((60_000, 80_000),))
        config = replace(deferred_fifo_scenario(), horizon_ms=100_000, push_oracles=(feed, late))
        monkeypatch.setattr(sim, "MAX_UPDATES", 17)
        assert len(sim.SeedWorld(config, 0).updates.tick) == 15
        for cap, path in ((16, "oracles.push[1].cadence_ms"), (10, "oracles.push[0].cadence_ms")):
            monkeypatch.setattr(sim, "MAX_UPDATES", cap)
            with pytest.raises(SchemaError) as exc_info:
                sim.SeedWorld(config, 0).updates
            assert exc_info.value.path == path

    # constant(0) and uniform(0, 3) gaps hold only by the clamp to 1 ms
    @pytest.mark.parametrize("gaps, max_gap", [
        (constant(0), 1), (uniform(0, 3), 3), (normal(20, 9, 1, 40), 40),
        (constant(10_000), 10_000),
    ])
    @pytest.mark.parametrize("block", [1, 2, *CHUNK_ENDS])
    # 0: on a block's start; -1 at block 1: before the first gap
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("faults", [NO_DRIFT, DRIFT])
    def test_cut_at_a_chunk_end_is_the_reference(self, gaps, max_gap, block, offset, faults):
        config = schedule_config(gaps, uniform(0, 9), faults, genesis=1_000)
        horizon = horizon_at(config, 4, block, offset, max_gap)
        assert_schedule_is_the_reference(replace(config, horizon_ms=horizon), 4)

    @settings(max_examples=100, deadline=None)
    @given(
        short_dists, short_dists, drifts, st.sampled_from([0, 1_546_300_800_000]),
        st.integers(0, 2**32), st.data(),
    )
    def test_any_schedule_is_the_reference(self, gaps, mining, faults, genesis, seed, data):
        config = schedule_config(gaps, mining, faults, genesis)
        max_gap = max(1, gaps.value_ms, gaps.max_ms)
        where = data.draw(st.sampled_from(["anywhere", "on a block", "before the first gap"]))
        if where == "anywhere":
            horizon = genesis + data.draw(st.integers(1, 2_000) | st.integers(1, 2_000_000))
        else:
            block = 1 if where != "on a block" else data.draw(
                st.sampled_from(CHUNK_ENDS) | st.integers(0, 2_000) | st.integers(0, 150_000)
            )
            offset = -1 if where != "on a block" else data.draw(st.sampled_from([-1, 0, 1]))
            horizon = horizon_at(config, seed, block, offset, max_gap)
        assert_schedule_is_the_reference(replace(config, horizon_ms=horizon), seed)

    def test_drift_keeps_timestamps_strictly_increasing(self):
        config = plain_config(
            faults=FaultConfig(
                miner_drift_enabled=True, miner_drift_min_ms=0, miner_drift_max_ms=60_000
            )
        )
        starts, timestamps, _ = block_schedule(config, seed=3)
        assert np.all(np.diff(timestamps) > 0)
        assert np.all(timestamps >= starts)  # non-negative drift only adds
        assert not np.array_equal(starts, timestamps)


class TestRunMechanics:
    def test_same_seed_same_everything(self):
        config = invoice_demo_scenario()
        a = run(config, seed=9, measure=MeasureKind.STORAGE_ORACLE)
        b = run(config, seed=9, measure=MeasureKind.STORAGE_ORACLE)
        assert a.records == b.records
        assert a.oracle_events == b.oracle_events
        assert np.array_equal(a.chain.timestamps, b.chain.timestamps)
        assert a.tx_meta == b.tx_meta

    def test_tx_lands_in_first_block_after_visibility(self):
        config = invoice_demo_scenario()
        trace = run(config, seed=4, measure=MeasureKind.PARAMETER)
        starts = trace.real_starts
        checked = 0
        for meta in trace.tx_meta.values():
            if meta.block is None:
                continue
            assert starts[meta.block] >= meta.visible_at
            if meta.block > 1:
                assert starts[meta.block - 1] < meta.visible_at
            checked += 1
        assert checked > 10

    def test_tx_created_as_its_block_seals_runs_in_the_next_block(self):
        # the claim is created at 20000 ms, when block 1 becomes visible and
        # block 2 (starting at 20000 ms) has already been sealed
        base = deferred_fifo_scenario()
        customer = replace(
            base.participants[1],
            script=(ScriptEntry(element="notice", on_enabled_delay_ms=0),),
        )
        trace = run(replace(base, participants=(base.participants[0], customer)), seed=0)
        meta = trace.tx_meta["customer-0"]
        assert (meta.created_at, meta.visible_at, meta.block) == (20_000, 20_000, 3)
        where = placements(trace)
        for tx_id, meta in trace.tx_meta.items():
            if meta.block is None:
                assert tx_id in trace.dropped and tx_id not in where
            else:
                assert where[tx_id][0] == meta.block
        gateway = next(r for r in trace.records if r.element == "race_gateway")
        assert gateway.winner == "notice" and gateway.outcome is Outcome.MATCH

    def test_genesis_block_stays_empty(self):
        trace = run(deferred_overtake_scenario(), seed=0)
        assert trace.tx_meta
        assert all(block != 0 for block, _ in placements(trace).values())

    def test_storage_oracle_reads_lag_block_timestamp(self):
        config = invoice_demo_scenario()
        trace = run(config, seed=11, measure=MeasureKind.STORAGE_ORACLE)
        guard_records = [r for r in trace.records if r.raw_measured_ms is not None]
        assert guard_records
        for record in guard_records:
            assert record.raw_measured_ms <= int(trace.chain.timestamps[record.block_number])

    def test_storage_oracle_reads_the_first_push_provider(self):
        fresh = PushOracleConfig(provider="fresh", cadence_ms=1_000)
        stale = PushOracleConfig(provider="stale", cadence_ms=1_000, staleness_ms=50_000)
        base = deferred_overtake_scenario()

        def lags(push_oracles):
            # one replace: storage_oracle without a push provider is refused at build
            measures = (MeasureKind.STORAGE_ORACLE,)
            trace = run(replace(base, measures=measures, push_oracles=push_oracles), seed=0)
            read = [r for r in trace.records if r.raw_measured_ms is not None]
            assert read
            return [trace.tx_meta[r.tx_id].created_at - r.raw_measured_ms for r in read]

        # the second provider is a bystander: only oracles.push[0] is read
        assert max(map(abs, lags((fresh, stale)))) < 25_000
        assert min(lags((stale, fresh))) > 25_000

    @pytest.mark.parametrize(
        "measure, path",
        [(MeasureKind.STORAGE_ORACLE, "oracles.push"),
         (MeasureKind.REQUEST_RESPONSE_ORACLE, "oracles.pull")],
    )
    def test_run_measure_needs_its_provider(self, measure, path):
        # the measure run, not only config.measures, is checked
        with pytest.raises(SchemaError) as exc_info:
            run(deferred_overtake_scenario(), 0, measure)
        assert exc_info.value.path == path

    def test_pull_oracle_values_follow_block_visibility(self):
        config = invoice_demo_scenario()
        trace = run(config, seed=12, measure=MeasureKind.REQUEST_RESPONSE_ORACLE)
        starts = trace.real_starts
        mining = trace.chain.mining_durations
        resolved = [r for r in trace.records if r.raw_measured_ms is not None]
        assert resolved
        for record in resolved:
            block = record.block_number
            assert record.raw_measured_ms >= int(starts[block]) + int(mining[block])

    def test_pull_outage_leads_to_stuck_pending(self):
        base = invoice_demo_scenario()
        config = replace(
            base,
            pull_oracles=(
                PullOracleConfig(
                    provider="timeserver",
                    latency_ms=30_000,
                    outages=((base.network.genesis_timestamp_ms, base.horizon_ms + 1),),
                ),
            ),
        )
        trace = run(config, seed=1, measure=MeasureKind.REQUEST_RESPONSE_ORACLE)
        # no request is ever answered, so every guard the run reached is pending
        stuck = [r for r in trace.records if r.outcome is Outcome.STUCK_PENDING]
        assert stuck
        assert stuck == trace.records

    def test_parameter_lies_shift_measured_values(self):
        base = invoice_demo_scenario()
        liar = replace(base.participants[0], lie_ms=3_600_000)
        config = replace(base, participants=(liar, *base.participants[1:]))
        trace = run(config, seed=2, measure=MeasureKind.PARAMETER)
        lied = [
            r for r in trace.records
            if r.constraint_type == "absolute" and r.raw_measured_ms is not None
        ]
        assert lied
        # the dishonest sender's claims measure an hour ahead of creation
        for record in lied:
            created = trace.tx_meta[record.tx_id].created_at
            assert record.raw_measured_ms == created + 3_600_000

    def test_push_tick_value_and_staleness(self):
        push = PushOracleConfig(
            provider="feed", cadence_ms=60_000, staleness_ms=2_000,
            outages=((600_000, 1_800_000),),
        )
        config = plain_config(
            push_oracles=(push,), measures=(MeasureKind.STORAGE_ORACLE,), horizon_ms=4_000_000
        )
        trace = run(config, seed=0)
        for meta in trace.tx_meta.values():
            assert not 600_000 <= meta.created_at < 1_800_000  # no update in the outage
        # the updates run in chain order, each writing its tick minus the staleness
        where = placements(trace)
        ticks = sorted((where[tx_id], meta.created_at) for tx_id, meta in trace.tx_meta.items()
                       if meta.block is not None)
        values = [value for _, kind, _, value in trace.oracle_events if kind == "update"]
        assert len(values) > 40
        assert values == [created - 2_000 for _, created in ticks]

    @pytest.mark.parametrize(
        "measure, drive_all",
        [(MeasureKind.STORAGE_ORACLE, False), (MeasureKind.REQUEST_RESPONSE_ORACLE, True)],
    )
    def test_oracle_events_are_in_time_order(self, measure, drive_all):
        config = replace(invoice_demo_scenario(), simulate_unused_oracles=drive_all)
        trace = run(config, seed=0, measure=measure)
        kinds = {kind for _, kind, _, _ in trace.oracle_events}
        assert kinds == ({"update", "request", "callback"} if drive_all else {"update"})
        times = [at for _, _, at, _ in trace.oracle_events]
        assert times == sorted(times)

    def test_equal_instants_resolve_by_event_kind(self):
        # constant 10 s blocks visible at their start, zero inclusion delay, a
        # push tick at every block start: tx created < oracle tick < seal <
        # visible < callback
        base = deferred_fifo_scenario()
        mno = Participant(name="mno", script=(ScriptEntry(element="start_timer", at_ms=20_000),))
        config = replace(
            base,
            push_oracles=(PushOracleConfig(provider="feed", cadence_ms=10_000),),
            pull_oracles=(PullOracleConfig(provider="server", latency_ms=10_000),),
            measures=(MeasureKind.REQUEST_RESPONSE_ORACLE,),
            participants=(mno,),
            simulate_unused_oracles=True,
            horizon_ms=60_000,
        )
        trace = run(config, seed=0)
        where = placements(trace)
        # the tick at 0 opens block 1; the 10 000 ms tick beats block 1's seal
        assert where["oracle:feed-0"] == (1, 0)
        assert where["oracle:feed-1"] == (1, 1)
        # the claim and the tick at 20 000 ms both make block 2, claim first
        assert where["mno-0"] == (2, 0)
        assert where["oracle:feed-2"] == (2, 1)
        # the claim's request is seen at 20 000 ms; the callback, created at
        # block 3's start, comes after that block's seal
        callback = trace.tx_meta["oracle:server-0"]
        assert (callback.created_at, callback.block) == (30_000, 4)
        assert where["oracle:feed-3"] == (3, 0)
        # an update is logged at its block's seal, before the request seen
        # and the callback created at that instant
        assert [(kind, at) for _, kind, at, _ in trace.oracle_events if 20_000 <= at <= 30_000] == [
            ("update", 20_000), ("request", 20_000), ("update", 30_000), ("callback", 30_000)
        ]

    def test_unused_oracles_not_simulated_by_default(self):
        trace = run(invoice_demo_scenario(), seed=3, measure=MeasureKind.BLOCK_TIMESTAMP)
        assert trace.oracle_events == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_measure_does_not_touch_chain_or_oracle_updates(self, seed):
        config = short_invoice(simulate_unused_oracles=True)
        seen = []
        for measure in MeasureKind:
            trace = run(config, seed, measure)
            updates = {
                tx_id: meta for tx_id, meta in trace.tx_meta.items()
                if tx_id.startswith("oracle:timefeed-")
            }
            assert updates
            seen.append((trace.chain.timestamps, trace.chain.mining_durations, updates))
        timestamps, mining, updates = seen[0]
        for other in seen[1:]:
            assert np.array_equal(other[0], timestamps)
            assert np.array_equal(other[1], mining)
            assert other[2] == updates

    @pytest.mark.parametrize("case, measure, seed", [
        *(
            pytest.param("invoice", measure, seed, id=f"invoice-{measure.value}-{seed}")
            for measure in MeasureKind for seed in (0, 1, 2)
        ),
        pytest.param("empty-block", MeasureKind.BLOCK_TIMESTAMP, 0, id="empty-block"),
    ])
    def test_bystander_participant_changes_no_other_sender(self, case, measure, seed):
        # the bystander's one claim comes when the contract refuses it
        if case == "invoice":
            # a message an hour before the invoice window
            base = short_invoice()
            entry = ScriptEntry(element="payment_received", at_ms=INVOICE_START_DUE - 3_600_000)
        else:
            # 10 s blocks, each visible when the next starts. Block 2 enables
            # notice, and the customer's zero-delay claim is created at block 3's
            # start, behind its seal: block 4, whether or not the bystander's
            # second start_timer claim makes block 3 hold something.
            base = deferred_fifo_scenario()
            mno, customer = base.participants
            notice = ScriptEntry(element="notice", on_enabled_delay_ms=0)
            base = replace(
                base,
                network=replace(base.network, mining_time=constant(10_000)),
                participants=(mno, replace(customer, script=(notice,))),
            )
            entry = ScriptEntry(element="start_timer", at_ms=25_000)
        bystander = Participant(name="bystander", script=(entry,))
        alone = run(base, seed, measure)
        joined = run(replace(base, participants=(*base.participants, bystander)), seed, measure)
        assert np.array_equal(joined.chain.timestamps, alone.chain.timestamps)
        assert joined.tx_meta["bystander-0"].block is not None
        others = {k: v for k, v in joined.tx_meta.items() if v.sender != "bystander"}
        assert others == alone.tx_meta
        assert joined.records == alone.records
        if case == "empty-block":
            assert alone.tx_meta["customer-0"].block == 4

    def test_miner_ordering_does_not_touch_block_schedule(self):
        base = deferred_overtake_scenario()
        reordered = replace(
            base, network=replace(base.network, miner_ordering="adversarial_reorder")
        )
        a = run(base, seed=7)
        b = run(reordered, seed=7)
        assert np.array_equal(a.chain.timestamps, b.chain.timestamps)

    def test_trace_export_includes_oracle_lines(self):
        import io

        config = invoice_demo_scenario()
        trace = run(config, seed=5, measure=MeasureKind.STORAGE_ORACLE)
        out = io.StringIO()
        trace.export_trace(out)
        lines = out.getvalue().splitlines()
        assert any(line.startswith("oracle,timefeed,update,") for line in lines)
        assert any(line.startswith("block,") for line in lines)
        assert any(line.startswith("tx,") for line in lines)


def count_substreams(monkeypatch) -> Counter:
    """How often the simulator makes each named substream from here on."""
    made = Counter()

    def counting(seed: int, name: str):
        made[name] += 1
        return substream(seed, name)

    monkeypatch.setattr(sim, "substream", counting)
    return made


class TestSubstreams:
    @pytest.mark.parametrize("preset", [deferred_overtake_scenario, deferred_fifo_scenario])
    def test_a_race_run_makes_none(self, monkeypatch, preset):
        # every distribution of both presets is a constant, and none jitters
        plain = run(preset(), 3)
        made = count_substreams(monkeypatch)
        counted = run(preset(), 3)
        assert made == {}
        assert counted.records == plain.records and counted.tx_meta == plain.tx_meta

    def test_invoice_demo_makes_each_drawn_one_once(self, monkeypatch):
        config = invoice_demo_scenario()
        plain_world = sim.SeedWorld(config, 1)
        plain = {m: run(config, 1, m, world=plain_world).records for m in config.measures}
        made = count_substreams(monkeypatch)
        world = sim.SeedWorld(config, 1)
        assert made == {"chain/block_time": 1, "chain/mining": 1}
        own = {"delay/mno", "delay/customer", "participant/mno"}
        expected = {
            MeasureKind.STORAGE_ORACLE: own | {"delay/oracle:timefeed"},  # the world's updates
            MeasureKind.REQUEST_RESPONSE_ORACLE: own | {"delay/oracle:timeserver"},
        }
        for measure in config.measures:
            made.clear()
            assert run(config, 1, measure, world=world).records == plain[measure]
            assert set(made.values()) == {1} and set(made) == expected.get(measure, own)


class TestDemoNarrative:
    def test_invoice_run_reaches_the_patience_cycle(self):
        trace = run(invoice_demo_scenario(), seed=0, measure=MeasureKind.PARAMETER)
        by_type = {}
        for record in trace.records:
            by_type.setdefault(record.constraint_type, []).append(record)
        assert set(by_type) >= {"absolute", "relative", "cycle", "deferred_choice"}
        cycle_accepts = [r for r in by_type["cycle"] if r.accepted]
        assert len(cycle_accepts) == 7  # all patience iterations execute
        assert len(by_type["deferred_choice"]) == 2  # timer round, then complaint
