"""Unit checks for the five measures and the oracle provider helpers."""

import pytest

from chaintime.chain import Transaction
from chaintime.measures import (
    ChainParams,
    OracleCell,
    PullOracleConfig,
    PushOracleConfig,
    TxContext,
    UninitializedOracle,
    MissingParameter,
    in_outage,
    measure_bn,
    measure_bt,
    measure_pa,
    measure_so,
    so_update_times,
)

PARAMS = ChainParams(genesis_timestamp=1_000_000, assumed_mean_block_time_ms=15_190)


def make_ctx(payload=None, block_number=10, block_timestamp=1_200_000, position=0, cell=None):
    tx = Transaction(id="t0", sender="alice", created_at=1_190_000, payload=payload or {})
    return TxContext(
        tx=tx,
        block_number=block_number,
        block_timestamp=block_timestamp,
        position_in_block=position,
        chain_params=PARAMS,
        oracle_view=cell,
    )


class TestSyncMeasures:
    def test_bt_is_block_timestamp(self):
        assert measure_bt(make_ctx()) == 1_200_000

    def test_bn_extrapolates_from_genesis(self):
        # [TRIVIAL] s_0 + i * assumed mean
        assert measure_bn(make_ctx(block_number=10)) == 1_000_000 + 10 * 15_190

    def test_bn_delta(self):
        # the interval BN estimates between two blocks: their distance times the mean
        delta = measure_bn(make_ctx(block_number=120)) - measure_bn(make_ctx(block_number=100))
        assert delta == 20 * 15_190

    def test_pa_reads_payload(self):
        assert measure_pa(make_ctx(payload={"timestamp": 1_190_500})) == 1_190_500

    def test_pa_missing(self):
        with pytest.raises(MissingParameter):
            measure_pa(make_ctx(payload={"op": "x"}))


class TestOracleCell:
    def test_read_sees_last_write_strictly_before(self):
        cell = OracleCell("p")
        cell.write((3, 0), 111)
        cell.write((5, 2), 222)
        assert cell.read_before((5, 2)) == 111  # own position excluded
        assert cell.read_before((5, 3)) == 222
        assert cell.read_before((4, 0)) == 111

    def test_same_block_earlier_position_visible(self):
        cell = OracleCell("p")
        cell.write((7, 1), 999)
        assert cell.read_before((7, 2)) == 999
        with pytest.raises(UninitializedOracle):
            cell.read_before((7, 1))

    def test_writes_must_advance(self):
        cell = OracleCell("p")
        cell.write((3, 0), 1)
        with pytest.raises(ValueError):
            cell.write((3, 0), 2)

    def test_measure_so_uses_reader_position(self):
        cell = OracleCell("p")
        cell.write((9, 0), 1_199_000)
        ctx = make_ctx(block_number=10, position=4, cell=cell)
        assert measure_so(ctx) == 1_199_000

    def test_measure_so_without_cell(self):
        with pytest.raises(UninitializedOracle):
            measure_so(make_ctx())


class TestProviders:
    def test_update_times_skip_outages(self):
        cfg = PushOracleConfig(
            provider="p", cadence_ms=10_000, active_from_ms=0, outages=((15_000, 35_000),)
        )
        assert so_update_times(cfg, 50_000) == [0, 10_000, 40_000, 50_000]

    def test_in_outage_boundaries(self):
        assert in_outage(((10, 20),), 10)
        assert not in_outage(((10, 20),), 20)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PushOracleConfig(provider="p", cadence_ms=0)
        with pytest.raises(ValueError):
            PullOracleConfig(provider="p", latency_ms=-1)
