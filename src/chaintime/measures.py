"""The five on-chain time measures and the oracle provider actors.

Each measure estimates, from within a transaction's execution context, the
instant the transaction was originally created by its sender. Block
timestamp and block number come for free from the containing block, the
parameter measure reads a sender-supplied payload field, and the two oracle
measures rely on third-party providers (synchronous storage reads vs.
asynchronous request/callback).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

from .chain import SimTime, Transaction, _Ident


class MeasureKind(str, Enum):
    BLOCK_TIMESTAMP = "block_timestamp"
    BLOCK_NUMBER = "block_number"
    PARAMETER = "parameter"
    STORAGE_ORACLE = "storage_oracle"
    REQUEST_RESPONSE_ORACLE = "request_response_oracle"


class MissingParameter(Exception):
    """Transaction payload lacks the sender-supplied timestamp."""


class UninitializedOracle(Exception):
    """Storage oracle read with no update preceding the read position."""


@dataclass(frozen=True)
class ChainParams:
    """Static chain facts a contract may rely on."""

    genesis_timestamp: SimTime
    assumed_mean_block_time_ms: int


@dataclass(frozen=True)
class TxContext:
    """Per-transaction view available to guard evaluation."""

    tx: Transaction
    block_number: int
    block_timestamp: SimTime
    position_in_block: int
    chain_params: ChainParams
    oracle_view: "OracleCell | None" = None


class OracleCell:
    """On-chain storage cell a push provider updates via transactions.

    History entries are keyed by effective position (block number,
    intra-block index); reads see the last write strictly before the
    reader's own position, including earlier writes in the same block.
    """

    def __init__(self, provider: str):
        self.provider = provider
        self._positions: list[tuple[int, int]] = []
        self._values: list[SimTime] = []

    def write(self, position: tuple[int, int], value: SimTime) -> None:
        if self._positions and position <= self._positions[-1]:
            raise ValueError("oracle writes must arrive in chain order")
        self._positions.append(position)
        self._values.append(value)

    def read_before(self, position: tuple[int, int]) -> SimTime:
        idx = bisect.bisect_left(self._positions, position)
        if idx == 0:
            raise UninitializedOracle(
                f"no update by {self.provider!r} before position {position}"
            )
        return self._values[idx - 1]


def measure_bt(ctx: TxContext) -> SimTime:
    """Block timestamp measure: the containing block's timestamp."""
    return ctx.block_timestamp


def measure_bn(ctx: TxContext) -> SimTime:
    """Block number measure: genesis plus block number times the mean block time."""
    p = ctx.chain_params
    return p.genesis_timestamp + ctx.block_number * p.assumed_mean_block_time_ms


def measure_pa(ctx: TxContext) -> SimTime:
    """Parameter measure: the timestamp the sender attached to the payload."""
    value = ctx.tx.payload.get("timestamp")
    if value is None:
        raise MissingParameter(f"transaction {ctx.tx.id} carries no timestamp parameter")
    return int(value)


def measure_so(ctx: TxContext) -> SimTime:
    """Storage oracle measure: last provider value written before this read."""
    if ctx.oracle_view is None:
        raise UninitializedOracle("no storage oracle configured")
    return ctx.oracle_view.read_before((ctx.block_number, ctx.position_in_block))


# The measures a contract can read while it executes; request/response has no
# synchronous read and answers through a later callback transaction.
_SYNC_READS = {
    MeasureKind.BLOCK_TIMESTAMP: measure_bt,
    MeasureKind.BLOCK_NUMBER: measure_bn,
    MeasureKind.PARAMETER: measure_pa,
    MeasureKind.STORAGE_ORACLE: measure_so,
}


@dataclass(frozen=True)
class PushOracleConfig:
    """Provider that periodically writes a timestamp into its storage cell."""

    provider: _Ident
    cadence_ms: int = 60_000
    staleness_ms: int = 0
    active_from_ms: SimTime = 0
    outages: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.cadence_ms <= 0:
            raise ValueError("cadence must be positive")
        if self.staleness_ms < 0:
            raise ValueError("staleness must be non-negative")
        _check_outages(self.outages)


@dataclass(frozen=True)
class PullOracleConfig:
    """Provider that answers on-chain requests with a delayed callback."""

    provider: _Ident
    latency_ms: int = 30_000
    outages: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.latency_ms < 0:
            raise ValueError("latency must be non-negative")
        _check_outages(self.outages)


def _check_outages(outages: tuple[tuple[int, int], ...]) -> None:
    for start, end in outages:
        if start >= end:
            raise ValueError(f"outage [{start}, {end}] must start before it ends")


def in_outage(outages: tuple[tuple[int, int], ...], now: SimTime) -> bool:
    return any(start <= now < end for start, end in outages)


def so_update_times(config: PushOracleConfig, horizon_ms: SimTime) -> list[SimTime]:
    """All cadence ticks up to the horizon, skipping outage intervals."""
    out = []
    t = config.active_from_ms
    while t <= horizon_ms:
        if not in_outage(config.outages, t):
            out.append(t)
        t += config.cadence_ms
    return out
