"""Ledger data model: block columns, transactions, and the trace export.

Timestamps are integer milliseconds since the simulation epoch. The chain
stores block columns (timestamps, mining durations) as numpy arrays so that
multi-million-block runs stay cheap; transactions are kept sparsely per
block since most simulated blocks are empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, NewType

import numpy as np

SimTime = int
# A name that ends up in the comma-separated, line-delimited trace and record
# streams (scenario, participant, provider, element): non-empty, with no ','
# and no line break. Scenario loading checks every field annotated with it.
_Ident = NewType("Ident", str)


class NonMonotonicTimestamp(ValueError):
    """Block timestamp does not strictly exceed its predecessor's."""


class OutOfRange(ValueError):
    """Transaction placed in a block the schedule does not have."""


@dataclass(frozen=True)
class Transaction:
    """A signed transaction: created_at is the sender-local creation instant,
    op the element claimed (or ``__oracle_update__``, ``__callback__`` for
    oracle transactions) and timestamp the sender-supplied PA parameter."""

    id: str
    sender: str
    created_at: SimTime
    op: str = ""
    timestamp: SimTime | None = None
    priority: int = 0

    def __post_init__(self):
        if self.created_at < 0:
            raise ValueError("created_at must be non-negative")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


class Chain:
    """Ordered list of blocks numbered consecutively from 0 (genesis).

    A chain is built in one shot by from_schedule, which enforces strictly
    increasing timestamps; a bare Chain() is empty.
    """

    def __init__(self):
        self._timestamps = np.empty(0, dtype=np.int64)
        self._mining = np.empty(0, dtype=np.int64)
        self._txs: dict[int, tuple[Transaction, ...]] = {}

    @classmethod
    def from_schedule(
        cls,
        timestamps: np.ndarray,
        mining_durations: np.ndarray,
        txs_by_block: Mapping[int, tuple[Transaction, ...]] | None = None,
    ) -> "Chain":
        """Build a chain in one shot from precomputed block columns."""
        chain = cls()
        timestamps = np.asarray(timestamps, dtype=np.int64)
        mining_durations = np.asarray(mining_durations, dtype=np.int64)
        if timestamps.shape != mining_durations.shape:
            raise ValueError("timestamp and mining arrays must align")
        if len(timestamps) and np.any(np.diff(timestamps) <= 0):
            raise NonMonotonicTimestamp("bulk schedule is not strictly increasing")
        if np.any(mining_durations < 0):
            raise ValueError("mining durations must be non-negative")
        chain._timestamps = timestamps
        chain._mining = mining_durations
        for number, txs in (txs_by_block or {}).items():
            if not 0 <= number < len(timestamps):
                raise OutOfRange(f"no block {number} in schedule")
            chain._txs[number] = tuple(txs)
        return chain

    def __len__(self) -> int:
        return len(self._timestamps)

    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps

    @property
    def mining_durations(self) -> np.ndarray:
        return self._mining

    def export_trace(self, stream: IO[str]) -> None:
        """Write the line-delimited trace: one block line, then its tx lines."""
        tx_blocks = self._txs
        for i in range(len(self)):
            stream.write(f"block,{i},{int(self._timestamps[i])},{int(self._mining[i])}\n")
            for tx in tx_blocks.get(i, ()):
                stream.write(f"tx,{tx.id},{tx.created_at},{tx.sender},{tx.op}\n")
