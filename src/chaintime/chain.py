"""Ledger data model (block columns, transactions, trace export) and scenario field checks.

Timestamps are integer milliseconds since the simulation epoch. A chain is a
frozen value: its block columns (timestamps, mining durations) are numpy
arrays so that multi-million-block runs stay cheap, and its transactions are
kept sparsely per block, since most simulated blocks are empty.
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


class SchemaError(ValueError):
    """Scenario validation failure, carrying the offending field path.

    A config object's own checks name the field relative to the object;
    build_config prefixes the object's path in the scenario tree.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _check_bounds(config, *names: str) -> None:
    """Durations stay below 2**45 ms in magnitude, so that with instants below 2**62 ms
    no int64 sum in the simulator overflows: 65,536 gaps, an instant plus a drift or delay."""
    for name in names:
        if abs(getattr(config, name)) >> 45:
            raise SchemaError(name, "must be below 2**45 in magnitude")


# blocks per write of the trace export, about 130 kB of text
_EXPORT_CHUNK = 1 << 12
_BLOCK_LINE = "block,%d,%d,%d\n"


class NonMonotonicTimestamp(ValueError):
    """Block timestamp does not strictly exceed its predecessor's."""


@dataclass(frozen=True, slots=True)
class Transaction:
    """A signed transaction: created_at is the sender-local creation instant
    s_tx, op the element claimed (or ``__oracle_update__``, ``__callback__``),
    timestamp the sender-supplied PA parameter, visible_at the instant the
    network sees it and block its block (None if it is never mined)."""

    id: str
    sender: str
    created_at: SimTime
    op: str = ""
    timestamp: SimTime | None = None
    priority: int = 0
    visible_at: SimTime | None = None
    block: int | None = None

    def __post_init__(self):
        if self.created_at < 0:
            raise ValueError("created_at must be non-negative")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


@dataclass(frozen=True, eq=False)
class Chain:
    """Blocks numbered consecutively from 0 (genesis): the timestamp and
    mining duration columns, and the transactions of each non-empty block
    by number. Build one with from_schedule, which checks the columns, and
    attach transactions with dataclasses.replace(chain, txs=...)."""

    timestamps: np.ndarray
    mining_durations: np.ndarray
    txs: Mapping[int, tuple[Transaction, ...]]

    @classmethod
    def from_schedule(cls, timestamps: np.ndarray, mining_durations: np.ndarray) -> "Chain":
        """A chain of empty blocks from precomputed block columns."""
        timestamps = np.asarray(timestamps, dtype=np.int64)
        mining_durations = np.asarray(mining_durations, dtype=np.int64)
        if timestamps.shape != mining_durations.shape:
            raise ValueError("timestamp and mining arrays must align")
        if len(timestamps) and np.any(np.diff(timestamps) <= 0):
            raise NonMonotonicTimestamp("bulk schedule is not strictly increasing")
        if np.any(mining_durations < 0):
            raise ValueError("mining durations must be non-negative")
        return cls(timestamps, mining_durations, {})

    def __len__(self) -> int:
        return len(self.timestamps)

    def export_trace(self, stream: IO[str]) -> None:
        """Write the line-delimited trace: one block line, then its tx lines.

        One write per _EXPORT_CHUNK blocks keeps memory flat; the block lines
        between two non-empty blocks are one format. A ``txs`` with a
        ``lines(number)`` method gives the tx lines of its blocks itself.
        """
        txs = self.txs
        lines = getattr(txs, "lines", None) or (lambda number: "".join(map(tx_line, txs[number])))
        numbers = np.array(sorted(txs), dtype=np.int64)
        for lo in range(0, len(self), _EXPORT_CHUNK):
            hi = min(lo + _EXPORT_CHUNK, len(self))
            columns = (np.arange(lo, hi), self.timestamps[lo:hi], self.mining_durations[lo:hi])
            flat, parts, done = np.stack(columns, axis=1).ravel().tolist(), [], lo
            first, last = np.searchsorted(numbers, (lo, hi))
            for number in numbers[first:last].tolist():
                stretch = flat[3 * (done - lo):3 * (number + 1 - lo)]
                parts += (_BLOCK_LINE * (number + 1 - done) % tuple(stretch), lines(number))
                done = number + 1
            parts.append(_BLOCK_LINE * (hi - done) % tuple(flat[3 * (done - lo):]))
            stream.write("".join(parts))


def tx_line(tx: Transaction) -> str:
    return f"tx,{tx.id},{tx.created_at},{tx.sender},{tx.op}\n"
