"""Smart-contract-style process execution with temporal guards.

A ProcessInstance advances a small workflow model (start timer, tasks,
timer/message catches, event-based gateways with loop-backs) one accepted
transaction at a time. Every temporal guard is evaluated under a single
time measure, and each enforcement decision is recorded together with the
simulator's ground truth so it can be classified as TP/TN/FP/FN (or
Match/Mismatch for deferred choice races). Each apply or on_callback call
counts its decision in ``decisions``; its pull-oracle requests and newly
enabled elements stay on the instance until the runner takes them, per block.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .chain import SchemaError, SimTime, Transaction, _check_name, _Ident
from .measures import _SYNC_READS, MeasureKind, MissingParameter, TxContext, UninitializedOracle
from .timers import (
    CycleAbsTimer,
    CycleRelTimer,
    DateTimer,
    DurationTimer,
    TimerSpec,
    due_times,
    iter_due_times,
)


class Outcome(str, Enum):
    TP = "TP"
    TN = "TN"
    FP = "FP"
    FN = "FN"
    MATCH = "Match"
    MISMATCH = "Mismatch"
    STUCK_PENDING = "StuckPending"


ABSOLUTE = "absolute"
RELATIVE = "relative"
CYCLE = "cycle"
DEFERRED_CHOICE = "deferred_choice"


# ---------------------------------------------------------------------------
# Classification rules
# ---------------------------------------------------------------------------

def classify_absolute(s_tx: SimTime, s_e: SimTime, measured: SimTime) -> Outcome:
    """Classify an absolute-deadline decision against ground truth.

    The deadline truly elapsed iff s_e <= s_tx; the measure reports it
    elapsed iff s_e <= measured. The four outcomes partition the space.
    Given intervals since an anchor and a required delay instead of
    instants and a deadline, it classifies a minimum-delay decision.
    """
    if measured < s_e <= s_tx:
        return Outcome.FN
    if s_tx < s_e <= measured:
        return Outcome.FP
    if s_e <= s_tx:
        return Outcome.TP
    return Outcome.TN


# ---------------------------------------------------------------------------
# Process model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StartTimer:
    id: _Ident
    spec: TimerSpec


@dataclass(frozen=True)
class Task:
    id: _Ident
    name: str
    performer: str


@dataclass(frozen=True)
class TimerCatch:
    id: _Ident
    spec: TimerSpec


@dataclass(frozen=True)
class MessageCatch:
    id: _Ident
    message: str


@dataclass(frozen=True)
class EventGateway:
    id: _Ident
    branches: tuple[_Ident, ...]


Element = StartTimer | Task | TimerCatch | MessageCatch | EventGateway


@dataclass(frozen=True)
class ProcessModel:
    """Elements plus a successor map; branch elements flow onward from the
    gateway they belong to. A flow target of None ends the process. A model
    checks its rules when it is built, each a SchemaError at its field."""

    elements: Mapping[_Ident, Element]
    flows: Mapping[_Ident, _Ident | None]
    start: _Ident

    def __post_init__(self):
        attached: set[str] = set()  # branches of the gateways so far
        for i, (key, element) in enumerate(self.elements.items()):
            _check_name(f"elements[{i}].id", element.id)
            if element.id != key:
                raise SchemaError(f"elements[{i}].id", f"element key {key!r} is not its id")
            if not isinstance(element, EventGateway):
                continue
            if len(element.branches) < 2:
                raise SchemaError(f"elements[{i}].branches", "a gateway needs >= 2 branches")
            for j, branch in enumerate(element.branches):
                path = f"elements[{i}].branches[{j}]"
                if not isinstance(self.elements.get(branch), (TimerCatch, MessageCatch)):
                    raise SchemaError(path, f"{branch!r} is not a timer or message catch")
                if branch in attached:
                    raise SchemaError(path, f"{branch!r} is a branch already")
                attached.add(branch)
        if not isinstance(self.elements.get(self.start), StartTimer):
            raise SchemaError("start", f"start element {self.start!r} is not a start timer")
        for source, target in self.flows.items():
            if source not in self.elements or target not in (None, *self.elements):
                raise SchemaError(f"flows.{source}", f"{source!r} -> {target!r}: no such element")
            if target == self.start:  # a BPMN start event takes no incoming flow
                raise SchemaError(f"flows.{source}", f"{source!r} -> {target!r}: into the start")
        # every element is reached from the start through flows and branches
        reached, frontier = set(), [self.start]
        while frontier:
            current = frontier.pop()
            if current is not None and current not in reached:
                reached.add(current)
                frontier.append(self.flows.get(current))
                frontier += getattr(self.elements[current], "branches", ())
        for i, element_id in enumerate(self.elements):
            if element_id not in reached:
                raise SchemaError(f"elements[{i}]", f"element {element_id!r} is unreachable")


def _dues_from(spec: TimerSpec, anchor_ms: SimTime, limit: int) -> tuple[SimTime, ...]:
    """A timer's due instants at or after its anchor: an absolutely anchored
    cycle drops the dues that passed before enablement, and keeps its last
    due if all of them did."""
    dues = due_times(spec, anchor_ms, limit)
    return tuple(d for d in dues if d >= anchor_ms) or tuple(dues[-1:])


def _constraint_type(element: StartTimer | TimerCatch) -> str:
    """Start timers and dates are absolute, durations relative, and cycles of
    either anchoring are cycles."""
    if isinstance(element, StartTimer) or isinstance(element.spec, DateTimer):
        return ABSOLUTE
    if isinstance(element.spec, DurationTimer):
        return RELATIVE
    return CYCLE


def _is_delta(element: StartTimer | TimerCatch) -> bool:
    """Durations and relative cycles are guarded on the interval since the
    enablement anchor; every other timer on the instant."""
    return isinstance(element, TimerCatch) and isinstance(
        element.spec, (DurationTimer, CycleRelTimer)
    )


_NOT_DUE = {
    ABSOLUTE: "deadline_not_reached",
    RELATIVE: "delta_not_reached",
    CYCLE: "iteration_not_due",
}


# ---------------------------------------------------------------------------
# Guard records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GuardRecord:
    """One enforcement decision with simulator ground truth attached.

    A timer guard's record has one of two shapes:

    - instant (absolute guards, absolutely anchored cycles): deadline_ms is
      set; measured_ms is the measured instant and ground_truth_ms the true
      creation instant of the transaction.
    - delta (relative guards, relative cycles): required_delta_ms is set;
      measured_ms and ground_truth_ms are the measured and true intervals
      since the enablement anchor, and a negative measured_ms means the
      measure ran backwards.

    raw_measured_ms carries the raw measure value of the evaluated
    transaction in both shapes. Cycle records add iteration (0-based) and the
    later iterations already overdue at acceptance. Deferred-choice records
    carry winner and truth_winner instead; StuckPending records only the
    creation instant of a guard whose callback never arrived.
    """

    element: str
    constraint_type: str
    measure_kind: MeasureKind
    outcome: Outcome
    ground_truth_ms: SimTime | None = None
    measured_ms: SimTime | None = None
    deadline_ms: SimTime | None = None
    required_delta_ms: int | None = None
    raw_measured_ms: SimTime | None = None
    tx_id: str | None = None
    block_number: int | None = None
    iteration: int | None = None
    missed_iterations: tuple[int, ...] = ()
    winner: str | None = None
    truth_winner: str | None = None
    accepted: bool | None = None


# ---------------------------------------------------------------------------
# Process instance
# ---------------------------------------------------------------------------

@dataclass
class Anchor:
    """Enablement reference point: ground-truth instant plus the measured
    value the contract stored at that point (None while an oracle callback
    is outstanding)."""

    truth_ms: SimTime
    measured_ms: SimTime | None


@dataclass
class _GatewayRound:
    """An open deferred-choice race: the branches guarded so far, in order."""

    gateway_id: str
    applied: list[str] = field(default_factory=list)


@dataclass
class _EnabledEntry:
    """An enabled element. A timer also carries its due instants, fixed at
    enablement, and the index of the next one its guard waits for; the race
    it belongs to, until that race is decided."""

    anchor: Anchor
    round: _GatewayRound | None = None
    dues: tuple[SimTime, ...] = ()
    next_index: int = 0


@dataclass(frozen=True)
class _PendingGuard:
    """A pull-oracle query in flight, with the transaction and the context of
    the block that made it. A parked guard is decided on that claim in that
    context; an anchor request keeps the anchor the answer completes."""

    tx: Transaction
    ctx: TxContext
    anchor: Anchor | None = None


class ProcessInstance:
    """Mutable execution state of one process model under one time measure."""

    def __init__(
        self,
        model: ProcessModel,
        measure_kind: MeasureKind,
        activation_floor_ms: SimTime = 0,
        cycle_limit: int = 64,
    ):
        self.model = model
        self.measure_kind = measure_kind
        self.cycle_limit = cycle_limit
        self.records: list[GuardRecord] = []
        self.decisions: Counter[str] = Counter()  # "accepted", "parked" or a reason
        self.requests: list[int] = []  # pull-oracle queries to make
        self.newly_enabled: list[str] = []
        self.done = False
        self._request_counter = itertools.count()
        self._read = _SYNC_READS.get(measure_kind)  # None: ask the pull oracle
        self._pending: dict[int, _PendingGuard] = {}
        self._message_notes: dict[str, list[SimTime]] = {}
        start_anchor = Anchor(truth_ms=activation_floor_ms, measured_ms=activation_floor_ms)
        self._enabled = {model.start: self._entry(model.start, start_anchor)}

    # -- public surface ----------------------------------------------------

    def enabled_elements(self) -> list[str]:
        return sorted(self._enabled)

    def is_enabled(self, element_id: str) -> bool:
        return element_id in self._enabled

    def element_due_times(self, element_id: str) -> list[SimTime]:
        """Ground-truth due instants of an enabled timer element (actor view):
        the schedule its guard steps through."""
        entry = self._enabled.get(element_id)
        return [] if entry is None else list(entry.dues)

    def cycle_next_index(self, element_id: str) -> int:
        """Iterations already accepted for a cycle element (actor view)."""
        entry = self._enabled.get(element_id)
        return 0 if entry is None else entry.next_index

    def note_message_created(self, element_id: str, s_tx: SimTime) -> None:
        """Record a message claim's creation for deferred-choice truth; ignore other claims."""
        if isinstance(self.model.elements.get(element_id), MessageCatch):
            self._message_notes.setdefault(element_id, []).append(s_tx)

    def apply(self, tx: Transaction, ctx: TxContext, real_now: SimTime) -> None:
        """Advance the state machine by one transaction, if its guard passes."""
        element = self.model.elements.get(tx.op)
        if self.done or tx.op not in self._enabled:
            self._drop_note(tx)  # a refused message never triggers a race
            decision = "element_not_enabled"
        elif isinstance(element, (Task, MessageCatch)):
            decision = self._accept_unguarded(element, tx, ctx, real_now)
        else:
            decision = self._guard(element, tx, ctx, real_now)
        self.decisions[decision] += 1

    def on_callback(self, request_id: int, value: SimTime, real_now: SimTime) -> None:
        """Finalize a parked pull-oracle decision with the callback's value,
        attributed to the block that requested it."""
        pending = self._pending.pop(request_id, None)
        if pending is None:
            decision = "unknown_request"
        elif pending.anchor is not None:
            pending.anchor.measured_ms = value
            decision = "accepted"
        elif self.done or pending.tx.op not in self._enabled:
            decision = "superseded"
        else:
            tx = pending.tx
            decision = self._guard(self.model.elements[tx.op], tx, pending.ctx, real_now, value)
        self.decisions[decision] += 1

    def finalize(self) -> None:
        """Emit StuckPending records for guards still parked at the horizon."""
        for pending in self._pending.values():
            if pending.anchor is None:
                tx = pending.tx
                self.records.append(GuardRecord(
                    element=tx.op,
                    constraint_type=_constraint_type(self.model.elements[tx.op]),
                    measure_kind=self.measure_kind,
                    outcome=Outcome.STUCK_PENDING,
                    ground_truth_ms=tx.created_at,
                    tx_id=tx.id,
                    accepted=False,
                ))

    # -- guard paths -------------------------------------------------------

    def _accept_unguarded(self, element, tx, ctx, real_now) -> str:
        anchor_value: SimTime | None = None
        if self._read is not None:
            try:
                anchor_value = self._read(ctx)
            except (MissingParameter, UninitializedOracle):
                pass  # next anchor stays unmeasured; downstream guards will reject
        round_ = self._enabled[element.id].round
        if round_ is not None:
            round_.applied.append(element.id)
            self._resolve_gateway(round_, element.id, real_now)
        self._drop_note(tx)
        next_anchor = Anchor(truth_ms=tx.created_at, measured_ms=anchor_value)
        if self._read is None:
            self.requests.append(self._request(tx, ctx, next_anchor))
        self._advance(element.id, next_anchor)
        return "accepted"

    def _guard(self, element, tx, ctx, real_now, measured=None) -> str:
        """Evaluate a timer guard against the next due of its schedule: the
        measured instant against the due, or for durations and relative
        cycles the measured interval since the anchor against the due minus
        the anchor. It passes iff the measured value reaches that target, and
        an acceptance lists the later iterations it has also passed as
        missed, not skipped. `measured` is a pull-oracle callback's value;
        without it the guard measures now. It returns the decision."""
        entry = self._enabled[element.id]
        if measured is None:
            if self._read is None:
                self.requests.append(self._request(tx, ctx))
                return "parked"
            try:
                measured = self._read(ctx)
            except (MissingParameter, UninitializedOracle) as exc:
                return type(exc).__name__
        truth, observed, offset = tx.created_at, measured, 0
        delta = _is_delta(element)
        if delta:
            anchor = entry.anchor
            if anchor.measured_ms is None:
                return "anchor_pending"
            offset = anchor.truth_ms
            truth, observed = truth - offset, measured - anchor.measured_ms
        ctype = _constraint_type(element)
        iteration = entry.next_index
        target = entry.dues[iteration] - offset
        accepted = observed >= target
        later = range(iteration + 1, len(entry.dues)) if accepted else ()
        missed = [j for j in later if entry.dues[j] - offset < observed]
        self.records.append(GuardRecord(
            element=element.id,
            constraint_type=ctype,
            measure_kind=self.measure_kind,
            outcome=classify_absolute(truth, target, observed),
            ground_truth_ms=truth,
            measured_ms=observed,
            deadline_ms=None if delta else target,
            required_delta_ms=target if delta else None,
            raw_measured_ms=measured,
            tx_id=tx.id,
            block_number=ctx.block_number,
            iteration=iteration if ctype == CYCLE else None,
            missed_iterations=tuple(missed),
            accepted=accepted,
        ))
        if entry.round is not None:
            entry.round.applied.append(element.id)
        if not accepted:
            return _NOT_DUE[ctype]
        if entry.round is not None:
            self._resolve_gateway(entry.round, element.id, real_now)
        entry.next_index += 1
        if entry.next_index == len(entry.dues):
            self._advance(element.id, Anchor(truth_ms=tx.created_at, measured_ms=measured))
        return "accepted"

    # -- gateway handling --------------------------------------------------

    def _resolve_gateway(self, round_, winner_branch, real_now) -> None:
        """Decide a race at its first acceptance, which wins it. The true
        winner is the branch triggered first (a message at its creation, a
        timer at its first due); a tie goes to the branch whose last guard
        came first, and a never-guarded branch after every guarded one."""
        gateway = self.model.elements[round_.gateway_id]
        triggers = self._gateway_triggers(gateway, real_now)
        last = {branch: i for i, branch in enumerate(round_.applied)}
        never = len(round_.applied)
        truth_winner = min(triggers, key=lambda b: (triggers[b], last.get(b, never), b))
        self.records.append(GuardRecord(
            element=round_.gateway_id,
            constraint_type=DEFERRED_CHOICE,
            measure_kind=self.measure_kind,
            outcome=Outcome.MATCH if truth_winner == winner_branch else Outcome.MISMATCH,
            ground_truth_ms=triggers[truth_winner],
            winner=winner_branch,
            truth_winner=truth_winner,
            accepted=True,
        ))
        # losing branches leave the enabled set and the winner leaves the
        # race; _advance removes the winner once it has no dues left
        for branch in gateway.branches:
            if branch != winner_branch:
                self._enabled.pop(branch, None)
        self._enabled[winner_branch].round = None

    def _gateway_triggers(self, gateway, real_now) -> dict[str, SimTime]:
        triggers: dict[str, SimTime] = {}
        for branch in gateway.branches:
            element = self.model.elements[branch]
            if isinstance(element, TimerCatch):
                triggers[branch] = self._enabled[branch].dues[0]
            else:
                notes = [s_tx for s_tx in self._message_notes.get(branch, []) if s_tx <= real_now]
                if notes:
                    triggers[branch] = min(notes)
        return triggers

    # -- plumbing ----------------------------------------------------------

    def _drop_note(self, tx) -> None:
        """Forget a message claim's creation note once the contract has
        accepted or refused the claim."""
        notes = self._message_notes.get(tx.op, [])
        if tx.created_at in notes:
            notes.remove(tx.created_at)

    def _request(self, tx, ctx, anchor=None) -> int:
        """Register a pull-oracle query for a parked guard or a pending anchor."""
        request_id = next(self._request_counter)
        self._pending[request_id] = _PendingGuard(tx, ctx, anchor)
        return request_id

    def _advance(self, accepted_element, next_anchor) -> None:
        self._enabled.pop(accepted_element, None)
        target = self.model.flows.get(accepted_element)
        if target is None:
            if not self._enabled:
                self.done = True
            return
        self._enable(target, next_anchor)

    def _enable(self, element_id, anchor) -> None:
        element = self.model.elements[element_id]
        if isinstance(element, EventGateway):
            round_ = _GatewayRound(gateway_id=element_id)
            for branch in element.branches:
                self._enabled[branch] = self._entry(branch, anchor, round_)
                self.newly_enabled.append(branch)
        else:
            self._enabled[element_id] = self._entry(element_id, anchor)
            self.newly_enabled.append(element_id)

    def _entry(self, element_id, anchor, round_=None) -> _EnabledEntry:
        """Enable one element; a timer's due schedule is computed here, once.
        Only a cycle keeps, or computes, more than its first due."""
        element = self.model.elements[element_id]
        if not isinstance(element, (StartTimer, TimerCatch)):
            return _EnabledEntry(anchor, round_)
        spec, at = element.spec, anchor.truth_ms
        if _constraint_type(element) == CYCLE:
            return _EnabledEntry(anchor, round_, _dues_from(spec, at, self.cycle_limit))
        for due in iter_due_times(spec, at, self.cycle_limit):  # as _dues_from, to the first
            if due >= at:
                break
        else:  # all passed: a date keeps its due, a cycle has none
            if isinstance(spec, CycleAbsTimer):
                raise ValueError("no start due time at or after the activation floor")
        return _EnabledEntry(anchor, round_, (due,))

