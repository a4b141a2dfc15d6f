"""Smart-contract-style process execution with temporal guards.

A ProcessInstance advances a small workflow model (start timer, tasks,
timer/message catches, event-based gateways with loop-backs) one accepted
transaction at a time. Every temporal guard is evaluated under a single
time measure, and each enforcement decision is recorded together with the
simulator's ground truth so it can be classified as TP/TN/FP/FN (or
Match/Mismatch for deferred choice races).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

from .chain import SimTime, Transaction, _Ident
from .measures import (
    _SYNC_READS,
    ChainParams,
    MeasureKind,
    MissingParameter,
    TxContext,
    UninitializedOracle,
)
from .timers import (
    CycleAbsTimer,
    CycleRelTimer,
    DateTimer,
    DurationTimer,
    TimerSpec,
    due_times,
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


class CycleExhausted(Exception):
    pass


class NoEligibleBranch(Exception):
    pass


class ModelError(ValueError):
    pass


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


@dataclass(frozen=True)
class CycleState:
    """Progress through a cycle's due schedule; indices are 0-based."""

    due_schedule: tuple[SimTime, ...]
    next_index: int = 0

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.due_schedule, self.due_schedule[1:])):
            raise ValueError("due schedule must be strictly increasing")


def cycle_advance(
    state: CycleState, measured_now: SimTime
) -> tuple[CycleState, bool, list[int]]:
    """Try to accept the next cycle iteration at the given measured instant.

    Accepts iff the next due time has (measurably) passed. Later iterations
    whose due times have also passed are reported as missed but not skipped;
    the counter always advances one iteration at a time.
    """
    k = state.next_index
    if k >= len(state.due_schedule):
        raise CycleExhausted(f"all {len(state.due_schedule)} iterations consumed")
    if measured_now < state.due_schedule[k]:
        return state, False, []
    missed = [
        j
        for j in range(k + 1, len(state.due_schedule))
        if state.due_schedule[j] < measured_now
    ]
    return replace(state, next_index=k + 1), True, missed


def resolve_deferred_choice(
    applied_order: Sequence[tuple[str, bool]],
    triggers: Mapping[str, SimTime],
) -> tuple[str, str, Outcome]:
    """Decide a deferred-choice race and compare against ground truth.

    `applied_order` lists (branch, eligible) per arriving transaction in
    miner-applied order; the winner is the first eligible one. `triggers`
    maps each actually-triggered branch to its ground-truth trigger instant
    (message: sender creation time; timer: due time). Returns
    (winner, ground-truth winner, Match/Mismatch).
    """
    winner = next((branch for branch, eligible in applied_order if eligible), None)
    if winner is None:
        raise NoEligibleBranch("no branch was accepted")
    if not triggers:
        raise ValueError("at least one ground-truth trigger required")
    order = {branch: i for i, (branch, _) in enumerate(applied_order)}
    truth = min(triggers, key=lambda b: (triggers[b], order.get(b, len(order)), b))
    outcome = Outcome.MATCH if truth == winner else Outcome.MISMATCH
    return winner, truth, outcome


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
    gateway they belong to. A flow target of None ends the process."""

    elements: Mapping[_Ident, Element]
    flows: Mapping[_Ident, _Ident | None]
    start: _Ident

    def validate(self) -> None:
        if self.start not in self.elements:
            raise ModelError(f"start element {self.start!r} does not exist")
        if not isinstance(self.elements[self.start], StartTimer):
            raise ModelError("start element must be a StartTimer")
        branch_owner: dict[str, str] = {}
        for el_id, el in self.elements.items():
            if el.id != el_id:
                raise ModelError(f"element key {el_id!r} does not match id {el.id!r}")
            if isinstance(el, EventGateway):
                if len(el.branches) < 2:
                    raise ModelError(f"gateway {el_id!r} needs >= 2 branches")
                for branch in el.branches:
                    if branch not in self.elements:
                        raise ModelError(f"gateway branch {branch!r} does not exist")
                    if not isinstance(self.elements[branch], (TimerCatch, MessageCatch)):
                        raise ModelError(f"branch {branch!r} must be a timer or message catch")
                    if branch in branch_owner:
                        raise ModelError(f"branch {branch!r} attached to two gateways")
                    branch_owner[branch] = el_id
        for source, target in self.flows.items():
            if source not in self.elements:
                raise ModelError(f"flow source {source!r} does not exist")
            if target is not None and target not in self.elements:
                raise ModelError(f"flow target {target!r} does not exist")
        # reachability from start
        seen: set[str] = set()
        frontier = [self.start]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            el = self.elements[current]
            if isinstance(el, EventGateway):
                frontier.extend(el.branches)
            target = self.flows.get(current)
            if target:
                frontier.append(target)
        unreachable = set(self.elements) - seen
        if unreachable:
            raise ModelError(f"unreachable elements: {sorted(unreachable)}")


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
    gateway_id: str
    applied: list[tuple[str, bool]] = field(default_factory=list)
    resolved: bool = False


@dataclass
class _EnabledEntry:
    """An enabled element. A timer also carries its due instants, fixed at
    enablement, and its guard's progress through them: the targets are the
    dues themselves, or for a delta-guarded timer the dues minus the anchor."""

    anchor: Anchor
    round: _GatewayRound | None = None
    dues: tuple[SimTime, ...] = ()
    state: CycleState | None = None


@dataclass(frozen=True)
class MeasureRequest:
    """Instruction to the runner: query the pull oracle for this instance."""

    request_id: int
    purpose: str  # "guard" or "anchor"


@dataclass
class _PendingGuard:
    request_id: int
    element: str
    tx_id: str
    s_tx: SimTime
    purpose: str
    requested_block: int | None = None
    anchor: Anchor | None = None


@dataclass
class ApplyResult:
    status: str  # "accepted" | "rejected" | "parked"
    reason: str | None = None
    records: list[GuardRecord] = field(default_factory=list)
    newly_enabled: list[str] = field(default_factory=list)
    requests: list[MeasureRequest] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"


class ProcessInstance:
    """Mutable execution state of one process model under one time measure."""

    def __init__(
        self,
        model: ProcessModel,
        measure_kind: MeasureKind,
        chain_params: ChainParams,
        activation_floor_ms: SimTime = 0,
        cycle_limit: int = 64,
    ):
        model.validate()
        self.model = model
        self.measure_kind = measure_kind
        self.chain_params = chain_params
        self.cycle_limit = cycle_limit
        self.records: list[GuardRecord] = []
        self.done = False
        self._request_counter = itertools.count()
        self._read = _SYNC_READS.get(measure_kind)  # None: ask the pull oracle
        self._pending: dict[int, _PendingGuard] = {}
        self._message_notes: dict[str, list[tuple[SimTime, bool]]] = {}
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
        return 0 if entry is None or entry.state is None else entry.state.next_index

    def note_message_created(self, element_id: str, s_tx: SimTime) -> None:
        """Record a message transaction's creation for deferred-choice truth."""
        self._message_notes.setdefault(element_id, []).append((s_tx, False))

    def apply(self, tx: Transaction, ctx: TxContext, real_now: SimTime) -> ApplyResult:
        """Advance the state machine by one transaction, if its guard passes."""
        element_id = str(tx.payload.get("op", ""))
        if self.done or element_id not in self._enabled:
            return ApplyResult(status="rejected", reason="element_not_enabled")
        element = self.model.elements[element_id]
        if isinstance(element, (Task, MessageCatch)):
            return self._accept_unguarded(element, tx, ctx, real_now)
        return self._guard(element, tx, ctx, real_now)

    def on_callback(
        self, request_id: int, value: SimTime, tx: Transaction, ctx: TxContext, real_now: SimTime
    ) -> ApplyResult:
        """Finalize a parked pull-oracle decision with the callback's value."""
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return ApplyResult(status="rejected", reason="unknown_request")
        if pending.purpose == "anchor":
            if pending.anchor is not None and pending.anchor.measured_ms is None:
                pending.anchor.measured_ms = value
            return ApplyResult(status="accepted")
        if self.done or pending.element not in self._enabled:
            return ApplyResult(status="rejected", reason="superseded")
        claim = Transaction(
            id=pending.tx_id,
            sender=tx.sender,
            created_at=pending.s_tx,
            payload={"op": pending.element},
        )
        # the decision is attributed to the requesting block, not the callback's
        claim_ctx = replace(ctx, tx=claim, block_number=pending.requested_block)
        return self._guard(
            self.model.elements[pending.element], claim, claim_ctx, real_now, measured=value
        )

    def finalize(self, horizon_ms: SimTime) -> list[GuardRecord]:
        """Emit StuckPending records for guards still parked at the horizon."""
        stuck = []
        for pending in self._pending.values():
            if pending.purpose != "guard":
                continue
            record = GuardRecord(
                element=pending.element,
                constraint_type=_constraint_type(self.model.elements[pending.element]),
                measure_kind=self.measure_kind,
                outcome=Outcome.STUCK_PENDING,
                ground_truth_ms=pending.s_tx,
                tx_id=pending.tx_id,
                accepted=False,
            )
            self.records.append(record)
            stuck.append(record)
        self._pending = {rid: p for rid, p in self._pending.items() if p.purpose != "guard"}
        return stuck

    # -- guard paths -------------------------------------------------------

    def _accept_unguarded(self, element, tx, ctx, real_now) -> ApplyResult:
        result = ApplyResult(status="accepted")
        anchor_value: SimTime | None = None
        if self._read is not None:
            try:
                anchor_value = self._read(ctx)
            except (MissingParameter, UninitializedOracle):
                pass  # next anchor stays unmeasured; downstream guards will reject
        round_ = self._enabled[element.id].round
        if round_ is not None:
            round_.applied.append((element.id, True))
            self._resolve_gateway(round_, element.id, real_now, result)
        if isinstance(element, MessageCatch):
            self._consume_message_note(element.id, tx.created_at)
        next_anchor = Anchor(truth_ms=tx.created_at, measured_ms=anchor_value)
        if self._read is None:
            result.requests.append(self._request("anchor", element.id, tx, anchor=next_anchor))
        self._advance(element.id, next_anchor, result)
        return result

    def _guard(self, element, tx, ctx, real_now, measured=None) -> ApplyResult:
        """Evaluate a timer guard against the next target of its schedule:
        the measured instant against a due, or for durations and relative
        cycles the measured interval since the anchor against a required
        delay. `measured` is a pull-oracle callback's value; without it the
        guard measures now."""
        entry = self._enabled[element.id]
        if measured is None:
            if self._read is None:
                request = self._request("guard", element.id, tx, block=ctx.block_number)
                return ApplyResult(status="parked", requests=[request])
            try:
                measured = self._read(ctx)
            except (MissingParameter, UninitializedOracle) as exc:
                return ApplyResult(status="rejected", reason=type(exc).__name__)
        truth, observed, delta = tx.created_at, measured, _is_delta(element)
        if delta:
            anchor = entry.anchor
            if anchor.measured_ms is None:
                return ApplyResult(status="rejected", reason="anchor_pending")
            truth, observed = truth - anchor.truth_ms, measured - anchor.measured_ms
        ctype = _constraint_type(element)
        iteration = entry.state.next_index
        target = entry.state.due_schedule[iteration]
        state, accepted, missed = cycle_advance(entry.state, observed)
        record = GuardRecord(
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
        )
        self.records.append(record)
        result = ApplyResult(status="accepted", records=[record])
        if entry.round is not None:
            entry.round.applied.append((element.id, accepted))
        if not accepted:
            result.status = "rejected"
            result.reason = _NOT_DUE[ctype]
            return result
        if entry.round is not None:
            self._resolve_gateway(entry.round, element.id, real_now, result)
        entry.state = state
        if state.next_index < len(state.due_schedule):
            return result
        self._advance(element.id, Anchor(truth_ms=tx.created_at, measured_ms=measured), result)
        return result

    # -- gateway handling --------------------------------------------------

    def _resolve_gateway(self, round_, winner_branch, real_now, result) -> None:
        if round_.resolved:
            return
        round_.resolved = True
        gateway = self.model.elements[round_.gateway_id]
        triggers = self._gateway_triggers(gateway, real_now)
        winner, truth_winner, outcome = resolve_deferred_choice(
            round_.applied, triggers
        )
        record = GuardRecord(
            element=round_.gateway_id,
            constraint_type=DEFERRED_CHOICE,
            measure_kind=self.measure_kind,
            outcome=outcome,
            ground_truth_ms=triggers.get(truth_winner),
            winner=winner,
            truth_winner=truth_winner,
            accepted=True,
        )
        self.records.append(record)
        result.records.append(record)
        # losing branches leave the enabled set; the winner is removed by _advance
        for branch in gateway.branches:
            if branch != winner_branch:
                self._enabled.pop(branch, None)

    def _gateway_triggers(self, gateway, real_now) -> dict[str, SimTime]:
        triggers: dict[str, SimTime] = {}
        for branch in gateway.branches:
            element = self.model.elements[branch]
            if isinstance(element, TimerCatch):
                triggers[branch] = self._enabled[branch].dues[0]
            else:
                notes = self._message_notes.get(branch, [])
                candidates = [
                    s_tx for s_tx, consumed in notes if not consumed and s_tx <= real_now
                ]
                if candidates:
                    triggers[branch] = min(candidates)
        return triggers

    def _consume_message_note(self, element_id, s_tx) -> None:
        notes = self._message_notes.get(element_id, [])
        for i, (note_time, consumed) in enumerate(notes):
            if not consumed and note_time == s_tx:
                notes[i] = (note_time, True)
                return

    # -- plumbing ----------------------------------------------------------

    def _request(self, purpose, element_id, tx, block=None, anchor=None) -> MeasureRequest:
        """Register a pull-oracle query for a parked guard or a pending anchor."""
        request_id = next(self._request_counter)
        self._pending[request_id] = _PendingGuard(
            request_id=request_id,
            element=element_id,
            tx_id=tx.id,
            s_tx=tx.created_at,
            purpose=purpose,
            requested_block=block,
            anchor=anchor,
        )
        return MeasureRequest(request_id=request_id, purpose=purpose)

    def _advance(self, accepted_element, next_anchor, result) -> None:
        self._enabled.pop(accepted_element, None)
        target = self.model.flows.get(accepted_element)
        if target is None:
            if not self._enabled:
                self.done = True
            return
        self._enable(target, next_anchor, result)

    def _enable(self, element_id, anchor, result) -> None:
        element = self.model.elements[element_id]
        if isinstance(element, EventGateway):
            round_ = _GatewayRound(gateway_id=element_id)
            for branch in element.branches:
                self._enabled[branch] = self._entry(branch, anchor, round_)
                result.newly_enabled.append(branch)
        else:
            self._enabled[element_id] = self._entry(element_id, anchor)
            result.newly_enabled.append(element_id)

    def _entry(self, element_id, anchor, round_=None) -> _EnabledEntry:
        """Enable one element; a timer's due schedule is computed here, once.
        Only a cycle keeps more than its first due."""
        element = self.model.elements[element_id]
        if not isinstance(element, (StartTimer, TimerCatch)):
            return _EnabledEntry(anchor, round_)
        dues = _dues_from(element.spec, anchor.truth_ms, self.cycle_limit)
        if _constraint_type(element) != CYCLE:
            if isinstance(element.spec, CycleAbsTimer) and dues[0] < anchor.truth_ms:
                raise ModelError("no start due time at or after the activation floor")
            dues = dues[:1]
        targets = tuple(d - anchor.truth_ms for d in dues) if _is_delta(element) else dues
        return _EnabledEntry(anchor, round_, dues, CycleState(due_schedule=targets))

