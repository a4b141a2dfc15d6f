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
    ChainParams,
    MeasureKind,
    MissingParameter,
    TxContext,
    UninitializedOracle,
    measure_bn,
    measure_bt,
    measure_pa,
    measure_so,
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


class ProcessError(Exception):
    pass


class ElementNotEnabled(ProcessError):
    pass


class GuardRejected(ProcessError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class CycleExhausted(ProcessError):
    pass


class NoEligibleBranch(ProcessError):
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
    """
    if measured < s_e <= s_tx:
        return Outcome.FN
    if s_tx < s_e <= measured:
        return Outcome.FP
    if s_e <= s_tx:
        return Outcome.TP
    return Outcome.TN


def check_relative(
    m_first: SimTime,
    m_second: SimTime,
    required_delta: int,
    truth_first: SimTime,
    truth_second: SimTime,
) -> Outcome:
    """Classify a minimum-delay decision between two causally ordered txs."""
    measured_met = (m_second - m_first) >= required_delta
    truth_met = (truth_second - truth_first) >= required_delta
    if measured_met and truth_met:
        return Outcome.TP
    if measured_met:
        return Outcome.FP
    if truth_met:
        return Outcome.FN
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
    anchor: Anchor
    applied: list[tuple[str, bool]] = field(default_factory=list)
    resolved: bool = False


@dataclass
class _EnabledEntry:
    anchor: Anchor
    round: _GatewayRound | None = None


@dataclass
class _CycleProgress:
    next_index: int
    repetitions: int
    period_ms: int
    abs_schedule: tuple[SimTime, ...] | None  # None for relative cycles


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


class _NeedsCallback(Exception):
    pass


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
        self.activation_floor_ms = activation_floor_ms
        self.cycle_limit = cycle_limit
        self.records: list[GuardRecord] = []
        self.done = False
        self._request_counter = itertools.count()
        self._enabled: dict[str, _EnabledEntry] = {}
        self._cycles: dict[str, _CycleProgress] = {}
        self._pending: dict[int, _PendingGuard] = {}
        self._message_notes: dict[str, list[tuple[SimTime, bool]]] = {}
        start_anchor = Anchor(truth_ms=activation_floor_ms, measured_ms=activation_floor_ms)
        self._enabled[model.start] = _EnabledEntry(anchor=start_anchor)

    # -- public surface ----------------------------------------------------

    def enabled_elements(self) -> list[str]:
        return sorted(self._enabled)

    def is_enabled(self, element_id: str) -> bool:
        return element_id in self._enabled

    def element_due_times(self, element_id: str) -> list[SimTime]:
        """Ground-truth due instants for an enabled timer element (actor view)."""
        entry = self._enabled.get(element_id)
        if entry is None:
            return []
        element = self.model.elements[element_id]
        if isinstance(element, StartTimer):
            return [self._start_deadline()]
        if not isinstance(element, TimerCatch):
            return []
        return due_times(element.spec, entry.anchor.truth_ms, self.cycle_limit)

    def cycle_next_index(self, element_id: str) -> int:
        """Iterations already accepted for a cycle element (actor view)."""
        progress = self._cycles.get(element_id)
        return 0 if progress is None else progress.next_index

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

    # -- measure evaluation ------------------------------------------------

    def _measure_sync(self, ctx: TxContext) -> SimTime:
        kind = self.measure_kind
        if kind is MeasureKind.BLOCK_TIMESTAMP:
            return measure_bt(ctx)
        if kind is MeasureKind.BLOCK_NUMBER:
            return measure_bn(ctx)
        if kind is MeasureKind.PARAMETER:
            return measure_pa(ctx)
        if kind is MeasureKind.STORAGE_ORACLE:
            return measure_so(ctx)
        raise _NeedsCallback()

    # -- guard paths -------------------------------------------------------

    def _accept_unguarded(self, element, tx, ctx, real_now) -> ApplyResult:
        result = ApplyResult(status="accepted")
        anchor_value: SimTime | None = None
        try:
            anchor_value = self._measure_sync(ctx)
        except _NeedsCallback:
            pass  # anchor request issued below
        except (MissingParameter, UninitializedOracle):
            pass  # next anchor stays unmeasured; downstream guards will reject
        round_ = self._enabled[element.id].round
        if round_ is not None:
            round_.applied.append((element.id, True))
            self._resolve_gateway(round_, element.id, real_now, result)
        if isinstance(element, MessageCatch):
            self._consume_message_note(element.id, tx.created_at)
        next_anchor = Anchor(truth_ms=tx.created_at, measured_ms=anchor_value)
        if anchor_value is None and self.measure_kind is MeasureKind.REQUEST_RESPONSE_ORACLE:
            result.requests.append(self._request("anchor", element.id, tx, anchor=next_anchor))
        self._advance(element.id, next_anchor, result)
        return result

    def _guard(self, element, tx, ctx, real_now, measured=None) -> ApplyResult:
        """Evaluate a timer guard against a deadline (measured instant) or a
        required delta (measured interval since the anchor); cycles target
        their next iteration and accept through `cycle_advance`. `measured`
        is a pull-oracle callback's value; without it the guard measures now."""
        entry = self._enabled[element.id]
        anchor = entry.anchor
        ctype = _constraint_type(element)
        deadline = required = iteration = progress = None
        if ctype == CYCLE:
            progress = self._cycles.get(element.id)
            if progress is None:
                progress = self._init_cycle(element.id, element.spec, anchor)
            iteration = progress.next_index
            if progress.abs_schedule is not None:
                deadline = progress.abs_schedule[iteration]
            else:
                required = (iteration + 1) * progress.period_ms
        elif isinstance(element, StartTimer):
            deadline = self._start_deadline()
        elif ctype == ABSOLUTE:
            deadline = element.spec.instant_ms
        else:
            required = element.spec.length_ms

        if measured is None:
            try:
                measured = self._measure_sync(ctx)
            except _NeedsCallback:
                request = self._request("guard", element.id, tx, block=ctx.block_number)
                return ApplyResult(status="parked", requests=[request])
            except (MissingParameter, UninitializedOracle) as exc:
                return ApplyResult(status="rejected", reason=type(exc).__name__)

        if deadline is not None:
            truth, observed, target = tx.created_at, measured, deadline
            outcome = classify_absolute(tx.created_at, deadline, measured)
            reason = "deadline_not_reached"
        else:
            if anchor.measured_ms is None:
                return ApplyResult(status="rejected", reason="anchor_pending")
            truth = tx.created_at - anchor.truth_ms
            observed, target = measured - anchor.measured_ms, required
            outcome = check_relative(
                anchor.measured_ms, measured, required, anchor.truth_ms, tx.created_at
            )
            reason = "delta_not_reached"
        accepted, missed = observed >= target, ()
        if progress is not None:
            schedule = progress.abs_schedule or tuple(
                anchor.measured_ms + k * progress.period_ms
                for k in range(1, progress.repetitions + 1)
            )
            state = CycleState(due_schedule=schedule, next_index=iteration)
            state, accepted, missed = cycle_advance(state, measured)
            reason = "iteration_not_due"

        record = GuardRecord(
            element=element.id,
            constraint_type=ctype,
            measure_kind=self.measure_kind,
            outcome=outcome,
            ground_truth_ms=truth,
            measured_ms=observed,
            deadline_ms=deadline,
            required_delta_ms=required,
            raw_measured_ms=measured,
            tx_id=tx.id,
            block_number=ctx.block_number,
            iteration=iteration,
            missed_iterations=tuple(missed),
            accepted=accepted,
        )
        self.records.append(record)
        result = ApplyResult(status="accepted", records=[record])
        if entry.round is not None:
            entry.round.applied.append((element.id, accepted))
        if not accepted:
            result.status = "rejected"
            result.reason = reason
            return result
        if entry.round is not None:
            self._resolve_gateway(entry.round, element.id, real_now, result)
        if progress is not None:
            progress.next_index = state.next_index
            if progress.next_index < progress.repetitions:
                return result
            del self._cycles[element.id]
        self._advance(element.id, Anchor(truth_ms=tx.created_at, measured_ms=measured), result)
        return result

    def _init_cycle(self, element_id, spec, anchor) -> _CycleProgress:
        if isinstance(spec, CycleRelTimer):
            reps = spec.repetitions or self.cycle_limit
            progress = _CycleProgress(0, reps, spec.period_ms, abs_schedule=None)
        else:
            schedule = _dues_from(spec, anchor.truth_ms, self.cycle_limit)
            progress = _CycleProgress(0, len(schedule), 0, abs_schedule=schedule)
        self._cycles[element_id] = progress
        return progress

    # -- gateway handling --------------------------------------------------

    def _resolve_gateway(self, round_, winner_branch, real_now, result) -> None:
        if round_.resolved:
            return
        round_.resolved = True
        gateway = self.model.elements[round_.gateway_id]
        triggers = self._gateway_triggers(gateway, round_, real_now)
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
                self._cycles.pop(branch, None)

    def _gateway_triggers(self, gateway, round_, real_now) -> dict[str, SimTime]:
        triggers: dict[str, SimTime] = {}
        for branch in gateway.branches:
            element = self.model.elements[branch]
            if isinstance(element, TimerCatch):
                triggers[branch] = _dues_from(
                    element.spec, round_.anchor.truth_ms, self.cycle_limit
                )[0]
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

    def _start_deadline(self) -> SimTime:
        spec = self.model.elements[self.model.start].spec
        if isinstance(spec, DateTimer):
            return spec.instant_ms
        if isinstance(spec, DurationTimer):
            return self.activation_floor_ms + spec.length_ms
        if isinstance(spec, CycleAbsTimer):
            for due in due_times(spec, self.activation_floor_ms, self.cycle_limit):
                if due >= self.activation_floor_ms:
                    return due
            raise ModelError("no start due time at or after the activation floor")
        return self.activation_floor_ms + spec.period_ms

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
            round_ = _GatewayRound(gateway_id=element_id, anchor=anchor)
            for branch in element.branches:
                self._enabled[branch] = _EnabledEntry(anchor=anchor, round=round_)
                result.newly_enabled.append(branch)
        else:
            self._enabled[element_id] = _EnabledEntry(anchor=anchor)
            result.newly_enabled.append(element_id)


def apply_transaction(
    instance: ProcessInstance, tx: Transaction, ctx: TxContext, real_now: SimTime | None = None
) -> ApplyResult:
    """Spec-style wrapper: raises on rejection instead of returning a status."""
    result = instance.apply(tx, ctx, real_now if real_now is not None else ctx.block_timestamp)
    if result.status == "rejected":
        if result.reason == "element_not_enabled":
            raise ElementNotEnabled(str(tx.payload.get("op")))
        if result.reason == "MissingParameter":
            raise MissingParameter(tx.id)
        raise GuardRejected(result.reason or "rejected")
    return result
