"""Process engine: classification rules and guarded execution paths."""

import pytest
from hypothesis import given, strategies as st

from chaintime.chain import SchemaError, Transaction
from chaintime.measures import ChainParams, MeasureKind, TxContext
from chaintime.process import (
    ABSOLUTE,
    CYCLE,
    DEFERRED_CHOICE,
    RELATIVE,
    EventGateway,
    MessageCatch,
    Outcome,
    ProcessInstance,
    ProcessModel,
    StartTimer,
    Task,
    TimerCatch,
    classify_absolute,
)
from chaintime.timers import parse_timer


class TestClassifyAbsolute:
    # [PAPER] definitions: FN iff measured < s_e <= s_tx; FP iff s_tx < s_e <= measured
    def test_quadrants(self):
        assert classify_absolute(s_tx=100, s_e=50, measured=80) is Outcome.TP
        assert classify_absolute(s_tx=10, s_e=50, measured=20) is Outcome.TN
        assert classify_absolute(s_tx=10, s_e=50, measured=80) is Outcome.FP
        assert classify_absolute(s_tx=100, s_e=50, measured=20) is Outcome.FN

    def test_boundary_deadline_equals_creation(self):
        # deadline reached exactly at creation counts as elapsed
        assert classify_absolute(s_tx=50, s_e=50, measured=49) is Outcome.FN
        assert classify_absolute(s_tx=50, s_e=50, measured=50) is Outcome.TP

    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    def test_partition(self, s_tx, s_e, measured):
        truth = s_e <= s_tx
        reported = s_e <= measured
        expected = {
            (True, True): Outcome.TP,
            (False, False): Outcome.TN,
            (False, True): Outcome.FP,
            (True, False): Outcome.FN,
        }[(truth, reported)]
        assert classify_absolute(s_tx, s_e, measured) is expected


class TestClassifyDelta:
    """Minimum-delay decisions: true and measured intervals since the anchor
    against the required delay."""

    def test_quadrants(self):
        assert classify_absolute(s_tx=100, s_e=50, measured=100) is Outcome.TP
        assert classify_absolute(s_tx=40, s_e=50, measured=40) is Outcome.TN
        assert classify_absolute(s_tx=40, s_e=50, measured=100) is Outcome.FP
        assert classify_absolute(s_tx=100, s_e=50, measured=40) is Outcome.FN

    def test_negative_measured_delta_counts_as_not_met(self):
        # anchor measured at 100, the claim at 90: the interval is -10
        assert classify_absolute(s_tx=100, s_e=5, measured=-10) is Outcome.FN


# ---------------------------------------------------------------------------
# Engine walkthroughs (parameter measure: measured == timestamp parameter)
# ---------------------------------------------------------------------------

PARAMS = ChainParams(genesis_timestamp=0, assumed_mean_block_time_ms=10_000)


def race_model() -> ProcessModel:
    elements = {
        "start": StartTimer(id="start", spec=parse_timer("1970-01-01T00:00:01Z")),
        "gate": EventGateway(id="gate", branches=("wait", "note")),
        "wait": TimerCatch(id="wait", spec=parse_timer("PT2S")),
        "note": MessageCatch(id="note", message="note"),
        "cycle": TimerCatch(id="cycle", spec=parse_timer("R2/PT1S")),
    }
    flows = {"start": "gate", "wait": "cycle", "note": None, "cycle": None}
    return ProcessModel(elements=elements, flows=flows, start="start")


def make_instance(measure=MeasureKind.PARAMETER) -> ProcessInstance:
    return ProcessInstance(race_model(), measure)


def claim(element: str, at: int, tx_id: str = None, sender: str = "p") -> Transaction:
    return Transaction(
        id=tx_id or f"{element}-{at}",
        sender=sender,
        created_at=at,
        op=element,
        timestamp=at,
    )


def ctx_for(tx: Transaction, block: int = 1, block_ts: int = None) -> TxContext:
    return TxContext(
        tx=tx,
        block_number=block,
        block_timestamp=block_ts if block_ts is not None else tx.created_at + 100,
        position_in_block=0,
        chain_params=PARAMS,
    )


class TestEngineAbsolute:
    def test_rejects_before_deadline_with_tn_record(self):
        inst = make_instance()
        tx = claim("start", 500)
        result = inst.apply(tx, ctx_for(tx), real_now=600)
        assert result.status == "rejected" and result.reason == "deadline_not_reached"
        assert result.records[0].outcome is Outcome.TN
        assert inst.is_enabled("start")

    def test_accepts_after_deadline_and_enables_gateway(self):
        inst = make_instance()
        tx = claim("start", 1_500)
        result = inst.apply(tx, ctx_for(tx), real_now=1_600)
        assert result.accepted
        assert result.records[0].outcome is Outcome.TP
        assert sorted(result.newly_enabled) == ["note", "wait"]

    def test_unknown_element_rejected(self):
        inst = make_instance()
        tx = claim("nope", 1_500)
        result = inst.apply(tx, ctx_for(tx), real_now=1_600)
        assert result.status == "rejected" and result.reason == "element_not_enabled"
        assert result.records == [] and inst.is_enabled("start")


def started(inst: ProcessInstance, at: int = 1_500) -> None:
    tx = claim("start", at)
    assert inst.apply(tx, ctx_for(tx), real_now=at + 100).accepted


class TestEngineRelativeAndRace:
    def test_relative_guard_measures_delta_from_anchor(self):
        inst = make_instance()
        started(inst, at=1_500)
        early = claim("wait", 3_000)  # delta 1500 < 2000
        result = inst.apply(early, ctx_for(early), real_now=3_100)
        assert result.status == "rejected"
        assert result.records[0].outcome is Outcome.TN
        late = claim("wait", 3_600)  # delta 2100 >= 2000
        result = inst.apply(late, ctx_for(late), real_now=3_700)
        assert result.accepted
        record = next(r for r in result.records if r.constraint_type == RELATIVE)
        assert record.outcome is Outcome.TP and record.measured_ms == 2_100

    def test_timer_win_with_earlier_message_is_mismatch(self):
        inst = make_instance()
        started(inst, at=1_500)
        inst.note_message_created("note", 2_000)  # created but included late
        tx = claim("wait", 3_600)
        result = inst.apply(tx, ctx_for(tx), real_now=3_700)
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.outcome is Outcome.MISMATCH
        assert gateway.winner == "wait" and gateway.truth_winner == "note"
        assert not inst.is_enabled("note")

    def test_message_win_is_match_and_ends_process(self):
        inst = make_instance()
        started(inst, at=1_500)
        inst.note_message_created("note", 2_000)
        tx = claim("note", 2_000, sender="customer")
        result = inst.apply(tx, ctx_for(tx), real_now=2_100)
        assert result.accepted
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.outcome is Outcome.MATCH
        assert inst.done

    def test_rejected_timer_then_message_wins_with_match(self):
        inst = make_instance()
        started(inst, at=1_500)
        early = claim("wait", 3_000)  # delta 1500 < 2000
        assert inst.apply(early, ctx_for(early), real_now=3_100).status == "rejected"
        inst.note_message_created("note", 3_200)
        tx = claim("note", 3_200, sender="customer")
        result = inst.apply(tx, ctx_for(tx), real_now=3_300)
        assert result.accepted
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "note" and gateway.truth_winner == "note"
        assert gateway.outcome is Outcome.MATCH

    def test_trigger_tie_goes_to_the_branch_guarded_first(self):
        inst = make_instance()
        started(inst, at=1_500)  # the timer is due at 3500
        # created at the due, but claiming 3000: measured delta 1500 < 2000
        lying = Transaction(id="wait-lie", sender="p", created_at=3_500, op="wait",
                            timestamp=3_000)
        assert inst.apply(lying, ctx_for(lying), real_now=3_600).status == "rejected"
        inst.note_message_created("note", 3_500)
        tx = claim("note", 3_500, sender="customer")
        result = inst.apply(tx, ctx_for(tx), real_now=3_700)
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "note" and gateway.truth_winner == "wait"
        assert gateway.outcome is Outcome.MISMATCH and gateway.ground_truth_ms == 3_500

    @pytest.mark.parametrize("rejections", [0, 1, 2])
    def test_trigger_tie_with_an_unguarded_branch_ignores_rejections(self, rejections):
        # the message is created at the timer's due but not yet included: the
        # guarded timer takes the tie however often it was rejected first
        inst = make_instance()
        started(inst, at=1_500)
        inst.note_message_created("note", 3_500)
        for i in range(rejections):
            early = claim("wait", 3_000 + i)
            assert inst.apply(early, ctx_for(early), real_now=3_100).status == "rejected"
        tx = claim("wait", 3_600)
        result = inst.apply(tx, ctx_for(tx), real_now=3_700)
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "wait" and gateway.truth_winner == "wait"
        assert gateway.outcome is Outcome.MATCH

    def test_refused_message_claim_never_triggers_the_race(self):
        # the message is claimed before the gateway is enabled: the contract
        # refuses it, so it is no trigger once the race is on
        inst = make_instance()
        inst.note_message_created("note", 500)
        early = claim("note", 500, sender="customer")
        assert inst.apply(early, ctx_for(early), real_now=600).reason == "element_not_enabled"
        started(inst, at=1_500)
        tx = claim("wait", 3_600)
        result = inst.apply(tx, ctx_for(tx), real_now=3_700)
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "wait" and gateway.truth_winner == "wait"
        assert gateway.outcome is Outcome.MATCH and gateway.ground_truth_ms == 3_500


class TestEngineCycle:
    def advance_to_cycle(self, inst):
        started(inst, at=1_500)
        tx = claim("wait", 3_600)
        assert inst.apply(tx, ctx_for(tx), real_now=3_700).accepted

    def test_iterations_consume_in_order_then_advance(self):
        inst = make_instance()
        self.advance_to_cycle(inst)
        # dues: anchor 3600 + 1s, + 2s
        early = claim("cycle", 4_500)
        assert inst.apply(early, ctx_for(early), real_now=4_600).status == "rejected"
        first = claim("cycle", 4_700)
        result = inst.apply(first, ctx_for(first), real_now=4_800)
        assert result.accepted and result.records[0].iteration == 0
        assert inst.cycle_next_index("cycle") == 1
        second = claim("cycle", 5_700)
        result = inst.apply(second, ctx_for(second), real_now=5_800)
        assert result.accepted and result.records[0].iteration == 1
        assert inst.done

    def test_missed_iterations_reported_not_skipped(self):
        inst = make_instance()
        self.advance_to_cycle(inst)
        tardy = claim("cycle", 9_000)
        result = inst.apply(tardy, ctx_for(tardy), real_now=9_100)
        assert result.accepted
        assert result.records[0].missed_iterations == (1,)
        assert inst.cycle_next_index("cycle") == 1  # second iteration still pending
        again = claim("cycle", 9_000, tx_id="cycle-9000-again")
        result = inst.apply(again, ctx_for(again), real_now=9_100)
        assert result.accepted and result.records[0].iteration == 1
        assert result.records[0].missed_iterations == ()
        assert inst.done

    def test_claim_after_the_last_iteration_is_not_enabled(self):
        inst = make_instance()
        self.advance_to_cycle(inst)
        for at in (4_700, 5_700):
            tx = claim("cycle", at)
            assert inst.apply(tx, ctx_for(tx), real_now=at + 100).accepted
        extra = claim("cycle", 6_700)
        result = inst.apply(extra, ctx_for(extra), real_now=6_800)
        assert result.status == "rejected" and result.reason == "element_not_enabled"
        assert result.records == []


class TestRequestResponse:
    def test_guard_parks_and_resolves_at_requesting_block(self):
        inst = make_instance(MeasureKind.REQUEST_RESPONSE_ORACLE)
        tx = claim("start", 1_500)
        result = inst.apply(tx, ctx_for(tx, block=4), real_now=1_600)
        assert result.status == "parked"
        done = inst.on_callback(result.requests[0], 2_000, real_now=2_100)
        assert done.accepted
        record = done.records[0]
        assert record.block_number == 4  # decision attributed to requesting block
        # deadline 1000 <= s_tx 1500 and <= measured 2000: a true positive
        assert record.measured_ms == 2_000 and record.outcome is Outcome.TP

    def test_unresolved_guard_becomes_stuck_at_horizon(self):
        inst = make_instance(MeasureKind.REQUEST_RESPONSE_ORACLE)
        tx = claim("start", 1_500)
        assert inst.apply(tx, ctx_for(tx), real_now=1_600).status == "parked"
        assert inst.finalize() is None
        stuck = [r for r in inst.records if r.outcome is Outcome.STUCK_PENDING]
        assert len(stuck) == 1
        assert stuck[0].outcome is Outcome.STUCK_PENDING
        assert stuck[0].constraint_type == ABSOLUTE


def tick_instance(spec: str, enabled_at: int, **kwargs) -> ProcessInstance:
    """start (due 1000) -> tick (a timer catch on `spec`), with tick enabled."""
    elements = {
        "start": StartTimer(id="start", spec=parse_timer("1970-01-01T00:00:01Z")),
        "tick": TimerCatch(id="tick", spec=parse_timer(spec)),
    }
    model = ProcessModel(elements=elements, flows={"start": "tick", "tick": None},
                         start="start")
    inst = ProcessInstance(model, MeasureKind.PARAMETER, **kwargs)
    started(inst, at=enabled_at)
    return inst


def claim_each_due(inst: ProcessInstance, element: str) -> list[int]:
    """Claim every due the actors see, exactly at the due; the iterations."""
    iterations = []
    for due in inst.element_due_times(element):
        tx = claim(element, due)
        result = inst.apply(tx, ctx_for(tx), real_now=due + 100)
        assert result.accepted
        iterations.append(result.records[0].iteration)
    return iterations


class TestDueSchedule:
    """The dues the actors see are the schedule the guard steps through."""

    def test_absolute_cycle_enabled_late_starts_at_its_next_due(self):
        # dues 2000, 3000, 4000; enabled at 2500, so 2000 is dropped
        inst = tick_instance("R3/1970-01-01T00:00:02Z/PT1S", enabled_at=2_500)
        assert inst.element_due_times("tick") == [3_000, 4_000]
        assert claim_each_due(inst, "tick") == [0, 1]
        assert inst.done

    def test_cycle_limit_caps_a_relative_cycle(self):
        inst = tick_instance("R5/PT1S", enabled_at=1_500, cycle_limit=3)
        assert inst.element_due_times("tick") == [2_500, 3_500, 4_500]
        assert claim_each_due(inst, "tick") == [0, 1, 2]
        assert inst.done

    def test_start_cycle_without_due_after_the_floor_is_a_value_error(self):
        # a scenario refuses this floor; an instance built directly raises
        start = StartTimer(id="start", spec=parse_timer("R3/1970-01-01T00:00:01Z/PT1S"))
        model = ProcessModel(elements={"start": start}, flows={"start": None}, start="start")
        with pytest.raises(ValueError, match="activation floor"):
            inst = ProcessInstance(model, MeasureKind.PARAMETER, activation_floor_ms=10_000)
            inst.element_due_times("start")

    def test_start_cycle_due_is_its_first_at_or_after_the_floor(self):
        start = StartTimer(id="start", spec=parse_timer("R3/1970-01-01T00:00:01Z/PT1S"))
        model = ProcessModel(elements={"start": start}, flows={"start": None}, start="start")
        inst = ProcessInstance(model, MeasureKind.PARAMETER, activation_floor_ms=1_500)
        assert inst.element_due_times("start") == [2_000]


class TestEngineCycleAbsolute:
    """A TimerCatch on an absolutely anchored cycle: instant-shaped records."""

    def make(self) -> ProcessInstance:
        # dues 2000, 3000, 4000; enabled at 2500, so 2000 is dropped
        return tick_instance("R3/1970-01-01T00:00:02Z/PT1S", enabled_at=2_500)

    def test_rejection_before_first_due_is_recorded(self):
        inst = self.make()
        early = claim("tick", 2_800)
        result = inst.apply(early, ctx_for(early), real_now=2_900)
        assert result.status == "rejected" and result.reason == "iteration_not_due"
        (record,) = result.records
        assert record.constraint_type == CYCLE
        assert record.deadline_ms == 3_000 and record.required_delta_ms is None
        assert record.outcome is Outcome.TN and record.accepted is False
        assert record.iteration == 0 and record.missed_iterations == ()
        assert record.ground_truth_ms == 2_800 and record.measured_ms == 2_800

    def test_iterations_carry_deadline_outcome_and_missed(self):
        inst = self.make()
        # a sender claiming 3100 for a tx created at 2900 passes the 3000 due
        lying = Transaction(id="tick-lie", sender="p", created_at=2_900, op="tick",
                            timestamp=3_100)
        result = inst.apply(lying, ctx_for(lying), real_now=3_000)
        (record,) = result.records
        assert result.accepted and record.outcome is Outcome.FP
        assert record.deadline_ms == 3_000 and record.iteration == 0
        assert record.ground_truth_ms == 2_900 and record.measured_ms == 3_100
        tardy = claim("tick", 4_500)
        result = inst.apply(tardy, ctx_for(tardy), real_now=4_600)
        (record,) = result.records
        assert result.accepted and record.outcome is Outcome.TP
        assert record.deadline_ms == 4_000 and record.iteration == 1
        assert record.missed_iterations == ()
        assert inst.done

    def test_missed_iterations_listed_on_late_acceptance(self):
        inst = self.make()
        tardy = claim("tick", 4_500)
        result = inst.apply(tardy, ctx_for(tardy), real_now=4_600)
        (record,) = result.records
        assert result.accepted and record.outcome is Outcome.TP
        assert record.deadline_ms == 3_000 and record.iteration == 0
        assert record.missed_iterations == (1,)
        assert inst.cycle_next_index("tick") == 1 and not inst.done

    def test_gateway_trigger_is_first_due_after_enablement(self):
        # the race opens at 2500, so the cycle branch triggers at its 3000 due,
        # not at the 2000 one: the message created at 2700 came first
        elements = {
            "start": StartTimer(id="start", spec=parse_timer("1970-01-01T00:00:01Z")),
            "gate": EventGateway(id="gate", branches=("tick", "note")),
            "tick": TimerCatch(id="tick", spec=parse_timer("R3/1970-01-01T00:00:02Z/PT1S")),
            "note": MessageCatch(id="note", message="note"),
        }
        flows = {"start": "gate", "tick": None, "note": None}
        model = ProcessModel(elements=elements, flows=flows, start="start")
        inst = ProcessInstance(model, MeasureKind.PARAMETER)
        started(inst, at=2_500)
        inst.note_message_created("note", 2_700)
        tx = claim("tick", 3_100)
        result = inst.apply(tx, ctx_for(tx), real_now=3_100)
        assert result.accepted
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.outcome is Outcome.MISMATCH
        assert gateway.winner == "tick" and gateway.truth_winner == "note"
        assert gateway.ground_truth_ms == 2_700


def anchored_race_instance() -> ProcessInstance:
    """Request/response instance whose gateway branches wait on an anchor
    callback: start -> send (task) -> gate(wait PT2S | cycle R2/PT1S)."""
    elements = {
        "start": StartTimer(id="start", spec=parse_timer("1970-01-01T00:00:01Z")),
        "send": Task(id="send", name="send", performer="p"),
        "gate": EventGateway(id="gate", branches=("wait", "cycle")),
        "wait": TimerCatch(id="wait", spec=parse_timer("PT2S")),
        "cycle": TimerCatch(id="cycle", spec=parse_timer("R2/PT1S")),
    }
    flows = {"start": "send", "send": "gate", "wait": None, "cycle": None}
    model = ProcessModel(elements=elements, flows=flows, start="start")
    return ProcessInstance(model, MeasureKind.REQUEST_RESPONSE_ORACLE)


def callback(inst, request_id: int, value: int):
    return inst.on_callback(request_id, value, real_now=value + 100)


class TestRequestResponseAnchors:
    def setup_pending_anchor(self):
        inst = anchored_race_instance()
        tx = claim("start", 1_500)
        parked = inst.apply(tx, ctx_for(tx, block=1), real_now=1_600)
        assert callback(inst, parked.requests[0], 1_700).accepted
        send = claim("send", 2_000)
        result = inst.apply(send, ctx_for(send, block=2), real_now=2_100)
        assert result.accepted  # not parked: its one request is the anchor's
        (anchor_request,) = result.requests
        return inst, anchor_request

    @pytest.mark.parametrize("branch", ["wait", "cycle"])
    def test_guard_on_pending_anchor_rejects_without_record(self, branch):
        inst, _ = self.setup_pending_anchor()
        before = len(inst.records)
        tx = claim(branch, 9_000)
        parked = inst.apply(tx, ctx_for(tx, block=3), real_now=9_100)
        assert parked.status == "parked"
        result = callback(inst, parked.requests[0], 9_500)
        assert result.status == "rejected" and result.reason == "anchor_pending"
        assert result.records == [] and len(inst.records) == before
        assert inst.is_enabled(branch)

    def test_relative_guard_parks_then_records_delta(self):
        inst, anchor_id = self.setup_pending_anchor()
        assert callback(inst, anchor_id, 2_400).accepted  # anchor measured at 2400
        tx = claim("wait", 4_300)
        parked = inst.apply(tx, ctx_for(tx, block=5), real_now=4_400)
        assert parked.status == "parked"
        result = callback(inst, parked.requests[0], 4_600)
        assert result.accepted
        record = next(r for r in result.records if r.constraint_type == RELATIVE)
        assert record.element == "wait" and record.tx_id == "wait-4300"
        assert record.measured_ms == 2_200 and record.raw_measured_ms == 4_600
        assert record.ground_truth_ms == 2_300 and record.required_delta_ms == 2_000
        assert record.deadline_ms is None and record.block_number == 5
        assert record.outcome is Outcome.TP and record.accepted is True
        gateway = next(r for r in result.records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "wait" and not inst.is_enabled("cycle")
        assert inst.done

    def test_parked_timer_catch_becomes_stuck_with_its_constraint_type(self):
        inst, _ = self.setup_pending_anchor()
        for branch in ("wait", "cycle"):
            tx = claim(branch, 9_000)
            assert inst.apply(tx, ctx_for(tx, block=3), real_now=9_100).status == "parked"
        inst.finalize()
        stuck = [r for r in inst.records if r.outcome is Outcome.STUCK_PENDING]
        assert [(r.element, r.constraint_type) for r in stuck] == [
            ("wait", RELATIVE), ("cycle", CYCLE),
        ]
        assert all(r.outcome is Outcome.STUCK_PENDING for r in stuck)


class TestModelValidation:
    """A ProcessModel checks its rules when it is built, each at its field."""

    def test_gateway_needs_two_branches(self):
        elements = {
            "start": StartTimer(id="start", spec=parse_timer("P1D")),
            "g": EventGateway(id="g", branches=("w",)),
            "w": TimerCatch(id="w", spec=parse_timer("P1D")),
        }
        with pytest.raises(SchemaError) as exc_info:
            ProcessModel(elements=elements, flows={"start": "g", "w": None}, start="start")
        assert exc_info.value.path == "elements[1].branches"

    def test_unreachable_elements_rejected(self):
        elements = {
            "start": StartTimer(id="start", spec=parse_timer("P1D")),
            "orphan": Task(id="orphan", name="x", performer="p"),
        }
        with pytest.raises(SchemaError) as exc_info:
            ProcessModel(elements=elements, flows={"start": None}, start="start")
        assert exc_info.value.path == "elements[1]"

    def test_element_key_must_be_its_id(self):
        elements = {"start": StartTimer(id="begin", spec=parse_timer("P1D"))}
        with pytest.raises(SchemaError, match="is not its id") as exc_info:
            ProcessModel(elements=elements, flows={"start": None}, start="start")
        assert exc_info.value.path == "elements[0].id"

    def test_start_must_be_timer(self):
        elements = {"t": Task(id="t", name="x", performer="p")}
        with pytest.raises(SchemaError) as exc_info:
            ProcessModel(elements=elements, flows={"t": None}, start="t")
        assert exc_info.value.path == "start"

    @pytest.mark.parametrize("name", ["", "a,b", "a\nb", "a\rb"])
    def test_element_id_is_a_name(self, name):
        elements = {name: StartTimer(id=name, spec=parse_timer("P1D"))}
        with pytest.raises(SchemaError) as exc_info:
            ProcessModel(elements=elements, flows={name: None}, start=name)
        assert exc_info.value.path == "elements[0].id"
