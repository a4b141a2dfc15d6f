"""Process engine: classification rules and guarded execution paths."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chaintime import sim
from chaintime.chain import SchemaError, Transaction
from chaintime.measures import ChainParams, MeasureKind, TxContext
from chaintime.process import (
    ABSOLUTE,
    CYCLE,
    DEFERRED_CHOICE,
    RELATIVE,
    EventGateway,
    GuardRecord,
    MessageCatch,
    Outcome,
    ProcessInstance,
    ProcessModel,
    StartTimer,
    Task,
    TimerCatch,
    classify_absolute,
)
from chaintime.scenario import SCENARIO_PRESETS
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


ACCEPTED, PARKED = Counter(accepted=1), Counter(parked=1)


def decide(inst: ProcessInstance, call, *args, **kwargs) -> tuple[Counter, list[GuardRecord]]:
    """Make one apply or on_callback call of inst: the decision it counted, as
    a Counter, and the records it added."""
    decisions, n = inst.decisions.copy(), len(inst.records)
    call(*args, **kwargs)
    return inst.decisions - decisions, inst.records[n:]


def apply_tx(inst: ProcessInstance, tx: Transaction, real_now: int, block: int = 1):
    return decide(inst, inst.apply, tx, ctx_for(tx, block=block), real_now=real_now)


class TestEngineAbsolute:
    def test_rejects_before_deadline_with_tn_record(self):
        inst = make_instance()
        tx = claim("start", 500)
        decided, records = apply_tx(inst, tx, real_now=600)
        assert decided == Counter(deadline_not_reached=1)
        assert records[0].outcome is Outcome.TN
        assert inst.is_enabled("start")

    def test_accepts_after_deadline_and_enables_gateway(self):
        inst = make_instance()
        tx = claim("start", 1_500)
        decided, records = apply_tx(inst, tx, real_now=1_600)
        assert decided == ACCEPTED
        assert records[0].outcome is Outcome.TP
        assert sorted(inst.newly_enabled) == ["note", "wait"]

    def test_unknown_element_rejected(self):
        inst = make_instance()
        tx = claim("nope", 1_500)
        decided, records = apply_tx(inst, tx, real_now=1_600)
        assert decided == Counter(element_not_enabled=1)
        assert records == [] and inst.is_enabled("start")


def started(inst: ProcessInstance, at: int = 1_500) -> None:
    tx = claim("start", at)
    assert apply_tx(inst, tx, real_now=at + 100)[0] == ACCEPTED


class TestEngineRelativeAndRace:
    def test_relative_guard_measures_delta_from_anchor(self):
        inst = make_instance()
        started(inst, at=1_500)
        early = claim("wait", 3_000)  # delta 1500 < 2000
        decided, records = apply_tx(inst, early, real_now=3_100)
        assert decided == Counter(delta_not_reached=1)
        assert records[0].outcome is Outcome.TN
        late = claim("wait", 3_600)  # delta 2100 >= 2000
        decided, records = apply_tx(inst, late, real_now=3_700)
        assert decided == ACCEPTED
        record = next(r for r in records if r.constraint_type == RELATIVE)
        assert record.outcome is Outcome.TP and record.measured_ms == 2_100

    def test_timer_win_with_earlier_message_is_mismatch(self):
        inst = make_instance()
        started(inst, at=1_500)
        inst.note_message_created("note", 2_000)  # created but included late
        tx = claim("wait", 3_600)
        _, records = apply_tx(inst, tx, real_now=3_700)
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.outcome is Outcome.MISMATCH
        assert gateway.winner == "wait" and gateway.truth_winner == "note"
        assert not inst.is_enabled("note")

    def test_message_win_is_match_and_ends_process(self):
        inst = make_instance()
        started(inst, at=1_500)
        inst.note_message_created("note", 2_000)
        tx = claim("note", 2_000, sender="customer")
        decided, records = apply_tx(inst, tx, real_now=2_100)
        assert decided == ACCEPTED
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.outcome is Outcome.MATCH
        assert inst.done

    def test_rejected_timer_then_message_wins_with_match(self):
        inst = make_instance()
        started(inst, at=1_500)
        early = claim("wait", 3_000)  # delta 1500 < 2000
        assert apply_tx(inst, early, real_now=3_100)[0] == Counter(delta_not_reached=1)
        inst.note_message_created("note", 3_200)
        tx = claim("note", 3_200, sender="customer")
        decided, records = apply_tx(inst, tx, real_now=3_300)
        assert decided == ACCEPTED
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "note" and gateway.truth_winner == "note"
        assert gateway.outcome is Outcome.MATCH

    def test_trigger_tie_goes_to_the_branch_guarded_first(self):
        inst = make_instance()
        started(inst, at=1_500)  # the timer is due at 3500
        # created at the due, but claiming 3000: measured delta 1500 < 2000
        lying = Transaction(id="wait-lie", sender="p", created_at=3_500, op="wait",
                            timestamp=3_000)
        assert apply_tx(inst, lying, real_now=3_600)[0] == Counter(delta_not_reached=1)
        inst.note_message_created("note", 3_500)
        tx = claim("note", 3_500, sender="customer")
        _, records = apply_tx(inst, tx, real_now=3_700)
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
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
            assert apply_tx(inst, early, real_now=3_100)[0] == Counter(delta_not_reached=1)
        tx = claim("wait", 3_600)
        _, records = apply_tx(inst, tx, real_now=3_700)
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "wait" and gateway.truth_winner == "wait"
        assert gateway.outcome is Outcome.MATCH

    def test_refused_message_claim_never_triggers_the_race(self):
        # the message is claimed before the gateway is enabled: the contract
        # refuses it, so it is no trigger once the race is on
        inst = make_instance()
        inst.note_message_created("note", 500)
        early = claim("note", 500, sender="customer")
        assert apply_tx(inst, early, real_now=600)[0] == Counter(element_not_enabled=1)
        started(inst, at=1_500)
        tx = claim("wait", 3_600)
        _, records = apply_tx(inst, tx, real_now=3_700)
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "wait" and gateway.truth_winner == "wait"
        assert gateway.outcome is Outcome.MATCH and gateway.ground_truth_ms == 3_500


class TestEngineCycle:
    def advance_to_cycle(self, inst):
        started(inst, at=1_500)
        tx = claim("wait", 3_600)
        assert apply_tx(inst, tx, real_now=3_700)[0] == ACCEPTED

    def test_iterations_consume_in_order_then_advance(self):
        inst = make_instance()
        self.advance_to_cycle(inst)
        # dues: anchor 3600 + 1s, + 2s
        early = claim("cycle", 4_500)
        assert apply_tx(inst, early, real_now=4_600)[0] == Counter(iteration_not_due=1)
        first = claim("cycle", 4_700)
        decided, records = apply_tx(inst, first, real_now=4_800)
        assert decided == ACCEPTED and records[0].iteration == 0
        assert inst.cycle_next_index("cycle") == 1
        second = claim("cycle", 5_700)
        decided, records = apply_tx(inst, second, real_now=5_800)
        assert decided == ACCEPTED and records[0].iteration == 1
        assert inst.done

    def test_missed_iterations_reported_not_skipped(self):
        inst = make_instance()
        self.advance_to_cycle(inst)
        tardy = claim("cycle", 9_000)
        decided, records = apply_tx(inst, tardy, real_now=9_100)
        assert decided == ACCEPTED
        assert records[0].missed_iterations == (1,)
        assert inst.cycle_next_index("cycle") == 1  # second iteration still pending
        again = claim("cycle", 9_000, tx_id="cycle-9000-again")
        decided, records = apply_tx(inst, again, real_now=9_100)
        assert decided == ACCEPTED and records[0].iteration == 1
        assert records[0].missed_iterations == ()
        assert inst.done

    def test_claim_after_the_last_iteration_is_not_enabled(self):
        inst = make_instance()
        self.advance_to_cycle(inst)
        for at in (4_700, 5_700):
            tx = claim("cycle", at)
            assert apply_tx(inst, tx, real_now=at + 100)[0] == ACCEPTED
        extra = claim("cycle", 6_700)
        decided, records = apply_tx(inst, extra, real_now=6_800)
        assert decided == Counter(element_not_enabled=1)
        assert records == []


class TestRequestResponse:
    def test_guard_parks_and_resolves_at_requesting_block(self):
        inst = make_instance(MeasureKind.REQUEST_RESPONSE_ORACLE)
        tx = claim("start", 1_500)
        assert apply_tx(inst, tx, real_now=1_600, block=4)[0] == PARKED
        (request,) = inst.requests
        decided, records = decide(inst, inst.on_callback, request, 2_000, real_now=2_100)
        assert decided == ACCEPTED
        record = records[0]
        assert record.block_number == 4  # decision attributed to requesting block
        # deadline 1000 <= s_tx 1500 and <= measured 2000: a true positive
        assert record.measured_ms == 2_000 and record.outcome is Outcome.TP

    def test_unresolved_guard_becomes_stuck_at_horizon(self):
        inst = make_instance(MeasureKind.REQUEST_RESPONSE_ORACLE)
        tx = claim("start", 1_500)
        assert apply_tx(inst, tx, real_now=1_600)[0] == PARKED
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
        decided, records = apply_tx(inst, tx, real_now=due + 100)
        assert decided == ACCEPTED
        iterations.append(records[0].iteration)
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
        decided, (record,) = apply_tx(inst, early, real_now=2_900)
        assert decided == Counter(iteration_not_due=1)
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
        decided, (record,) = apply_tx(inst, lying, real_now=3_000)
        assert decided == ACCEPTED and record.outcome is Outcome.FP
        assert record.deadline_ms == 3_000 and record.iteration == 0
        assert record.ground_truth_ms == 2_900 and record.measured_ms == 3_100
        tardy = claim("tick", 4_500)
        decided, (record,) = apply_tx(inst, tardy, real_now=4_600)
        assert decided == ACCEPTED and record.outcome is Outcome.TP
        assert record.deadline_ms == 4_000 and record.iteration == 1
        assert record.missed_iterations == ()
        assert inst.done

    def test_missed_iterations_listed_on_late_acceptance(self):
        inst = self.make()
        tardy = claim("tick", 4_500)
        decided, (record,) = apply_tx(inst, tardy, real_now=4_600)
        assert decided == ACCEPTED and record.outcome is Outcome.TP
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
        decided, records = apply_tx(inst, tx, real_now=3_100)
        assert decided == ACCEPTED
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
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
    return decide(inst, inst.on_callback, request_id, value, real_now=value + 100)


class TestRequestResponseAnchors:
    def setup_pending_anchor(self):
        inst = anchored_race_instance()
        tx = claim("start", 1_500)
        assert apply_tx(inst, tx, real_now=1_600)[0] == PARKED
        (parked,) = inst.requests
        assert callback(inst, parked, 1_700)[0] == ACCEPTED
        send = claim("send", 2_000)
        decided, _ = apply_tx(inst, send, real_now=2_100, block=2)
        assert decided == ACCEPTED  # not parked: its one request is the anchor's
        _, anchor_request = inst.requests
        return inst, anchor_request

    @pytest.mark.parametrize("branch", ["wait", "cycle"])
    def test_guard_on_pending_anchor_rejects_without_record(self, branch):
        inst, _ = self.setup_pending_anchor()
        before = len(inst.records)
        tx = claim(branch, 9_000)
        assert apply_tx(inst, tx, real_now=9_100, block=3)[0] == PARKED
        _, _, parked = inst.requests
        decided, records = callback(inst, parked, 9_500)
        assert decided == Counter(anchor_pending=1)
        assert records == [] and len(inst.records) == before
        assert inst.is_enabled(branch)

    def test_relative_guard_parks_then_records_delta(self):
        inst, anchor_id = self.setup_pending_anchor()
        assert callback(inst, anchor_id, 2_400)[0] == ACCEPTED  # anchor measured at 2400
        tx = claim("wait", 4_300)
        assert apply_tx(inst, tx, real_now=4_400, block=5)[0] == PARKED
        _, _, parked = inst.requests
        decided, records = callback(inst, parked, 4_600)
        assert decided == ACCEPTED
        record = next(r for r in records if r.constraint_type == RELATIVE)
        assert record.element == "wait" and record.tx_id == "wait-4300"
        assert record.measured_ms == 2_200 and record.raw_measured_ms == 4_600
        assert record.ground_truth_ms == 2_300 and record.required_delta_ms == 2_000
        assert record.deadline_ms is None and record.block_number == 5
        assert record.outcome is Outcome.TP and record.accepted is True
        gateway = next(r for r in records if r.constraint_type == DEFERRED_CHOICE)
        assert gateway.winner == "wait" and not inst.is_enabled("cycle")
        assert inst.done

    def test_parked_timer_catch_becomes_stuck_with_its_constraint_type(self):
        inst, _ = self.setup_pending_anchor()
        for branch in ("wait", "cycle"):
            tx = claim(branch, 9_000)
            assert apply_tx(inst, tx, real_now=9_100, block=3)[0] == PARKED
        inst.finalize()
        stuck = [r for r in inst.records if r.outcome is Outcome.STUCK_PENDING]
        assert [(r.element, r.constraint_type) for r in stuck] == [
            ("wait", RELATIVE), ("cycle", CYCLE),
        ]
        assert all(r.outcome is Outcome.STUCK_PENDING for r in stuck)


class TestRunnerTakesEffects:
    """The preset scenarios, each under its measures, run through the
    simulator with the engine's calls and the visibility events watched."""

    def test_each_call_counts_one_decision_and_requests_reach_visibility_once(
        self, monkeypatch
    ):
        counts, made, pushed, seen = [], [], [], []

        def counting(method):
            def call(inst, *args, **kwargs):
                total, n = sum(inst.decisions.values()), len(inst.requests)
                method(inst, *args, **kwargs)
                counts.append(sum(inst.decisions.values()) - total)
                made.extend(inst.requests[n:])
            return call

        push, block_visible = sim._Runner._push, sim._Runner._block_visible

        def pushing(runner, at, kind, handler, *args):
            if kind == sim.K_BLOCK_VISIBLE:
                pushed.append(tuple(args[0]))  # a copy: later appends must not reach it
            push(runner, at, kind, handler, *args)

        def visible(runner, now, request_ids, enabled):
            seen.append(tuple(request_ids))
            block_visible(runner, now, request_ids, enabled)

        monkeypatch.setattr(ProcessInstance, "apply", counting(ProcessInstance.apply))
        monkeypatch.setattr(ProcessInstance, "on_callback", counting(ProcessInstance.on_callback))
        monkeypatch.setattr(sim._Runner, "_push", pushing)
        monkeypatch.setattr(sim._Runner, "_block_visible", visible)
        requested = 0
        for preset in SCENARIO_PRESETS.values():
            config = preset()
            world = sim.SeedWorld(config, 0)
            for measure in config.measures:
                for watched in (counts, made, pushed, seen):
                    watched.clear()
                sim.run(config, 0, measure, world=world)
                assert counts and set(counts) == {1}
                # a block's requests are pushed with its one visibility event
                assert [r for ids in pushed for r in ids] == made
                # which hands each of them over once, as pushed, unless past the horizon
                assert not Counter(seen) - Counter(pushed)
                requested += sum(map(len, seen))
        assert requested  # the request/response runs made requests that were seen


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
