"""Timer grammar, due-time resolution, and round-tripping."""

import pytest
from hypothesis import given, settings, strategies as st

from chaintime import timers
from chaintime.measures import MeasureKind
from chaintime.process import ProcessInstance, ProcessModel, StartTimer, _dues_from
from chaintime.timers import (
    CycleAbsTimer,
    CycleRelTimer,
    DateTimer,
    DurationTimer,
    TimerParseError,
    UnsupportedFeature,
    add_months,
    due_times,
    format_timer,
    parse_timer,
)

MS_PER_DAY = 86_400_000


class TestParseGrammar:
    def test_datetime_with_time(self):
        # [PAPER] Listing-1 cross-check: noon Dec 24th 2020 UTC
        spec = parse_timer("2020-12-24T12:00:00Z")
        assert spec == DateTimer(instant_ms=1_608_811_200_000)

    def test_date_only(self):
        # [DERIVED] 2020-01-01T00:00:00Z = 1577836800 epoch seconds
        assert parse_timer("2020-01-01") == DateTimer(instant_ms=1_577_836_800_000)

    def test_duration_days(self):
        # [PAPER] the seven-day overdue timer
        assert parse_timer("P7D") == DurationTimer(length_ms=7 * MS_PER_DAY)

    def test_duration_mixed_components(self):
        # [DERIVED] 1d + 2h + 3m + 4.5s
        spec = parse_timer("P1DT2H3M4.5S")
        assert spec == DurationTimer(
            length_ms=MS_PER_DAY + 2 * 3_600_000 + 3 * 60_000 + 4_500
        )

    def test_cycle_absolute_unbounded(self):
        # [PAPER] every 1st of the month from 2020
        spec = parse_timer("R/2020-01-01/P1M")
        assert spec == CycleAbsTimer(
            start_ms=1_577_836_800_000, period_months=1, period_ms=0, repetitions=None
        )

    def test_cycle_relative_bounded(self):
        # [PAPER] seven repetitions, 24 hours apart
        spec = parse_timer("R7/PT24H")
        assert spec == CycleRelTimer(period_ms=MS_PER_DAY, repetitions=7)

    def test_millisecond_instant(self):
        spec = parse_timer("2020-12-24T12:00:00.250Z")
        assert spec == DateTimer(instant_ms=1_608_811_200_250)

    @pytest.mark.parametrize(
        "text",
        ["", "P", "R", "nonsense", "2020-13-01", "2020-01-32", "R0/PT1H",
         "Rx/PT1H", "R/2020-01-01/P1M/extra", "PT"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(TimerParseError):
            parse_timer(text)

    def test_months_outside_absolute_cycles_unsupported(self):
        # calendar math is only well-defined against an absolute anchor
        with pytest.raises(UnsupportedFeature):
            parse_timer("P1M")
        with pytest.raises(UnsupportedFeature):
            parse_timer("R3/P2M")

    def test_error_carries_position_and_reason(self):
        with pytest.raises(TimerParseError) as exc_info:
            parse_timer("R5/banana")
        assert exc_info.value.position == 3
        assert "period" in exc_info.value.reason


class TestDueTimes:
    def test_date_ignores_enablement(self):
        spec = DateTimer(instant_ms=1_000)
        assert due_times(spec, 999_999, limit=5) == [1_000]

    def test_duration_from_enablement(self):
        assert due_times(DurationTimer(length_ms=500), 100, limit=5) == [600]

    def test_relative_cycle_first_due_after_one_period(self):
        spec = parse_timer("R7/PT24H")
        dues = due_times(spec, 1_000, limit=10)
        assert dues == [1_000 + k * MS_PER_DAY for k in range(1, 8)]

    def test_relative_cycle_respects_limit(self):
        spec = parse_timer("R/PT1H")
        assert len(due_times(spec, 0, limit=3)) == 3

    def test_absolute_cycle_monthly(self):
        # [DERIVED] first-of-month epochs for Jan-May 2020
        spec = parse_timer("R5/2020-01-01/P1M")
        assert due_times(spec, 0, limit=10) == [
            1_577_836_800_000,
            1_580_515_200_000,
            1_583_020_800_000,
            1_585_699_200_000,
            1_588_291_200_000,
        ]

    def test_absolute_cycle_independent_of_enablement(self):
        spec = parse_timer("R2/2020-01-01/P1M")
        assert due_times(spec, 1_580_000_000_000, limit=5) == due_times(spec, 0, limit=5)

    @pytest.mark.parametrize("months, ms", [(-1, 1), (1, -1), (0, 0), (-1, 0)])
    def test_absolute_cycle_step_cannot_be_negative(self, months, ms):
        # a negative part would let dues move back in time, and the year
        # check in ScenarioConfig.__post_init__ reads the last due alone
        with pytest.raises(ValueError, match="cycle period must be positive"):
            CycleAbsTimer(start_ms=0, period_months=months, period_ms=ms, repetitions=None)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            due_times(DateTimer(instant_ms=0), 0, limit=0)


class TestAddMonths:
    def test_day_clamp_into_leap_february(self):
        # [DERIVED] Jan 31st 2020 + 1 month -> Feb 29th 2020
        assert add_months(1_580_428_800_000, 1) == 1_582_934_400_000

    def test_year_rollover(self):
        # [DERIVED] 2019-01-01 + 12 months -> 2020-01-01
        assert add_months(1_546_300_800_000, 12) == 1_577_836_800_000

    def test_preserves_sub_second(self):
        base = 1_546_300_800_123
        assert add_months(base, 12) % 1_000 == 123


class TestFormat:
    @pytest.mark.parametrize(
        "text",
        ["2020-12-24T12:00:00Z", "P7D", "R/2020-01-01/P1M", "R7/PT24H"],
    )
    def test_table_strings_roundtrip_structurally(self, text):
        spec = parse_timer(text)
        assert parse_timer(format_timer(spec)) == spec

    def test_canonical_duration(self):
        assert format_timer(DurationTimer(length_ms=7 * MS_PER_DAY)) == "P7D"

    def test_canonical_relative_cycle(self):
        assert format_timer(CycleRelTimer(period_ms=MS_PER_DAY, repetitions=7)) == "R7/PT24H"


def timer_specs() -> st.SearchStrategy:
    instants = st.integers(min_value=0, max_value=4_102_444_800_000)
    small_ms = st.integers(min_value=1, max_value=90 * MS_PER_DAY)
    return st.one_of(
        instants.map(lambda i: DateTimer(instant_ms=i)),
        st.integers(min_value=0, max_value=90 * MS_PER_DAY).map(
            lambda d: DurationTimer(length_ms=d)
        ),
        st.builds(
            CycleRelTimer,
            period_ms=small_ms,
            repetitions=st.one_of(st.none(), st.integers(1, 50)),
        ),
        st.tuples(
            instants,
            st.integers(0, 36),
            st.integers(0, 90 * MS_PER_DAY),
            st.one_of(st.none(), st.integers(1, 50)),
        )
        .filter(lambda t: t[1] > 0 or t[2] > 0)
        .map(lambda t: CycleAbsTimer(*t)),
    )


@given(timer_specs())
def test_format_parse_roundtrip(spec):
    assert parse_timer(format_timer(spec)) == spec


@given(
    st.integers(min_value=0, max_value=4_102_444_800_000),
    st.integers(min_value=0, max_value=200),
)
def test_add_months_is_monotone_in_months(instant, months):
    assert add_months(instant, months + 1) > add_months(instant, months)


@settings(max_examples=300)
@given(timer_specs(), st.integers(1, 200), st.data())
def test_a_one_due_timer_keeps_the_first_due_of_its_schedule(spec, limit, data):
    """A start timer keeps one due, whatever its spec, and computes none past
    it; an absolute cycle whose dues all passed its floor is an error."""
    near = st.sampled_from(due_times(spec, 0, limit)).flatmap(
        lambda due: st.integers(max(due - 2, 0), due + 2)
    )
    anchor = data.draw(st.integers(0, 4_102_444_800_000) | near, label="anchor")
    expected = _dues_from(spec, anchor, limit)[:1]
    model = ProcessModel(
        elements={"start": StartTimer(id="start", spec=spec)}, flows={"start": None},
        start="start",
    )

    def build():
        return ProcessInstance(
            model, MeasureKind.PARAMETER, activation_floor_ms=anchor, cycle_limit=limit
        )

    dues = due_times(spec, anchor, limit)
    stepped = next((i for i, due in enumerate(dues) if due >= anchor), len(dues) - 1) + 1
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timers, "add_months", lambda *args: calls.append(args) or add_months(*args))
        if isinstance(spec, CycleAbsTimer) and expected[0] < anchor:
            with pytest.raises(ValueError, match="activation floor"):
                build()
        else:
            assert build().element_due_times("start") == list(expected)
    assert len(calls) == (stepped if isinstance(spec, CycleAbsTimer) else 0)
