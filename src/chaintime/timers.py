"""ISO-8601 timer parsing and due-time resolution.

Supports the subset used by workflow timer events: UTC datetimes, durations
with D/H/M/S components, and repeating intervals anchored absolutely
(``R[n]/<datetime>/<period>``) or relative to enablement (``R[n]/<period>``).
Calendar months are only allowed in absolute cycle periods, where stepping
clamps the day-of-month (Jan 31 + 1 month -> Feb 28/29).
"""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from datetime import datetime, timezone

MS_PER_SECOND = 1000
MS_PER_MINUTE = 60 * MS_PER_SECOND
MS_PER_HOUR = 60 * MS_PER_MINUTE
MS_PER_DAY = 24 * MS_PER_HOUR


class TimerParseError(ValueError):
    """Raised when a timer string cannot be parsed."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"cannot parse {text!r} at position {position}: {reason}")


class UnsupportedFeature(TimerParseError):
    """Raised for grammar that is recognized but deliberately not supported."""


@dataclass(frozen=True)
class DateTimer:
    """A fixed absolute instant (epoch milliseconds, UTC)."""

    instant_ms: int


@dataclass(frozen=True)
class DurationTimer:
    """A delay relative to enablement, in milliseconds."""

    length_ms: int


@dataclass(frozen=True)
class CycleAbsTimer:
    """A repeating schedule anchored at an absolute start instant.

    The period may have a calendar-month part and a fixed-millisecond part;
    occurrence k is ``start + k months (day-clamped) + k * period_ms``.
    """

    start_ms: int
    period_months: int
    period_ms: int
    repetitions: int | None

    def __post_init__(self):
        months, ms = self.period_months, self.period_ms
        if min(months, ms) < 0 or not (months or ms):  # its dues only move forward
            raise ValueError("cycle period must be positive")
        if self.repetitions is not None and self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class CycleRelTimer:
    """A repeating schedule relative to enablement."""

    period_ms: int
    repetitions: int | None

    def __post_init__(self):
        if self.period_ms <= 0:
            raise ValueError("cycle period must be positive")
        if self.repetitions is not None and self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


TimerSpec = DateTimer | DurationTimer | CycleAbsTimer | CycleRelTimer


_DATETIME_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})"
    r"(?:T(\d{2}):(\d{2}):(\d{2})(?:\.(\d{1,3}))?Z)?$"
)

_PERIOD_RE = re.compile(
    r"^P(?:(\d+)Y)?(?:(\d+)M)?(?:(\d+)D)?"
    r"(?:T(?:(\d+)H)?(?:(\d+)M)?(?:(\d+)(?:\.(\d{1,3}))?S)?)?$"
)


def _parse_datetime(text: str, offset: int = 0) -> int:
    m = _DATETIME_RE.match(text)
    if m is None:
        raise TimerParseError(text, offset, "not a YYYY-MM-DD[Thh:mm:ssZ] datetime")
    year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3))
    hour = int(m.group(4) or 0)
    minute = int(m.group(5) or 0)
    second = int(m.group(6) or 0)
    millis = int((m.group(7) or "0").ljust(3, "0"))
    try:
        dt = datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
    except ValueError as exc:
        raise TimerParseError(text, offset, str(exc)) from exc
    return int(dt.timestamp()) * MS_PER_SECOND + millis


def _parse_period(text: str, offset: int, allow_months: bool) -> tuple[int, int]:
    """Parse a P.../PT... period into (calendar months, fixed milliseconds)."""
    m = _PERIOD_RE.match(text)
    if m is None or all(g is None for g in m.groups()):
        raise TimerParseError(text, offset, "not a P.../PT... period")
    years = int(m.group(1) or 0)
    months = int(m.group(2) or 0)
    total_months = years * 12 + months
    if total_months and not allow_months:
        raise UnsupportedFeature(
            text, offset, "calendar months/years only supported in absolute cycles"
        )
    ms = (
        int(m.group(3) or 0) * MS_PER_DAY
        + int(m.group(4) or 0) * MS_PER_HOUR
        + int(m.group(5) or 0) * MS_PER_MINUTE
        + int(m.group(6) or 0) * MS_PER_SECOND
        + int((m.group(7) or "0").ljust(3, "0"))
    )
    return total_months, ms


def parse_timer(text: str) -> TimerSpec:
    """Parse a timer string into its structured form.

    Recognizes UTC datetimes, D/H/M/S durations, and ``R[n]/...`` cycles.
    Raises TimerParseError (with position and reason) on malformed input.
    """
    if not text:
        raise TimerParseError(text, 0, "empty string")
    if text[0] == "R":
        parts = text.split("/")
        head = parts[0][1:]
        if head and not head.isdigit():
            raise TimerParseError(text, 1, "repetition count must be an integer")
        repetitions = int(head) if head else None
        if repetitions is not None and repetitions < 1:
            raise TimerParseError(text, 1, "repetition count must be >= 1")
        if len(parts) == 2:
            _, period_ms = _parse_period(parts[1], len(parts[0]) + 1, allow_months=False)
            if period_ms <= 0:
                raise TimerParseError(text, len(parts[0]) + 1, "cycle period must be positive")
            return CycleRelTimer(period_ms=period_ms, repetitions=repetitions)
        if len(parts) == 3:
            start_ms = _parse_datetime(parts[1], len(parts[0]) + 1)
            months, period_ms = _parse_period(
                parts[2], len(parts[0]) + len(parts[1]) + 2, allow_months=True
            )
            if months <= 0 and period_ms <= 0:
                raise TimerParseError(text, 0, "cycle period must be positive")
            return CycleAbsTimer(
                start_ms=start_ms,
                period_months=months,
                period_ms=period_ms,
                repetitions=repetitions,
            )
        raise TimerParseError(text, 0, "cycle needs R[n]/period or R[n]/start/period")
    if text[0] == "P":
        _, ms = _parse_period(text, 0, allow_months=False)
        return DurationTimer(length_ms=ms)
    return DateTimer(instant_ms=_parse_datetime(text))


def add_months(instant_ms: int, months: int) -> int:
    """Shift an instant by calendar months in UTC, clamping the day-of-month."""
    dt = datetime.fromtimestamp(instant_ms // MS_PER_SECOND, tz=timezone.utc)
    sub_second = instant_ms % MS_PER_SECOND
    month_index = dt.month - 1 + months
    year = dt.year + month_index // 12
    if not 1 <= year <= 9999:
        raise ValueError(f"year {year} is out of range")
    month = month_index % 12 + 1
    day = min(dt.day, calendar.monthrange(year, month)[1])
    shifted = dt.replace(year=year, month=month, day=day)
    return int(shifted.timestamp()) * MS_PER_SECOND + sub_second


def due_times(spec: TimerSpec, enablement: int, limit: int) -> list[int]:
    """Resolve a timer spec into its concrete due instants.

    Relative cycles fire first at ``enablement + period``; absolute cycles
    step from their start instant independent of enablement. ``limit`` bounds
    the output for unbounded cycles.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if isinstance(spec, DateTimer):
        return [spec.instant_ms]
    if isinstance(spec, DurationTimer):
        return [enablement + spec.length_ms]
    if isinstance(spec, CycleRelTimer):
        count = limit if spec.repetitions is None else min(spec.repetitions, limit)
        return [enablement + k * spec.period_ms for k in range(1, count + 1)]
    if isinstance(spec, CycleAbsTimer):
        count = limit if spec.repetitions is None else min(spec.repetitions, limit)
        out = []
        for k in range(count):
            due = add_months(spec.start_ms, k * spec.period_months)
            out.append(due + k * spec.period_ms)
        return out
    raise TypeError(f"not a TimerSpec: {spec!r}")


def _format_instant(instant_ms: int) -> str:
    dt = datetime.fromtimestamp(instant_ms // MS_PER_SECOND, tz=timezone.utc)
    base = dt.strftime("%Y-%m-%dT%H:%M:%S")
    millis = instant_ms % MS_PER_SECOND
    if millis:
        return f"{base}.{millis:03d}Z"
    return f"{base}Z"


def _format_period(months: int, ms: int, prefer_hours: bool) -> str:
    """An ISO period: years and months, then days unless hours are
    preferred, then hours, minutes and seconds; an empty period is PT0S."""
    years, months = divmod(months, 12)
    days, rest = (0, ms) if prefer_hours else divmod(ms, MS_PER_DAY)
    hours, rest = divmod(rest, MS_PER_HOUR)
    minutes, rest = divmod(rest, MS_PER_MINUTE)
    seconds, millis = divmod(rest, MS_PER_SECOND)
    date = "".join(f"{n}{unit}" for n, unit in ((years, "Y"), (months, "M"), (days, "D")) if n)
    time = "".join(f"{n}{unit}" for n, unit in ((hours, "H"), (minutes, "M")) if n)
    if millis:
        time += f"{seconds}.{millis:03d}S"
    elif seconds:
        time += f"{seconds}S"
    if not (date or time):
        return "PT0S"
    return f"P{date}T{time}" if time else f"P{date}"


def format_timer(spec: TimerSpec) -> str:
    """Format a spec so that parse_timer round-trips it structurally; a
    fixed-length cycle period counts in hours ("every 24 hours")."""
    if isinstance(spec, DateTimer):
        return _format_instant(spec.instant_ms)
    if isinstance(spec, DurationTimer):
        return _format_period(0, spec.length_ms, prefer_hours=False)
    if not isinstance(spec, (CycleRelTimer, CycleAbsTimer)):
        raise TypeError(f"not a TimerSpec: {spec!r}")
    head = "R" if spec.repetitions is None else f"R{spec.repetitions}"
    if isinstance(spec, CycleRelTimer):
        return f"{head}/{_format_period(0, spec.period_ms, prefer_hours=True)}"
    period = _format_period(spec.period_months, spec.period_ms, spec.period_months == 0)
    return f"{head}/{_format_instant(spec.start_ms)}/{period}"
