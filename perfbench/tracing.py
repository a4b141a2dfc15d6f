"""In-memory span tracing of the chaintime layers, installed from outside.

The library has no instrumentation of its own, so the traced run wraps the
public functions of each module with ``perf_counter`` spans. A wrapper only
counts calls that go through it, so it is installed wherever a caller looks
the name up: every ``chaintime`` module global bound to the original
function (``sim`` calls its own ``block_schedule``, ``substream`` and
``so_update_times``, ``process`` its own ``due_times``), and the class
attribute for methods.

Spans nest. Each records its name, start, end and the span that caused it;
aggregates (calls, total seconds, self seconds) cover every span, while the
raw span list keeps only the first ``RAW_SPAN_CAP`` of a run so that a
traced run of millions of calls stays small in memory.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

RAW_SPAN_CAP = 20_000

# (span name, owner, attribute). The owner is a module name for functions
# and "module:Class" for methods. Span names follow <layer>.<function>.
SPANS = (
    ("rng.substream", "chaintime.rng", "substream"),
    ("dists.sample", "chaintime.dists:Distribution", "sample"),
    ("dists.sample_one", "chaintime.dists:Distribution", "sample_one"),
    ("timers.due_times", "chaintime.timers", "due_times"),
    ("chain.from_schedule", "chaintime.chain:Chain", "from_schedule"),
    ("chain.export_trace", "chaintime.chain:Chain", "export_trace"),
    ("measures.oracle_write", "chaintime.measures:OracleCell", "write"),
    ("measures.oracle_read", "chaintime.measures:OracleCell", "read_before"),
    ("measures.so_update_times", "chaintime.measures", "so_update_times"),
    ("process.apply", "chaintime.process:ProcessInstance", "apply"),
    ("process.on_callback", "chaintime.process:ProcessInstance", "on_callback"),
    ("process.finalize", "chaintime.process:ProcessInstance", "finalize"),
    ("process.element_due_times", "chaintime.process:ProcessInstance", "element_due_times"),
    ("scenario.validate", "chaintime.scenario:ScenarioConfig", "validate"),
    ("sim.run", "chaintime.sim", "run"),
    ("sim.block_schedule", "chaintime.sim", "block_schedule"),
    ("sim.export_trace", "chaintime.sim:RunTrace", "export_trace"),
    ("experiment.sweep", "chaintime.experiment", "sweep"),
    ("experiment.add_trace", "chaintime.experiment:MetricsReport", "add_trace"),
    ("experiment.write_records", "chaintime.experiment", "write_records"),
    ("experiment.emit_report", "chaintime.experiment", "emit_report"),
)

# Spans the benchmark opens around its own code, so that every traced
# second belongs to some span: the root of each workload item, and the
# per-run callback it hands to experiment.sweep.
BENCH_SPANS = ("bench.item", "bench.per_run")

SPAN_NAMES = tuple(name for name, _, _ in SPANS) + BENCH_SPANS


class Tracer:
    """Records nested spans; ``stats[name]`` is [calls, total_s, self_s]."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if len(self.spans) < RAW_SPAN_CAP:
            self.spans.append((frame[0], parent, name, start, end))

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame, start, perf_counter())

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code."""
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, perf_counter())

    def install(self) -> None:
        """Wrap every entry of SPANS where callers look it up."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("chaintime")]
        for name, owner, attr in SPANS:
            module_name, _, class_name = owner.partition(":")
            if class_name:
                cls = getattr(sys.modules[module_name], class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                self._set(cls, attr, wrapped)
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write the aggregates and the kept raw spans as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "stats": {
                        name: {"calls": c, "s": s, "self_s": self_s}
                        for name, (c, s, self_s) in self.stats.items()
                    },
                    "raw_span_cap": RAW_SPAN_CAP,
                    "spans": [
                        {"id": i, "parent": p, "name": n, "start": a, "end": b}
                        for i, p, n, a, b in self.spans
                    ],
                },
                fh,
            )
