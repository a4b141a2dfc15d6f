"""Scenario configuration: schema, validation, and bundled presets.

Scenario files are YAML trees with a fixed schema; unknown keys are
rejected with the path of the offending field. A file may start from a
named preset (``preset: invoice-demo``) and override individual keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import yaml

from .dists import Distribution, constant, normal, uniform
from .measures import MeasureKind, PullOracleConfig, PushOracleConfig
from .process import (
    EventGateway,
    MessageCatch,
    ProcessModel,
    StartTimer,
    Task,
    TimerCatch,
)
from .timers import format_timer, parse_timer

MS_PER_DAY = 86_400_000


class SchemaError(ValueError):
    """Scenario validation failure, carrying the offending field path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


# ---------------------------------------------------------------------------
# Config dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkConfig:
    block_time: Distribution
    mining_time: Distribution
    inclusion_delay: Distribution
    genesis_timestamp_ms: int = 0
    miner_ordering: str = "fifo_by_arrival"
    assumed_mean_block_time_ms: int = 15_190

    def __post_init__(self):
        if self.genesis_timestamp_ms < 0:
            raise SchemaError("network.genesis_timestamp_ms", "must be non-negative")
        if self.miner_ordering not in (
            "fifo_by_arrival",
            "priority_then_arrival",
            "adversarial_reorder",
        ):
            raise SchemaError("network.miner_ordering", f"unknown policy {self.miner_ordering!r}")
        if self.assumed_mean_block_time_ms <= 0:
            raise SchemaError("network.assumed_mean_block_time_ms", "must be positive")


@dataclass(frozen=True)
class FaultConfig:
    miner_drift_enabled: bool = False
    miner_drift_min_ms: int = 0
    miner_drift_max_ms: int = 15_000
    parameter_lies: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.miner_drift_min_ms > self.miner_drift_max_ms:
            raise SchemaError("faults.miner_drift_min_ms", "min must not exceed max")


@dataclass(frozen=True)
class ScriptEntry:
    """One participant behavior: send at a fixed time, on enablement, or
    around each ground-truth due time with jitter and retries."""

    element: str
    at_ms: int | None = None
    on_enabled_delay_ms: int | None = None
    on_due: bool = False
    jitter: Distribution | None = None
    jitter_offset_ms: int = 0
    retry_ms: int = 60_000
    max_attempts: int = 120
    priority: int = 0

    def __post_init__(self):
        modes = sum(
            (self.at_ms is not None, self.on_enabled_delay_ms is not None, self.on_due)
        )
        if modes != 1:
            raise SchemaError(
                f"participants.script[{self.element}]",
                "exactly one of at_ms / on_enabled_delay_ms / on_due required",
            )
        if self.retry_ms <= 0 or self.max_attempts < 1:
            raise SchemaError(
                f"participants.script[{self.element}]",
                "retry_ms must be positive and max_attempts >= 1",
            )


@dataclass(frozen=True)
class Participant:
    name: str
    script: tuple[ScriptEntry, ...] = ()
    lie_ms: int = 0
    inclusion_delay: Distribution | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    network: NetworkConfig
    horizon_ms: int
    faults: FaultConfig = FaultConfig()
    push_oracles: tuple[PushOracleConfig, ...] = ()
    pull_oracles: tuple[PullOracleConfig, ...] = ()
    process: ProcessModel | None = None
    activation_floor_ms: int = 0
    measures: tuple[MeasureKind, ...] = (MeasureKind.PARAMETER,)
    participants: tuple[Participant, ...] = ()
    cycle_limit: int = 64
    simulate_unused_oracles: bool = False

    def __post_init__(self):
        if self.horizon_ms <= self.network.genesis_timestamp_ms:
            raise SchemaError("horizon_ms", "must lie after the genesis timestamp")
        if not self.measures:
            raise SchemaError("measures", "at least one measure kind required")

    def validate(self) -> None:
        if self.process is not None:
            self.process.validate()
            for p, participant in enumerate(self.participants):
                for s, entry in enumerate(participant.script):
                    if entry.element not in self.process.elements:
                        raise SchemaError(
                            f"participants[{p}].script[{s}].element",
                            f"unknown element {entry.element!r}",
                        )
        needs_so = MeasureKind.STORAGE_ORACLE in self.measures
        if needs_so and not self.push_oracles:
            raise SchemaError("oracles.push", "storage_oracle measure needs a push provider")
        needs_ro = MeasureKind.REQUEST_RESPONSE_ORACLE in self.measures
        if needs_ro and not self.pull_oracles:
            raise SchemaError(
                "oracles.pull", "request_response_oracle measure needs a pull provider"
            )


# ---------------------------------------------------------------------------
# Dict <-> config
# ---------------------------------------------------------------------------

_MEASURE_NAMES = [m.value for m in MeasureKind]


def _require_keys(tree: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = set(tree) - allowed
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _get_int(tree, key, path, default=None, minimum=None):
    value = tree.get(key, default)
    if value is None:
        raise SchemaError(f"{path}.{key}", "required")
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", f"expected integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum}")
    return value


def _build_distribution(tree: Any, path: str) -> Distribution:
    if not isinstance(tree, Mapping):
        raise SchemaError(path, "expected a mapping with a 'kind' key")
    kind = tree.get("kind")
    try:
        if kind == "constant":
            _require_keys(tree, {"kind", "value_ms"}, path)
            return constant(_get_int(tree, "value_ms", path, minimum=0))
        if kind == "uniform":
            _require_keys(tree, {"kind", "min_ms", "max_ms"}, path)
            return uniform(
                _get_int(tree, "min_ms", path, minimum=0), _get_int(tree, "max_ms", path)
            )
        if kind == "normal":
            _require_keys(tree, {"kind", "mean_ms", "stddev_ms", "min_ms", "max_ms"}, path)
            return normal(
                _get_int(tree, "mean_ms", path),
                _get_int(tree, "stddev_ms", path, minimum=0),
                _get_int(tree, "min_ms", path, minimum=1),
                _get_int(tree, "max_ms", path),
            )
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(path, str(exc)) from exc
    raise SchemaError(f"{path}.kind", f"unknown distribution kind {kind!r}")


def _dump_distribution(dist: Distribution) -> dict:
    if dist.kind == "constant":
        return {"kind": "constant", "value_ms": dist.value_ms}
    if dist.kind == "uniform":
        return {"kind": "uniform", "min_ms": dist.min_ms, "max_ms": dist.max_ms}
    return {
        "kind": "normal",
        "mean_ms": dist.mean_ms,
        "stddev_ms": dist.stddev_ms,
        "min_ms": dist.min_ms,
        "max_ms": dist.max_ms,
    }


def _build_outages(tree, path) -> tuple[tuple[int, int], ...]:
    if tree is None:
        return ()
    if not isinstance(tree, list):
        raise SchemaError(path, "expected a list of [start_ms, end_ms] pairs")
    out = []
    for i, pair in enumerate(tree):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}[{i}]", "expected [start_ms, end_ms]")
        start, end = pair
        if not isinstance(start, int) or not isinstance(end, int) or start >= end:
            raise SchemaError(f"{path}[{i}]", "need integers with start < end")
        out.append((start, end))
    return tuple(out)


def _build_element(tree, path):
    _require_keys(
        tree, {"id", "type", "spec", "name", "performer", "message", "branches"}, path
    )
    el_id = tree.get("id")
    el_type = tree.get("type")
    if not isinstance(el_id, str) or not el_id:
        raise SchemaError(f"{path}.id", "required string")
    if el_type == "start_timer":
        return StartTimer(id=el_id, spec=parse_timer(str(tree.get("spec", ""))))
    if el_type == "task":
        return Task(
            id=el_id, name=str(tree.get("name", el_id)), performer=str(tree.get("performer", ""))
        )
    if el_type == "timer_catch":
        return TimerCatch(id=el_id, spec=parse_timer(str(tree.get("spec", ""))))
    if el_type == "message_catch":
        return MessageCatch(id=el_id, message=str(tree.get("message", el_id)))
    if el_type == "event_gateway":
        branches = tree.get("branches")
        if not isinstance(branches, list) or not all(isinstance(b, str) for b in branches):
            raise SchemaError(f"{path}.branches", "expected a list of element ids")
        return EventGateway(id=el_id, branches=tuple(branches))
    raise SchemaError(f"{path}.type", f"unknown element type {el_type!r}")


def _build_process(tree, path) -> ProcessModel:
    if isinstance(tree, str):
        if tree not in PROCESS_PRESETS:
            raise SchemaError(
                path, f"unknown process preset {tree!r}; known: {sorted(PROCESS_PRESETS)}"
            )
        return PROCESS_PRESETS[tree]()
    if not isinstance(tree, Mapping):
        raise SchemaError(path, "expected preset name or inline model")
    _require_keys(tree, {"elements", "flows", "start"}, path)
    elements = {}
    for i, el_tree in enumerate(tree.get("elements") or []):
        element = _build_element(el_tree, f"{path}.elements[{i}]")
        elements[element.id] = element
    flows_tree = tree.get("flows") or {}
    flows = {str(k): (str(v) if v is not None else None) for k, v in flows_tree.items()}
    start = tree.get("start")
    if not isinstance(start, str):
        raise SchemaError(f"{path}.start", "required string")
    model = ProcessModel(elements=elements, flows=flows, start=start)
    try:
        model.validate()
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    return model


def _dump_element(element) -> dict:
    if isinstance(element, StartTimer):
        return {"id": element.id, "type": "start_timer", "spec": format_timer(element.spec)}
    if isinstance(element, Task):
        return {
            "id": element.id, "type": "task",
            "name": element.name, "performer": element.performer,
        }
    if isinstance(element, TimerCatch):
        return {"id": element.id, "type": "timer_catch", "spec": format_timer(element.spec)}
    if isinstance(element, MessageCatch):
        return {"id": element.id, "type": "message_catch", "message": element.message}
    return {"id": element.id, "type": "event_gateway", "branches": list(element.branches)}


def _build_script_entry(tree, path) -> ScriptEntry:
    _require_keys(
        tree,
        {"element", "at_ms", "on_enabled_delay_ms", "on_due", "jitter", "jitter_offset_ms",
         "retry_ms", "max_attempts", "priority"},
        path,
    )
    element = tree.get("element")
    if not isinstance(element, str) or not element:
        raise SchemaError(f"{path}.element", "required string")
    jitter = None
    if tree.get("jitter") is not None:
        jitter = _build_distribution(tree["jitter"], f"{path}.jitter")
    try:
        return ScriptEntry(
            element=element,
            at_ms=tree.get("at_ms"),
            on_enabled_delay_ms=tree.get("on_enabled_delay_ms"),
            on_due=bool(tree.get("on_due", False)),
            jitter=jitter,
            jitter_offset_ms=tree.get("jitter_offset_ms", 0),
            retry_ms=tree.get("retry_ms", 60_000),
            max_attempts=tree.get("max_attempts", 120),
            priority=tree.get("priority", 0),
        )
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def build_config(tree: Mapping[str, Any]) -> ScenarioConfig:
    """Construct and validate a ScenarioConfig from a plain dict tree."""
    if not isinstance(tree, Mapping):
        raise SchemaError("<root>", "scenario must be a mapping")
    _require_keys(
        tree,
        {"name", "preset", "network", "faults", "oracles", "process",
         "activation_floor_ms", "measures", "participants", "horizon_ms",
         "cycle_limit", "simulate_unused_oracles"},
        "<root>",
    )

    net_tree = tree.get("network") or {}
    _require_keys(
        net_tree,
        {"block_time", "mining_time", "inclusion_delay", "genesis_timestamp_ms",
         "miner_ordering", "assumed_mean_block_time_ms"},
        "network",
    )
    network = NetworkConfig(
        block_time=_build_distribution(
            net_tree.get("block_time", _dump_distribution(DEFAULT_BLOCK_TIME)),
            "network.block_time",
        ),
        mining_time=_build_distribution(
            net_tree.get("mining_time", _dump_distribution(DEFAULT_MINING_TIME)),
            "network.mining_time",
        ),
        inclusion_delay=_build_distribution(
            net_tree.get("inclusion_delay", _dump_distribution(DEFAULT_INCLUSION_DELAY)),
            "network.inclusion_delay",
        ),
        genesis_timestamp_ms=_get_int(net_tree, "genesis_timestamp_ms", "network", default=0),
        miner_ordering=str(net_tree.get("miner_ordering", "fifo_by_arrival")),
        assumed_mean_block_time_ms=_get_int(
            net_tree, "assumed_mean_block_time_ms", "network", default=15_190
        ),
    )

    faults_tree = tree.get("faults") or {}
    _require_keys(
        faults_tree,
        {"miner_drift", "parameter_lies"},
        "faults",
    )
    drift_tree = faults_tree.get("miner_drift") or {}
    _require_keys(drift_tree, {"enabled", "min_ms", "max_ms"}, "faults.miner_drift")
    lies_tree = faults_tree.get("parameter_lies") or {}
    if not isinstance(lies_tree, Mapping) or not all(
        isinstance(v, int) for v in lies_tree.values()
    ):
        raise SchemaError("faults.parameter_lies", "expected mapping sender -> offset_ms")
    faults = FaultConfig(
        miner_drift_enabled=bool(drift_tree.get("enabled", False)),
        miner_drift_min_ms=drift_tree.get("min_ms", 0),
        miner_drift_max_ms=drift_tree.get("max_ms", 15_000),
        parameter_lies=dict(lies_tree),
    )

    oracle_tree = tree.get("oracles") or {}
    _require_keys(oracle_tree, {"push", "pull"}, "oracles")
    push_oracles = []
    for i, p_tree in enumerate(oracle_tree.get("push") or []):
        path = f"oracles.push[{i}]"
        _require_keys(
            p_tree, {"provider", "cadence_ms", "staleness_ms", "active_from_ms", "outages"}, path
        )
        try:
            push_oracles.append(
                PushOracleConfig(
                    provider=str(p_tree.get("provider", f"push{i}")),
                    cadence_ms=_get_int(p_tree, "cadence_ms", path, default=60_000),
                    staleness_ms=_get_int(p_tree, "staleness_ms", path, default=0),
                    active_from_ms=_get_int(p_tree, "active_from_ms", path, default=0),
                    outages=_build_outages(p_tree.get("outages"), f"{path}.outages"),
                )
            )
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"{path}.cadence_ms", str(exc)) from exc
    pull_oracles = []
    for i, p_tree in enumerate(oracle_tree.get("pull") or []):
        path = f"oracles.pull[{i}]"
        _require_keys(p_tree, {"provider", "latency_ms", "outages"}, path)
        try:
            pull_oracles.append(
                PullOracleConfig(
                    provider=str(p_tree.get("provider", f"pull{i}")),
                    latency_ms=_get_int(p_tree, "latency_ms", path, default=30_000),
                    outages=_build_outages(p_tree.get("outages"), f"{path}.outages"),
                )
            )
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"{path}.latency_ms", str(exc)) from exc

    process = None
    if tree.get("process") is not None:
        process = _build_process(tree["process"], "process")

    measures = []
    for i, name in enumerate(tree.get("measures") or ["parameter"]):
        if name not in _MEASURE_NAMES:
            raise SchemaError(
                f"measures[{i}]", f"unknown measure {name!r}; valid kinds: {_MEASURE_NAMES}"
            )
        measures.append(MeasureKind(name))

    participants = []
    for i, p_tree in enumerate(tree.get("participants") or []):
        path = f"participants[{i}]"
        _require_keys(p_tree, {"name", "script", "lie_ms", "inclusion_delay"}, path)
        name = p_tree.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{path}.name", "required string")
        script = tuple(
            _build_script_entry(s_tree, f"{path}.script[{j}]")
            for j, s_tree in enumerate(p_tree.get("script") or [])
        )
        override = None
        if p_tree.get("inclusion_delay") is not None:
            override = _build_distribution(p_tree["inclusion_delay"], f"{path}.inclusion_delay")
        participants.append(
            Participant(
                name=name,
                script=script,
                lie_ms=p_tree.get("lie_ms", 0),
                inclusion_delay=override,
            )
        )

    try:
        config = ScenarioConfig(
            name=str(tree.get("name", "scenario")),
            network=network,
            faults=faults,
            push_oracles=tuple(push_oracles),
            pull_oracles=tuple(pull_oracles),
            process=process,
            activation_floor_ms=_get_int(
                tree, "activation_floor_ms", "<root>",
                default=network.genesis_timestamp_ms, minimum=0,
            ),
            measures=tuple(measures),
            participants=tuple(participants),
            horizon_ms=_get_int(tree, "horizon_ms", "<root>", minimum=1),
            cycle_limit=_get_int(tree, "cycle_limit", "<root>", default=64, minimum=1),
            simulate_unused_oracles=bool(tree.get("simulate_unused_oracles", False)),
        )
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError("<root>", str(exc)) from exc
    config.validate()
    return config


def config_to_dict(config: ScenarioConfig) -> dict:
    """Effective configuration as a plain tree (the print-config output)."""
    tree: dict[str, Any] = {
        "name": config.name,
        "network": {
            "block_time": _dump_distribution(config.network.block_time),
            "mining_time": _dump_distribution(config.network.mining_time),
            "inclusion_delay": _dump_distribution(config.network.inclusion_delay),
            "genesis_timestamp_ms": config.network.genesis_timestamp_ms,
            "miner_ordering": config.network.miner_ordering,
            "assumed_mean_block_time_ms": config.network.assumed_mean_block_time_ms,
        },
        "faults": {
            "miner_drift": {
                "enabled": config.faults.miner_drift_enabled,
                "min_ms": config.faults.miner_drift_min_ms,
                "max_ms": config.faults.miner_drift_max_ms,
            },
            "parameter_lies": dict(config.faults.parameter_lies),
        },
        "oracles": {
            "push": [
                {
                    "provider": p.provider,
                    "cadence_ms": p.cadence_ms,
                    "staleness_ms": p.staleness_ms,
                    "active_from_ms": p.active_from_ms,
                    "outages": [list(o) for o in p.outages],
                }
                for p in config.push_oracles
            ],
            "pull": [
                {
                    "provider": p.provider,
                    "latency_ms": p.latency_ms,
                    "outages": [list(o) for o in p.outages],
                }
                for p in config.pull_oracles
            ],
        },
        "process": None,
        "activation_floor_ms": config.activation_floor_ms,
        "measures": [m.value for m in config.measures],
        "participants": [
            {
                "name": p.name,
                "lie_ms": p.lie_ms,
                "inclusion_delay": (
                    _dump_distribution(p.inclusion_delay) if p.inclusion_delay else None
                ),
                "script": [
                    {
                        "element": s.element,
                        "at_ms": s.at_ms,
                        "on_enabled_delay_ms": s.on_enabled_delay_ms,
                        "on_due": s.on_due,
                        "jitter": _dump_distribution(s.jitter) if s.jitter else None,
                        "jitter_offset_ms": s.jitter_offset_ms,
                        "retry_ms": s.retry_ms,
                        "max_attempts": s.max_attempts,
                        "priority": s.priority,
                    }
                    for s in p.script
                ],
            }
            for p in config.participants
        ],
        "horizon_ms": config.horizon_ms,
        "cycle_limit": config.cycle_limit,
        "simulate_unused_oracles": config.simulate_unused_oracles,
    }
    if config.process is not None:
        tree["process"] = {
            "elements": [_dump_element(e) for e in config.process.elements.values()],
            "flows": dict(config.process.flows),
            "start": config.process.start,
        }
    return tree


def load_scenario(path: str) -> ScenarioConfig:
    """Load, merge (preset), and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = yaml.safe_load(fh)
    if tree is None:
        raise SchemaError("<root>", "empty scenario file")
    if not isinstance(tree, Mapping):
        raise SchemaError("<root>", "scenario must be a mapping")
    preset_name = tree.get("preset")
    if preset_name is not None:
        if preset_name not in SCENARIO_PRESETS:
            raise SchemaError(
                "preset", f"unknown preset {preset_name!r}; known: {sorted(SCENARIO_PRESETS)}"
            )
        base = config_to_dict(SCENARIO_PRESETS[preset_name]())
        merged = _deep_merge(base, {k: v for k, v in tree.items() if k != "preset"})
        return build_config(merged)
    return build_config(tree)


def _deep_merge(base: dict, override: Mapping) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

DEFAULT_BLOCK_TIME = normal(15_190, 2_710, 4_460, 30_310)
DEFAULT_MINING_TIME = uniform(500, 2_500)
DEFAULT_INCLUSION_DELAY = uniform(500, 6_000)

GENESIS_2019 = 1_546_300_800_000  # 2019-01-01T00:00:00Z
INVOICE_START_DUE = 1_577_836_800_000  # 2020-01-01T00:00:00Z


def invoice_demo_model() -> ProcessModel:
    """The invoicing choreography: monthly start, invoice, a race between a
    seven-day fines timer and customer messages, and a daily patience cycle
    after a complaint."""
    elements = {
        "start_timer": StartTimer(id="start_timer", spec=parse_timer("R/2020-01-01/P1M")),
        "send_invoice": Task(id="send_invoice", name="Send invoice", performer="mno"),
        "invoice_gateway": EventGateway(
            id="invoice_gateway",
            branches=("overdue_timer", "payment_received", "complaint_received"),
        ),
        "overdue_timer": TimerCatch(id="overdue_timer", spec=parse_timer("P7D")),
        "payment_received": MessageCatch(id="payment_received", message="payment received"),
        "complaint_received": MessageCatch(
            id="complaint_received", message="complaint received"
        ),
        "add_fines": Task(id="add_fines", name="Add overdue fines", performer="mno"),
        "adjust_invoice": Task(id="adjust_invoice", name="Adjust invoice", performer="mno"),
        "patience_cycle": TimerCatch(id="patience_cycle", spec=parse_timer("R7/PT24H")),
    }
    flows = {
        "start_timer": "send_invoice",
        "send_invoice": "invoice_gateway",
        "overdue_timer": "add_fines",
        "add_fines": "invoice_gateway",
        "payment_received": None,
        "complaint_received": "adjust_invoice",
        "adjust_invoice": "patience_cycle",
        "patience_cycle": None,
    }
    return ProcessModel(elements=elements, flows=flows, start="start_timer")


def invoice_demo_scenario() -> ScenarioConfig:
    """Default end-to-end scenario: one year of chain history before the
    process window so block-number extrapolation has realistic drift."""
    claim_jitter = uniform(0, 70_000)
    timer_entry = lambda element: ScriptEntry(  # noqa: E731
        element=element, on_due=True, jitter=claim_jitter, jitter_offset_ms=-10_000,
        retry_ms=60_000, max_attempts=300,
    )
    mno = Participant(
        name="mno",
        script=(
            timer_entry("start_timer"),
            ScriptEntry(element="send_invoice", on_enabled_delay_ms=60_000),
            timer_entry("overdue_timer"),
            ScriptEntry(element="add_fines", on_enabled_delay_ms=60_000),
            ScriptEntry(element="adjust_invoice", on_enabled_delay_ms=60_000),
            timer_entry("patience_cycle"),
        ),
    )
    customer = Participant(
        name="customer",
        script=(
            ScriptEntry(
                element="complaint_received", at_ms=INVOICE_START_DUE + 8 * MS_PER_DAY
            ),
        ),
    )
    return ScenarioConfig(
        name="invoice-demo",
        network=NetworkConfig(
            block_time=DEFAULT_BLOCK_TIME,
            mining_time=DEFAULT_MINING_TIME,
            inclusion_delay=DEFAULT_INCLUSION_DELAY,
            genesis_timestamp_ms=GENESIS_2019,
            assumed_mean_block_time_ms=15_190,
        ),
        push_oracles=(
            PushOracleConfig(
                provider="timefeed",
                cadence_ms=60_000,
                active_from_ms=INVOICE_START_DUE - 3_600_000,
            ),
        ),
        pull_oracles=(PullOracleConfig(provider="timeserver", latency_ms=30_000),),
        process=invoice_demo_model(),
        activation_floor_ms=GENESIS_2019,
        measures=tuple(MeasureKind),
        participants=(mno, customer),
        horizon_ms=INVOICE_START_DUE + 18 * MS_PER_DAY,
    )


def _deferred_race_model() -> ProcessModel:
    elements = {
        "start_timer": StartTimer(id="start_timer", spec=parse_timer("1970-01-01T00:00:10Z")),
        "race_gateway": EventGateway(id="race_gateway", branches=("late_timer", "notice")),
        "late_timer": TimerCatch(id="late_timer", spec=parse_timer("1970-01-01T00:01:40Z")),
        "notice": MessageCatch(id="notice", message="notice"),
    }
    flows = {
        "start_timer": "race_gateway",
        "late_timer": None,
        "notice": None,
    }
    return ProcessModel(elements=elements, flows=flows, start="start_timer")


def deferred_overtake_scenario() -> ScenarioConfig:
    """Constructed race: the customer's message is created just before the
    timer's due instant but its inclusion is slow, so a prompt timer claim
    overtakes it in the chain order."""
    return ScenarioConfig(
        name="deferred-overtake",
        network=NetworkConfig(
            block_time=constant(10_000),
            mining_time=constant(1_000),
            inclusion_delay=constant(2_000),
            genesis_timestamp_ms=0,
            assumed_mean_block_time_ms=10_000,
        ),
        process=_deferred_race_model(),
        measures=(MeasureKind.BLOCK_TIMESTAMP,),
        participants=(
            Participant(
                name="mno",
                script=(
                    ScriptEntry(element="start_timer", at_ms=15_000),
                    ScriptEntry(element="late_timer", at_ms=101_000),
                ),
            ),
            Participant(
                name="customer",
                script=(ScriptEntry(element="notice", at_ms=99_000),),
                inclusion_delay=constant(30_000),
            ),
        ),
        horizon_ms=200_000,
    )


def deferred_fifo_scenario() -> ScenarioConfig:
    """Zero-delay FIFO variant of the race: arrival order is preserved."""
    base = deferred_overtake_scenario()
    return ScenarioConfig(
        name="deferred-fifo",
        network=NetworkConfig(
            block_time=constant(10_000),
            mining_time=constant(0),
            inclusion_delay=constant(0),
            genesis_timestamp_ms=0,
            assumed_mean_block_time_ms=10_000,
        ),
        process=base.process,
        measures=base.measures,
        participants=(
            Participant(
                name="mno",
                script=(
                    ScriptEntry(element="start_timer", at_ms=15_000),
                    ScriptEntry(element="late_timer", at_ms=101_000),
                ),
            ),
            Participant(
                name="customer",
                script=(ScriptEntry(element="notice", at_ms=99_000),),
            ),
        ),
        horizon_ms=200_000,
    )


PROCESS_PRESETS = {
    "invoice-demo": invoice_demo_model,
}

SCENARIO_PRESETS = {
    "invoice-demo": invoice_demo_scenario,
    "deferred-overtake": deferred_overtake_scenario,
    "deferred-fifo": deferred_fifo_scenario,
}


def dump_config_yaml(config: ScenarioConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=False)
