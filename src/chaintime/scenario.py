"""Scenario configuration: schema, validation, and bundled presets.

Scenario files are YAML trees with a fixed schema; unknown keys are
rejected with the path of the offending field. A file may start from a
named preset (``preset: invoice-demo``) and override individual keys.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import yaml

from .chain import SchemaError, _Ident, _check_bounds
from .dists import Distribution, constant, normal, uniform
from .measures import MeasureKind, PullOracleConfig, PushOracleConfig
from .process import (
    Element,
    EventGateway,
    MessageCatch,
    ProcessModel,
    StartTimer,
    Task,
    TimerCatch,
)
from .timers import CycleAbsTimer, TimerParseError, TimerSpec, add_months, format_timer, parse_timer

MS_PER_DAY = 86_400_000

DEFAULT_BLOCK_TIME = normal(15_190, 2_710, 4_460, 30_310)
DEFAULT_MINING_TIME = uniform(500, 2_500)
DEFAULT_INCLUSION_DELAY = uniform(500, 6_000)


# ---------------------------------------------------------------------------
# Config dataclasses
# ---------------------------------------------------------------------------
#
# Each field is one scenario key: its name is the YAML key, its type hint
# the YAML type, its default the YAML default, and the field order is the
# order of `chaintime print-config`.

@dataclass(frozen=True)
class NetworkConfig:
    block_time: Distribution = DEFAULT_BLOCK_TIME
    mining_time: Distribution = DEFAULT_MINING_TIME
    inclusion_delay: Distribution = DEFAULT_INCLUSION_DELAY
    genesis_timestamp_ms: int = 0
    miner_ordering: str = "fifo_by_arrival"
    assumed_mean_block_time_ms: int = 15_190

    def __post_init__(self):
        if self.genesis_timestamp_ms < 0:
            raise SchemaError("genesis_timestamp_ms", "must be non-negative")
        if self.miner_ordering not in (
            "fifo_by_arrival",
            "priority_then_arrival",
            "adversarial_reorder",
        ):
            raise SchemaError("miner_ordering", f"unknown policy {self.miner_ordering!r}")
        if self.assumed_mean_block_time_ms <= 0:
            raise SchemaError("assumed_mean_block_time_ms", "must be positive")


@dataclass(frozen=True)
class FaultConfig:
    miner_drift_enabled: bool = False
    miner_drift_min_ms: int = 0
    miner_drift_max_ms: int = 15_000

    def __post_init__(self):
        _check_bounds(self, "miner_drift_min_ms", "miner_drift_max_ms")
        if self.miner_drift_min_ms > self.miner_drift_max_ms:
            raise SchemaError("miner_drift_min_ms", "min must not exceed max")


@dataclass(frozen=True)
class ScriptEntry:
    """One participant behavior: send at a fixed time, on enablement, or
    around each ground-truth due time with jitter and retries."""

    element: _Ident
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
            raise ValueError("exactly one of at_ms / on_enabled_delay_ms / on_due required")
        for name in ("at_ms", "on_enabled_delay_ms", "priority"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise SchemaError(name, "must be non-negative")
        if self.retry_ms <= 0:
            raise SchemaError("retry_ms", "must be positive")
        if self.max_attempts < 1:
            raise SchemaError("max_attempts", "must be >= 1")


@dataclass(frozen=True)
class Participant:
    name: _Ident
    lie_ms: int = 0
    inclusion_delay: Distribution | None = None
    script: tuple[ScriptEntry, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    name: _Ident = "scenario"
    network: NetworkConfig = NetworkConfig()
    faults: FaultConfig = FaultConfig()
    push_oracles: tuple[PushOracleConfig, ...] = ()
    pull_oracles: tuple[PullOracleConfig, ...] = ()
    process: ProcessModel | None = None
    activation_floor_ms: int | None = None  # None: the genesis timestamp
    measures: tuple[MeasureKind, ...] = (MeasureKind.PARAMETER,)
    participants: tuple[Participant, ...] = ()
    # required, so keyword-only to keep its place in the print-config order
    horizon_ms: int = field(kw_only=True)
    cycle_limit: int = 64
    simulate_unused_oracles: bool = False

    def __post_init__(self):
        if not self.network.genesis_timestamp_ms < self.horizon_ms < 1 << 62:
            raise SchemaError("horizon_ms", "must lie after the genesis timestamp and below 2**62")
        if self.activation_floor_ms is None:
            object.__setattr__(self, "activation_floor_ms", self.network.genesis_timestamp_ms)
        if self.activation_floor_ms < 0:
            raise SchemaError("activation_floor_ms", "must be non-negative")
        if not self.measures:
            raise SchemaError("measures", "at least one measure kind required")
        for i, measure in enumerate(self.measures):
            if measure in self.measures[:i]:
                raise SchemaError(f"measures[{i}]", f"measure {measure.value!r} is listed twice")
        if self.cycle_limit < 1:
            raise SchemaError("cycle_limit", "must be >= 1")

    def validate(self) -> None:
        if self.process is not None:
            self.process.validate()
            for i, element in enumerate(self.process.elements.values()):
                if isinstance(spec := getattr(element, "spec", None), CycleAbsTimer):
                    # its year moves one way with the index: only the last due can pass 9999
                    last = min(spec.repetitions or self.cycle_limit, self.cycle_limit) - 1
                    try:
                        add_months(spec.start_ms, last * spec.period_months)
                    except ValueError as exc:
                        raise SchemaError(f"process.elements[{i}].spec", str(exc)) from None
        for p, participant in enumerate(self.participants):
            for s, entry in enumerate(participant.script):
                path = f"participants[{p}].script[{s}]"
                if self.process is None:
                    # without a process nothing is ever enabled or due
                    if entry.at_ms is None:
                        mode = "on_due" if entry.on_due else "on_enabled_delay_ms"
                        raise SchemaError(f"{path}.{mode}", "only at_ms fires without a process")
                    continue
                element = self.process.elements.get(entry.element)
                if element is None:
                    raise SchemaError(f"{path}.element", f"unknown element {entry.element!r}")
                if isinstance(element, EventGateway):
                    raise SchemaError(
                        f"{path}.element",
                        "an event gateway is never enabled itself; script its branches",
                    )
                if entry.on_due and not isinstance(element, (StartTimer, TimerCatch)):
                    raise SchemaError(
                        f"{path}.on_due", "only a start_timer or timer_catch has due times"
                    )
        for measure in self.measures:
            _check_provider(self, measure)
        if len(self.pull_oracles) > 1:
            raise SchemaError(
                "oracles.pull[1]",
                "one pull provider at most: the contract queries oracles.pull[0]",
            )
        # a sender name keys its transaction ids and its delay substream
        senders = [(f"participants[{i}].name", p.name) for i, p in enumerate(self.participants)]
        for group, oracles in (("push", self.push_oracles), ("pull", self.pull_oracles)):
            senders += [
                (f"oracles.{group}[{i}].provider", f"oracle:{o.provider}")
                for i, o in enumerate(oracles)
            ]
        seen: set[str] = set()
        for path, sender in senders:
            if sender in seen:
                raise SchemaError(path, f"sender name {sender!r} is already taken")
            seen.add(sender)


def _check_provider(config: ScenarioConfig, measure: MeasureKind) -> None:
    """An oracle measure needs its provider, whether it is listed in
    config.measures or chosen for one run."""
    if measure is MeasureKind.STORAGE_ORACLE and not config.push_oracles:
        raise SchemaError("oracles.push", "storage_oracle measure needs a push provider")
    if measure is MeasureKind.REQUEST_RESPONSE_ORACLE and not config.pull_oracles:
        raise SchemaError("oracles.pull", "request_response_oracle measure needs a pull provider")


# ---------------------------------------------------------------------------
# Dict <-> config
# ---------------------------------------------------------------------------
#
# build_config and config_to_dict walk the config dataclasses above (and the
# distribution, oracle and process element ones they hold) by their fields
# and type hints. The tables below are the only places where the YAML does
# not mirror a dataclass.

# Fields kept under a group key: {group: {key: field name}}.
_GROUPS: dict[type, dict[str, dict[str, str]]] = {
    ScenarioConfig: {"oracles": {"push": "push_oracles", "pull": "pull_oracles"}},
    FaultConfig: {
        "miner_drift": {
            "enabled": "miner_drift_enabled",
            "min_ms": "miner_drift_min_ms",
            "max_ms": "miner_drift_max_ms",
        },
    },
}

# The parameters each distribution kind takes, all of them required.
_DIST_KEYS = {
    "constant": ("value_ms",),
    "uniform": ("min_ms", "max_ms"),
    "normal": ("mean_ms", "stddev_ms", "min_ms", "max_ms"),
}

# Process elements are listed as mappings tagged with their type.
_ELEMENT_TYPES = {
    "start_timer": StartTimer,
    "task": Task,
    "timer_catch": TimerCatch,
    "message_catch": MessageCatch,
    "event_gateway": EventGateway,
}
_ELEMENT_NAMES = {cls: name for name, cls in _ELEMENT_TYPES.items()}

_SCALARS = {bool: "true or false", int: "an integer", str: "a string"}


def _join(path: str, *keys: Any) -> str:
    return ".".join([path, *map(str, keys)] if path else map(str, keys))


def _yaml_key(cls: type, name: str) -> tuple[str, ...]:
    """A field's YAML key: its name, or (group, key) for a grouped field."""
    for group, members in _GROUPS.get(cls, {}).items():
        for key, member in members.items():
            if member == name:
                return group, key
    return (name,)


@cache
def _hints(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


def _expect(ok: bool, value: Any, path: str, what: str) -> None:
    if not ok:
        raise SchemaError(path or "<root>", f"expected {what}, got {value!r}")


def _pick(table: Mapping[str, Any], value: Any, path: str, what: str) -> Any:
    """The entry of a table that a YAML string names."""
    if not isinstance(value, str) or value not in table:
        raise SchemaError(path, f"unknown {what} {value!r}; known: {sorted(table)}")
    return table[value]


def _build(tp: Any, value: Any, path: str) -> Any:
    """One YAML node built as type hint `tp`, or a SchemaError at its path."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is _Ident:
        ok = isinstance(value, str) and value != "" and not any(c in value for c in ",\r\n")
        _expect(ok, value, path, "a name without ',' or line breaks")
        return value
    if tp == TimerSpec:
        _expect(isinstance(value, str), value, path, "a timer string")
        try:
            return parse_timer(value)
        except TimerParseError as exc:
            raise SchemaError(path, str(exc)) from None
    if tp == Element:
        _expect(isinstance(value, Mapping), value, path, "a mapping")
        cls = _pick(_ELEMENT_TYPES, value.get("type"), _join(path, "type"), "element type")
        return _build_fields(cls, {k: v for k, v in value.items() if k != "type"}, path)
    if origin in (Union, UnionType):  # an optional value: X | None
        return None if value is None else _build(args[0], value, path)
    if tp in _SCALARS:
        ok = isinstance(value, tp) and (tp is bool or not isinstance(value, bool))
        _expect(ok, value, path, _SCALARS[tp])
        return value
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _pick({m.value: m for m in tp}, value, path, tp.__name__)
    if origin is tuple:
        _expect(isinstance(value, list), value, path, "a list")
        types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        _expect(len(types) == len(value), value, path, f"a list of {len(types)} values")
        return tuple(_build(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(types, value)))
    if origin is Mapping and args[1] == Element:  # a list of elements keyed by id
        elements: dict[str, Any] = {}
        for i, element in enumerate(_build(tuple[Element, ...], value, path)):
            if element.id in elements:
                raise SchemaError(f"{path}[{i}].id", f"duplicate element id {element.id!r}")
            elements[element.id] = element
        return elements
    if origin is Mapping:
        _expect(isinstance(value, Mapping), value, path, "a mapping")
        return {
            _build(args[0], k, _join(path, k)): _build(args[1], v, _join(path, k))
            for k, v in value.items()
        }
    if tp is Distribution:
        _expect(isinstance(value, Mapping), value, path, "a mapping with a 'kind' key")
        keys = _pick(_DIST_KEYS, value.get("kind"), _join(path, "kind"), "distribution kind")
        return _build_fields(tp, value, path, required=("kind", *keys))
    return _build_fields(tp, value, path)


def _build_fields(cls: type, value: Any, path: str, required: tuple[str, ...] = ()) -> Any:
    """A config dataclass from its YAML mapping, one field at a time. Only the
    `required` fields are read if given; otherwise all, each with its default."""
    _expect(isinstance(value, Mapping), value, path, "a mapping")
    names = required or tuple(f.name for f in fields(cls))
    given = _by_field(cls, value, names, path)
    has_default = {
        f.name: f.default is not MISSING or f.default_factory is not MISSING
        for f in fields(cls)
    }
    built: dict[str, Any] = {}
    for name in names:
        field_path = _join(path, *_yaml_key(cls, name))
        if given.get(name) is not None:
            built[name] = _build(_hints(cls)[name], given[name], field_path)
        elif required or not has_default[name]:
            raise SchemaError(field_path, "required")
    try:
        config = cls(**built)
        if hasattr(config, "validate"):
            config.validate()
    except SchemaError as exc:
        raise SchemaError(_join(path, *_yaml_key(cls, exc.path)), exc.reason) from None
    except ValueError as exc:
        raise SchemaError(path or "<root>", str(exc)) from None
    return config


def _by_field(cls: type, tree: Mapping, names: tuple[str, ...], path: str) -> dict:
    """The values of a dataclass's YAML mapping by field name, its groups
    opened; an unknown key is an error at its path."""
    keys = {_yaml_key(cls, name): name for name in names}
    groups = _GROUPS.get(cls, {})
    out = {}
    for key, value in tree.items():
        if (key,) in keys:
            out[keys[key,]] = value
        elif key in groups:
            group = {} if value is None else value
            _expect(isinstance(group, Mapping), value, _join(path, key), "a mapping")
            for sub, sub_value in group.items():
                if (key, sub) not in keys:
                    raise SchemaError(_join(path, key, sub), "unknown key")
                out[keys[key, sub]] = sub_value
        else:
            raise SchemaError(_join(path, key), "unknown key")
    return out


def _dump(tp: Any, value: Any) -> Any:
    """The YAML node of a value of type hint `tp`: the inverse of _build."""
    origin, args = get_origin(tp), get_args(tp)
    if tp == TimerSpec:
        return format_timer(value)
    if tp == Element:
        tree = _dump_fields(type(value), value)
        return {"id": tree.pop("id"), "type": _ELEMENT_NAMES[type(value)], **tree}
    if origin in (Union, UnionType):
        return None if value is None else _dump(args[0], value)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return value.value
    if origin is tuple:
        types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        return [_dump(t, v) for t, v in zip(types, value)]
    if origin is Mapping and args[1] == Element:
        return [_dump(Element, element) for element in value.values()]
    if origin is Mapping:
        return {k: _dump(args[1], v) for k, v in value.items()}
    if tp is Distribution:
        return _dump_fields(tp, value, ("kind", *_DIST_KEYS[value.kind]))
    if is_dataclass(tp):
        return _dump_fields(tp, value)
    return value


def _dump_fields(cls: type, config: Any, names: tuple[str, ...] = ()) -> dict:
    tree: dict[str, Any] = {}
    for name in names or tuple(f.name for f in fields(cls)):
        *group, key = _yaml_key(cls, name)
        node = tree.setdefault(group[0], {}) if group else tree
        node[key] = _dump(_hints(cls)[name], getattr(config, name))
    return tree


def build_config(tree: Mapping[str, Any]) -> ScenarioConfig:
    """Construct and validate a ScenarioConfig from a plain dict tree."""
    return _build(ScenarioConfig, tree, "")


def config_to_dict(config: ScenarioConfig) -> dict:
    """Effective configuration as a plain tree (the print-config output)."""
    return _dump(ScenarioConfig, config)


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that rejects a key given twice in one mapping, at the
    second key's mark, where safe_load would keep the last value."""

    def construct_mapping(self, node, deep=False):
        if not isinstance(node, yaml.MappingNode):
            return super().construct_mapping(node, deep)
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_scenario(path: str) -> ScenarioConfig:
    """Load, merge (preset), and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = yaml.load(fh, Loader=_UniqueKeyLoader)
    if tree is None:
        raise SchemaError("<root>", "empty scenario file")
    if not isinstance(tree, Mapping):
        raise SchemaError("<root>", "scenario must be a mapping")
    tree = dict(tree)
    preset_name = tree.pop("preset", None)
    if preset_name is not None:
        preset = _pick(SCENARIO_PRESETS, preset_name, "preset", "preset")
        tree = _deep_merge(config_to_dict(preset()), tree)
    return build_config(tree)


def _deep_merge(base: dict, override: Mapping) -> dict:
    out = dict(base)
    for key, value in override.items():
        base_value = out.get(key)
        # a distribution of another kind replaces the base one whole
        if (
            isinstance(value, Mapping) and isinstance(base_value, dict)
            and value.get("kind", base_value.get("kind")) == base_value.get("kind")
        ):
            out[key] = _deep_merge(base_value, value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

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
        network=NetworkConfig(genesis_timestamp_ms=GENESIS_2019),
        push_oracles=(
            PushOracleConfig(
                provider="timefeed",
                cadence_ms=60_000,
                active_from_ms=INVOICE_START_DUE - 3_600_000,
            ),
        ),
        pull_oracles=(PullOracleConfig(provider="timeserver", latency_ms=30_000),),
        process=invoice_demo_model(),
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
    mno, customer = base.participants
    return replace(
        base,
        name="deferred-fifo",
        network=replace(base.network, mining_time=constant(0), inclusion_delay=constant(0)),
        participants=(mno, replace(customer, inclusion_delay=None)),
    )


SCENARIO_PRESETS = {
    "invoice-demo": invoice_demo_scenario,
    "deferred-overtake": deferred_overtake_scenario,
    "deferred-fifo": deferred_fifo_scenario,
}


def dump_config_yaml(config: ScenarioConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=False)
