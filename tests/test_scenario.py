"""Scenario schema validation, presets, and config round-tripping."""

import copy
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st

import chaintime
from chaintime.dists import constant, normal, uniform
from chaintime.measures import MeasureKind, PullOracleConfig, PushOracleConfig
from chaintime.process import (
    EventGateway,
    MessageCatch,
    ProcessModel,
    StartTimer,
    Task,
    TimerCatch,
)
from chaintime.scenario import (
    SCENARIO_PRESETS,
    FaultConfig,
    NetworkConfig,
    Participant,
    ScenarioConfig,
    SchemaError,
    ScriptEntry,
    build_config,
    config_to_dict,
    dump_config_yaml,
    invoice_demo_scenario,
    load_scenario,
)
from chaintime.timers import parse_timer


def minimal_tree() -> dict:
    return {
        "name": "tiny",
        "network": {
            "block_time": {"kind": "constant", "value_ms": 10_000},
            "mining_time": {"kind": "constant", "value_ms": 1_000},
            "inclusion_delay": {"kind": "constant", "value_ms": 2_000},
        },
        "horizon_ms": 100_000,
        "measures": ["block_timestamp"],
    }


class TestSchema:
    def test_minimal_tree_builds(self):
        config = build_config(minimal_tree())
        assert config.name == "tiny"
        assert config.network.block_time.value_ms == 10_000
        assert config.measures == (MeasureKind.BLOCK_TIMESTAMP,)

    def test_unknown_top_level_key_reports_path(self):
        tree = minimal_tree()
        tree["blocktime"] = {}
        with pytest.raises(SchemaError) as exc_info:
            build_config(tree)
        assert "blocktime" in exc_info.value.path

    def test_unknown_measure_lists_valid_kinds(self):
        tree = minimal_tree()
        tree["measures"] = ["block_stamp"]
        with pytest.raises(SchemaError) as exc_info:
            build_config(tree)
        assert exc_info.value.path == "measures[0]"
        assert "block_timestamp" in exc_info.value.reason

    def test_bad_distribution_kind_path(self):
        tree = minimal_tree()
        tree["network"]["block_time"] = {"kind": "poisson", "value_ms": 5}
        with pytest.raises(SchemaError) as exc_info:
            build_config(tree)
        assert exc_info.value.path == "network.block_time.kind"

    def test_oracle_field_path_in_errors(self):
        tree = minimal_tree()
        tree["oracles"] = {"push": [{"provider": "p", "cadence_ms": 0}]}
        with pytest.raises(SchemaError) as exc_info:
            build_config(tree)
        assert exc_info.value.path.startswith("oracles.push[0]")

    def test_storage_oracle_measure_requires_push_provider(self):
        tree = minimal_tree()
        tree["measures"] = ["storage_oracle"]
        with pytest.raises(SchemaError) as exc_info:
            build_config(tree)
        assert exc_info.value.path == "oracles.push"

    def test_script_entry_needs_exactly_one_mode(self):
        tree = minimal_tree()
        tree["participants"] = [
            {"name": "p", "script": [{"element": "x", "at_ms": 1, "on_due": True}]}
        ]
        with pytest.raises(SchemaError):
            build_config(tree)

    def test_horizon_must_follow_genesis(self):
        tree = minimal_tree()
        tree["network"]["genesis_timestamp_ms"] = 200_000
        with pytest.raises(SchemaError):
            build_config(tree)

    def test_omitted_fields_take_the_constructor_defaults(self):
        config = build_config({"network": {"genesis_timestamp_ms": 5000}, "horizon_ms": 10**6})
        assert config == ScenarioConfig(
            network=NetworkConfig(genesis_timestamp_ms=5000), horizon_ms=10**6
        )
        # an unset activation floor is the genesis timestamp, in Python and in files
        assert config.activation_floor_ms == 5000

    def test_script_element_must_exist_in_process(self):
        config = invoice_demo_scenario()
        tree = config_to_dict(config)
        tree["participants"][0]["script"][0]["element"] = "ghost"
        with pytest.raises(SchemaError) as exc_info:
            build_config(tree)
        assert "ghost" in exc_info.value.reason


class TestPresets:
    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    def test_presets_validate(self, name):
        config = SCENARIO_PRESETS[name]()
        config.validate()

    def test_invoice_demo_shape(self):
        config = invoice_demo_scenario()
        assert config.process is not None
        assert set(config.measures) == set(MeasureKind)
        assert config.push_oracles[0].cadence_ms == 60_000
        assert config.pull_oracles[0].latency_ms == 30_000

    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    def test_dump_build_roundtrip(self, name):
        config = SCENARIO_PRESETS[name]()
        rebuilt = build_config(config_to_dict(config))
        assert rebuilt == config

    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    def test_yaml_dump_is_loadable(self, tmp_path, name):
        config = SCENARIO_PRESETS[name]()
        path = tmp_path / "scenario.yaml"
        path.write_text(dump_config_yaml(config))
        assert load_scenario(str(path)) == config

    def test_second_pull_provider_rejected(self):
        config = invoice_demo_scenario()
        second = PullOracleConfig(provider="backup", latency_ms=5_000)
        with pytest.raises(SchemaError) as exc_info:
            replace(config, pull_oracles=(*config.pull_oracles, second)).validate()
        assert exc_info.value.path == "oracles.pull[1]"


class TestPresetOverride:
    def test_file_can_extend_preset(self, tmp_path):
        path = tmp_path / "override.yaml"
        path.write_text(
            "preset: invoice-demo\n"
            "name: tweaked\n"
            "measures: [parameter]\n"
        )
        config = load_scenario(str(path))
        assert config.name == "tweaked"
        assert config.measures == (MeasureKind.PARAMETER,)
        # untouched keys keep their preset values
        assert config.push_oracles[0].provider == "timefeed"

    def test_kind_override_replaces_preset_distribution(self, tmp_path):
        path = tmp_path / "override.yaml"
        path.write_text(
            "preset: invoice-demo\n"
            "network:\n"
            "  inclusion_delay: {kind: constant, value_ms: 1000}\n"
            "  block_time: {mean_ms: 16000}\n"
        )
        network = load_scenario(str(path)).network
        assert network.inclusion_delay == constant(1_000)
        # a partial override of the same kind still merges into the preset's
        assert network.block_time == normal(16_000, 2_710, 4_460, 30_310)

    def test_oracle_entry_must_name_its_provider(self, tmp_path):
        path = tmp_path / "override.yaml"
        path.write_text(
            "preset: invoice-demo\n"
            "oracles:\n"
            "  push: [{cadence_ms: 30000}]\n"
        )
        with pytest.raises(SchemaError) as exc_info:
            load_scenario(str(path))
        assert exc_info.value.path == "oracles.push[0].provider"

    def test_unknown_preset(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("preset: nope\n")
        with pytest.raises(SchemaError) as exc_info:
            load_scenario(str(path))
        assert "invoice-demo" in exc_info.value.reason


def preset_tree(name: str) -> dict:
    return config_to_dict(SCENARIO_PRESETS[name]())


def malformed(preset: str, keys: list, value, path: str):
    """A preset tree with the node at `keys` replaced, and the path that
    build_config must report for it."""
    tree = preset_tree(preset)
    node = tree
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return pytest.param(tree, path, id=f"{path}={value!r}")


def processless(entry: dict, path: str):
    """The deferred-overtake tree without its process, its first script
    entry replaced by `entry`, and the path build_config must report."""
    tree = preset_tree("deferred-overtake")
    del tree["process"]
    tree["participants"][0]["script"][0] = entry
    return pytest.param(tree, path, id=f"no process: {path}")


SECOND_PULL = [{"provider": "a", "latency_ms": 1}, {"provider": "b", "latency_ms": 2}]
TWIN_PUSH = [{"provider": "timefeed"}, {"provider": "timefeed", "cadence_ms": 1_000}]
CONSTANT_2_63 = {"kind": "constant", "value_ms": 2**63}
TWO_GATEWAYS = preset_tree("deferred-fifo")["process"]["elements"] + [
    {"id": "second_gateway", "type": "event_gateway", "branches": ["late_timer", "notice"]},
]


@pytest.mark.parametrize(
    "tree, path",
    [
        malformed("deferred-overtake", ["participants", 1, "script", 0, "at_ms"], "soon",
                  "participants[1].script[0].at_ms"),
        malformed("invoice-demo", ["participants", 0, "lie_ms"], "x", "participants[0].lie_ms"),
        malformed("invoice-demo", ["faults", "miner_drift", "enabled"], "false",
                  "faults.miner_drift.enabled"),
        malformed("invoice-demo", ["participants", 0, "script", 0, "on_due"], "no",
                  "participants[0].script[0].on_due"),
        malformed("deferred-overtake", ["process", "flows"], [1], "process.flows"),
        malformed("deferred-overtake", ["participants", 0, "script", 0, "priority"], -1,
                  "participants[0].script[0].priority"),
        malformed("deferred-overtake", ["participants", 0, "script", 0, "at_ms"], -1,
                  "participants[0].script[0].at_ms"),
        malformed("deferred-overtake", ["process", "elements", 0, "spec"], "soon",
                  "process.elements[0].spec"),
        malformed("deferred-overtake", ["process", "elements", 1, "id"], "race,gw",
                  "process.elements[1].id"),
        # an absolute cycle whose dues step past 9999-12-31
        malformed("deferred-fifo", ["process", "elements", 0, "spec"], "R/9999-12-01/P1M",
                  "process.elements[0].spec"),
        malformed("deferred-fifo", ["process", "elements", 0, "spec"],
                  "R/2020-01-01/P99999999999Y", "process.elements[0].spec"),
        malformed("invoice-demo", ["participants", 0, "script", 0, "retry_ms"], "x",
                  "participants[0].script[0].retry_ms"),
        malformed("invoice-demo", ["faults", "miner_drift", "min_ms"], "x",
                  "faults.miner_drift.min_ms"),
        malformed("invoice-demo", ["oracles", "push", 0, "outages"], [[True, 5]],
                  "oracles.push[0].outages[0][0]"),
        malformed("deferred-overtake", ["name"], 5, "name"),
        # identifiers: non-empty, no ',' and no line break
        malformed("deferred-overtake", ["name"], "", "name"),
        malformed("deferred-overtake", ["process", "elements", 1, "branches", 0], "late,timer",
                  "process.elements[1].branches[0]"),
        malformed("deferred-overtake", ["process", "flows", "start_timer"], "race\ngateway",
                  "process.flows.start_timer"),
        malformed("deferred-overtake", ["participants", 0, "name"], "m,no",
                  "participants[0].name"),
        malformed("invoice-demo", ["oracles", "push", 0, "provider"], "time\nfeed",
                  "oracles.push[0].provider"),
        # range checks of the config objects, at the path of their field
        malformed("invoice-demo", ["faults", "miner_drift", "min_ms"], 20_000,
                  "faults.miner_drift.min_ms"),
        malformed("deferred-overtake", ["network", "genesis_timestamp_ms"], -1,
                  "network.genesis_timestamp_ms"),
        malformed("invoice-demo", ["oracles", "pull"], SECOND_PULL, "oracles.pull[1]"),
        malformed("invoice-demo", ["oracles", "push", 0, "active_from_ms"], -5_000,
                  "oracles.push[0]"),
        malformed("deferred-fifo", ["measures"], ["block_timestamp", "block_timestamp"],
                  "measures[1]"),
        # script entries that could never fire
        malformed("invoice-demo", ["participants", 0, "script", 1],
                  {"element": "send_invoice", "on_due": True},
                  "participants[0].script[1].on_due"),
        malformed("invoice-demo", ["participants", 0, "script", 1, "element"], "invoice_gateway",
                  "participants[0].script[1].element"),
        processless({"element": "a", "on_enabled_delay_ms": 0},
                    "participants[0].script[0].on_enabled_delay_ms"),
        processless({"element": "b", "on_due": True}, "participants[0].script[0].on_due"),
        # every sender name is taken once: participants, then oracle:<provider>
        malformed("invoice-demo", ["participants", 1, "name"], "mno", "participants[1].name"),
        malformed("invoice-demo", ["oracles", "push"], TWIN_PUSH, "oracles.push[1].provider"),
        malformed("invoice-demo", ["participants", 1, "name"], "oracle:timefeed",
                  "oracles.push[0].provider"),
        malformed("invoice-demo", ["oracles", "pull", 0, "provider"], "timefeed",
                  "oracles.pull[0].provider"),
        # durations below 2**45 ms and instants below 2**62 ms, so that int64
        # sums in the simulator cannot overflow
        malformed("deferred-fifo", ["network", "block_time"], CONSTANT_2_63,
                  "network.block_time.value_ms"),
        malformed("deferred-fifo", ["network", "inclusion_delay"], CONSTANT_2_63,
                  "network.inclusion_delay.value_ms"),
        malformed("invoice-demo", ["network", "mining_time", "max_ms"], 2**63,
                  "network.mining_time.max_ms"),
        malformed("invoice-demo", ["faults", "miner_drift", "max_ms"], 2**63,
                  "faults.miner_drift.max_ms"),
        malformed("invoice-demo", ["participants", 0, "script", 0, "jitter", "max_ms"], 2**63,
                  "participants[0].script[0].jitter.max_ms"),
        malformed("invoice-demo", ["oracles", "push", 0, "staleness_ms"], 2**63,
                  "oracles.push[0].staleness_ms"),
        malformed("invoice-demo", ["oracles", "push", 0, "cadence_ms"], 2**45,
                  "oracles.push[0].cadence_ms"),
        malformed("deferred-fifo", ["horizon_ms"], 2**63, "horizon_ms"),
        # a process is a mapping; ProcessModel.validate's errors are at `process`
        malformed("deferred-fifo", ["process"], "invoice-demo", "process"),
        malformed("deferred-fifo", ["process", "start"], "nowhere", "process"),
        malformed("deferred-fifo", ["process", "elements", 1, "branches", 1], "ghost", "process"),
        malformed("deferred-fifo", ["process", "elements", 1, "branches", 1], "start_timer",
                  "process"),
        malformed("deferred-fifo", ["process", "elements"], TWO_GATEWAYS, "process"),
        malformed("deferred-fifo", ["process", "flows", "ghost"], None, "process"),
        malformed("deferred-fifo", ["process", "flows", "notice"], "ghost", "process"),
    ],
)
def test_malformed_tree_reports_field_path(tree, path):
    with pytest.raises(SchemaError) as exc_info:
        build_config(tree)
    assert exc_info.value.path == path


def test_a_long_cycle_limit_validates_quickly():
    # validate computes an absolute cycle's last due only, not all 79,048
    tree = preset_tree("invoice-demo")
    tree["cycle_limit"] = 79_048
    start = time.perf_counter()
    build_config(tree)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("spec, limit, passes", [
    ("R3/9999-10-01/P1M", 64, False),
    ("R4/9999-10-01/P1M", 64, True),
    ("R/9999-10-01/P1M", 3, False),
    ("R/9999-10-01/P1M", 4, True),
    ("R/9000-01-01/P1Y", 999, False),
    ("R/9000-01-01/P1Y", 1_001, True),
])
def test_a_cycle_whose_last_due_passes_year_9999_is_refused(spec, limit, passes):
    tree = preset_tree("deferred-fifo")
    tree["process"]["elements"][0]["spec"] = spec
    tree["cycle_limit"] = limit
    if not passes:
        build_config(tree)
        return
    with pytest.raises(SchemaError) as exc_info:
        build_config(tree)
    assert exc_info.value.path == "process.elements[0].spec"


@pytest.mark.parametrize("tree, path", [
    # 2**61 ms of 10 s blocks is far past sim.MAX_BLOCKS
    malformed("deferred-fifo", ["horizon_ms"], 2**61, "horizon_ms"),
])
def test_a_chain_past_the_block_cap_is_refused_in_bounded_memory(tmp_path, tree, path):
    # the cap stops the schedule long before 512 MiB of address space, the
    # child's own limit, would run out (it did, with exit 2, before the cap)
    scenario = tmp_path / "long.yaml"
    scenario.write_text(yaml.safe_dump(tree))
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from chaintime.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    paths = (str(Path(chaintime.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", limited, "run", "--scenario", str(scenario)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"error: {path}: the chain would pass ")


# -- properties --------------------------------------------------------------

idents = st.text(min_size=1, max_size=8).filter(lambda s: not set(s) & set(",\r\n"))
instants = st.integers(0, 10**13)
dists = st.one_of(
    st.builds(constant, instants),
    st.lists(instants, min_size=2, max_size=2).map(sorted).map(lambda b: uniform(*b)),
    st.tuples(st.integers(-10**6, 10**13), instants, st.integers(1, 10**13),
              st.integers(1, 10**13))
    .map(lambda t: normal(t[0], t[1], min(t[2:]), max(t[2:]))),
)
timers = st.sampled_from(
    ["P7D", "PT0S", "R7/PT24H", "R/PT1.5S", "R/2020-01-01/P1M",
     "R3/1970-01-01T00:00:02Z/PT1S", "1970-01-01T00:00:10Z"]
).map(parse_timer)
outages = st.lists(
    st.tuples(instants, st.integers(1, 10**6)).map(lambda t: (t[0], t[0] + t[1])), max_size=2
).map(tuple)


@st.composite
def process_models(draw):
    start, task, gate, wait, note = draw(st.lists(idents, min_size=5, max_size=5, unique=True))
    elements = {
        start: StartTimer(id=start, spec=draw(timers)),
        task: Task(id=task, name=draw(st.text()), performer=draw(st.text())),
        gate: EventGateway(id=gate, branches=(wait, note)),
        wait: TimerCatch(id=wait, spec=draw(timers)),
        note: MessageCatch(id=note, message=draw(st.text())),
    }
    flows = {start: task, task: gate, wait: None, note: task}
    return ProcessModel(elements=elements, flows=flows, start=start)


@st.composite
def script_entries(draw, process):
    """Entries that can fire: no gateway, on_due only on a timer, and only
    at_ms without a process."""
    modes = ["at_ms", "on_enabled_delay_ms", "on_due"]
    if process is None:
        element = draw(idents)
        modes = ["at_ms"]
    else:
        kinds = {i: type(e) for i, e in process.elements.items() if type(e) is not EventGateway}
        element = draw(st.sampled_from(sorted(kinds)))
        if kinds[element] not in (StartTimer, TimerCatch):
            modes.remove("on_due")
    mode = draw(st.sampled_from(modes))
    return ScriptEntry(
        element=element,
        **{mode: True if mode == "on_due" else draw(instants)},
        jitter=draw(st.none() | dists),
        jitter_offset_ms=draw(st.integers(-10**6, 10**6)),
        retry_ms=draw(st.integers(1, 10**7)),
        max_attempts=draw(st.integers(1, 500)),
        priority=draw(st.integers(0, 10)),
    )


@st.composite
def scenario_configs(draw):
    genesis = draw(instants)
    drift_min, drift_max = sorted(draw(st.lists(instants, min_size=2, max_size=2)))
    push = draw(st.lists(st.builds(
        PushOracleConfig, provider=idents, cadence_ms=st.integers(1, 10**7),
        staleness_ms=instants, active_from_ms=instants, outages=outages,
    ), max_size=2, unique_by=lambda o: o.provider))
    # sender names are unique: participants, then oracle:<provider>
    pull_provider = idents.filter(lambda s: s not in {o.provider for o in push})
    pull = draw(st.lists(
        st.builds(PullOracleConfig, provider=pull_provider, latency_ms=instants, outages=outages),
        max_size=1,
    ))
    process = draw(st.none() | process_models())
    measures = [
        m for m in draw(st.lists(st.sampled_from(MeasureKind), min_size=1, unique=True))
        if (m is not MeasureKind.STORAGE_ORACLE or push)
        and (m is not MeasureKind.REQUEST_RESPONSE_ORACLE or pull)
    ]
    return ScenarioConfig(
        name=draw(idents),
        network=NetworkConfig(
            block_time=draw(dists),
            mining_time=draw(dists),
            inclusion_delay=draw(dists),
            genesis_timestamp_ms=genesis,
            miner_ordering=draw(st.sampled_from(
                ["fifo_by_arrival", "priority_then_arrival", "adversarial_reorder"]
            )),
            assumed_mean_block_time_ms=draw(st.integers(1, 10**6)),
        ),
        faults=FaultConfig(
            miner_drift_enabled=draw(st.booleans()),
            miner_drift_min_ms=drift_min,
            miner_drift_max_ms=drift_max,
        ),
        push_oracles=tuple(push),
        pull_oracles=tuple(pull),
        process=process,
        activation_floor_ms=draw(instants),
        measures=tuple(measures) or (MeasureKind.PARAMETER,),
        participants=tuple(draw(st.lists(st.builds(
            Participant, name=idents.filter(lambda s: not s.startswith("oracle:")),
            lie_ms=st.integers(-10**6, 10**6),
            inclusion_delay=st.none() | dists,
            script=st.lists(script_entries(process), max_size=3).map(tuple),
        ), max_size=2, unique_by=lambda p: p.name))),
        horizon_ms=genesis + draw(st.integers(1, 10**12)),
        cycle_limit=draw(st.integers(1, 100)),
        simulate_unused_oracles=draw(st.booleans()),
    )


@given(scenario_configs())
def test_generated_config_roundtrips(config):
    assert build_config(config_to_dict(config)) == config


def node_paths(tree, prefix=()):
    """The key path of every node in a YAML tree, the root included."""
    yield prefix
    if isinstance(tree, (dict, list)):
        for key, child in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from node_paths(child, (*prefix, key))


PRESET_TREES = {name: preset_tree(name) for name in sorted(SCENARIO_PRESETS)}
SCHEMA_KEYS = sorted({
    path[-1] for tree in PRESET_TREES.values() for path in node_paths(tree)
    if path and isinstance(path[-1], str)
})
junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=6) | st.integers(),
                      inner, max_size=3),
    max_leaves=12,
)


@given(st.data())
def test_any_tree_builds_or_raises_schema_error(data):
    tree = copy.deepcopy(PRESET_TREES[data.draw(st.sampled_from(sorted(PRESET_TREES)))])
    path = data.draw(st.sampled_from(list(node_paths(tree))))
    value = data.draw(junk)
    if not path:
        tree = value
    else:
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    try:
        build_config(tree)
    except SchemaError:
        pass
