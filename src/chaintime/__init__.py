"""Deterministic simulation of time measures for on-chain process execution.

Public surface: the ledger model (chain), timer definitions (timers), the
five time measures (measures), the guarded process engine (process), the
seeded simulator (sim), scenario configuration (scenario), and batch
experiments with reporting (experiment).
"""

from .chain import Chain, SimTime, Transaction
from .dists import Distribution, constant, normal, uniform
from .experiment import MetricsReport, check_trace, emit_report, read_records, sweep, write_records
from .measures import (
    ChainParams,
    MeasureKind,
    OracleCell,
    PullOracleConfig,
    PushOracleConfig,
    TxContext,
    measure_bn,
    measure_bt,
    measure_pa,
    measure_so,
)
from .process import (
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
from .rng import substream
from .scenario import (
    FaultConfig,
    NetworkConfig,
    Participant,
    ScenarioConfig,
    SchemaError,
    ScriptEntry,
    SCENARIO_PRESETS,
    load_scenario,
)
from .sim import RunTrace, SeedWorld, block_schedule, run
from .timers import (
    CycleAbsTimer,
    CycleRelTimer,
    DateTimer,
    DurationTimer,
    TimerParseError,
    due_times,
    format_timer,
    parse_timer,
)

__version__ = "0.1.0"

__all__ = [
    "Chain", "SimTime", "Transaction",
    "Distribution", "constant", "normal", "uniform",
    "MetricsReport", "check_trace", "emit_report", "read_records", "sweep", "write_records",
    "ChainParams", "MeasureKind", "OracleCell", "PullOracleConfig",
    "PushOracleConfig", "TxContext",
    "measure_bn", "measure_bt", "measure_pa", "measure_so",
    "EventGateway", "GuardRecord", "MessageCatch", "Outcome", "ProcessInstance",
    "ProcessModel", "StartTimer", "Task", "TimerCatch", "classify_absolute",
    "substream",
    "FaultConfig", "NetworkConfig", "Participant", "ScenarioConfig",
    "SchemaError", "ScriptEntry", "SCENARIO_PRESETS", "load_scenario",
    "RunTrace", "SeedWorld", "block_schedule", "run",
    "CycleAbsTimer", "CycleRelTimer", "DateTimer", "DurationTimer",
    "TimerParseError", "due_times", "format_timer", "parse_timer",
]
