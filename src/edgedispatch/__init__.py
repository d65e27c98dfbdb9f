"""Latency-weighted dispatch: estimators, selection policies, simulator.

The package models routers that forward serverless function invocations to
the computer expected to answer fastest, keeping per-destination latency
estimates smooth, honoring congestion signals, and spreading load with a
deficit scheduler whose fairness properties are machine-checked.
"""

from .core import INFINITE, US_PER_MS, Weight, from_ms, to_ms
from .estimator import NotCongested, ObservationWhileCongested, WeightTable
from .ledger import (
    REPLAY_BACKEND,  # kept: perfbench/run.py records it in every run
    AlreadyAdmitted,
    DeficitLedger,
    EmptyLedger,
    ReplayResult,
    UnknownDestination,
    replay_frozen,
)
from .policy import (
    NoEligibleDestination,
    PolicyKind,
    PolicyState,
    SelectionOutcome,
)
from .scenario import (
    InvalidScenario,
    PolicyConfig,
    Scenario,
    builtin_names,
    load_scenario,
    scenario_from_mapping,
)
from .simnet import (
    SimResult,
    TraceRow,
    UnknownLambda,
    arrival_process,
    run,
    service_time,
)
from .metrics import (
    EmptyTrace,
    Summary,
    read_trace,
    summarize,
    trace_bytes,
    write_trace,
)
from .fairness import (
    SuiteReport,
    all_suites,
    exact_convergence_suite,
    proportional_selection_check,
    schedule_table,
    short_term_suite,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "US_PER_MS",
    "Weight",
    "from_ms",
    "to_ms",
    "NotCongested",
    "ObservationWhileCongested",
    "WeightTable",
    "REPLAY_BACKEND",
    "AlreadyAdmitted",
    "DeficitLedger",
    "EmptyLedger",
    "ReplayResult",
    "UnknownDestination",
    "replay_frozen",
    "NoEligibleDestination",
    "PolicyKind",
    "PolicyState",
    "SelectionOutcome",
    "InvalidScenario",
    "PolicyConfig",
    "Scenario",
    "builtin_names",
    "load_scenario",
    "scenario_from_mapping",
    "SimResult",
    "TraceRow",
    "UnknownLambda",
    "arrival_process",
    "run",
    "service_time",
    "EmptyTrace",
    "Summary",
    "read_trace",
    "summarize",
    "trace_bytes",
    "write_trace",
    "SuiteReport",
    "all_suites",
    "exact_convergence_suite",
    "proportional_selection_check",
    "schedule_table",
    "short_term_suite",
    "__version__",
]
