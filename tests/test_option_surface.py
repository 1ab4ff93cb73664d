"""The settable values of the public entry points, pinned.

Every optional parameter of an engine, the cluster stack or the live
plane is listed here with its entry point, so adding a knob — or
keeping one that only a test sets — is a reviewed diff of this file.
An option earns its place by a caller outside ``tests/``: a workload, a
bench, an example or the CLI.
"""

import inspect

from repro.cluster import (
    AgentSpec, ClusterEngine, DonsManager, ProcessTransport,
)
from repro.core import EngineRunner
from repro.core.checkpoint import CheckpointingEngine
from repro.core.engine import DodEngine
from repro.des import OodSimulator
from repro.des.parallel import ParallelOodSimulator
from repro.metrics.live import ClusterWatchdog, LivePlane

#: Entry point -> its parameters with a default, in signature order.
OPTIONS = {
    DodEngine: ["trace_level", "lookahead_override", "backend",
                "telemetry", "ffwd"],
    OodSimulator: ["trace_level"],
    ParallelOodSimulator: ["trace_level"],
    AgentSpec: ["trace_level", "backend", "telemetry"],
    ClusterEngine: ["transport", "schedule", "checkpoint_every", "fault"],
    DonsManager: ["trace_level", "transport", "checkpoint_every", "fault",
                  "telemetry"],
    DonsManager.run: ["partition"],
    DonsManager.run_dynamic: ["threshold"],
    EngineRunner: ["on_step"],
    CheckpointingEngine: ["store", "every_windows", "name"],
    ProcessTransport: ["slot_bytes"],
    LivePlane: ["path", "stream", "interval_ms", "flight_path"],
    ClusterWatchdog: [],
}


def optional(entry):
    return [p.name for p in inspect.signature(entry).parameters.values()
            if p.default is not inspect.Parameter.empty]


def test_each_entry_point_has_the_pinned_options():
    assert {entry: optional(entry) for entry in OPTIONS} == OPTIONS


def test_at_most_thirty_settable_values():
    assert sum(map(len, OPTIONS.values())) <= 30
