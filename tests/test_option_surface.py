"""The settable values of the public entry points, and the CLI's
subcommands and flags, pinned.

Every optional parameter of an engine, the cluster stack or the live
plane is listed here with its entry point, and every flag with its
subcommand, so adding a knob — or keeping one that only a test sets —
is a reviewed diff of this file.  An option earns its place by a caller
outside ``tests/``: a workload, a bench, an example or the CLI.
"""

import argparse
import inspect

from repro.cli import make_parser
from repro.cluster import AgentSpec, ClusterEngine, ProcessTransport
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
    EngineRunner: ["on_step"],
    CheckpointingEngine: ["store", "every_windows", "name"],
    ProcessTransport: [],
    LivePlane: ["path"],
    ClusterWatchdog: [],
}

#: The flags of every subcommand that builds a scenario.
SCENARIO_FLAGS = ["--topology", "--flows", "--scheduler", "--classes",
                  "--buffer-kb", "--save", "--load"]

#: CLI subcommand -> its flags, in parser order.
COMMANDS = {
    "run": [*SCENARIO_FLAGS, "--engine"],
    "compare": SCENARIO_FLAGS,
    "profile": [*SCENARIO_FLAGS, "--json", "--out", "--all-windows",
                "--tail", "--cluster", "--transport", "--timeline",
                "--ffwd", "--progress", "--live"],
    "plan": [*SCENARIO_FLAGS, "--machines"],
    "viz": [*SCENARIO_FLAGS, "--out-dir"],
    "fuzz": ["--seed", "--runs", "--shrink", "--oracles", "--artifact-dir",
             "--replay", "--progress"],
}


def optional(entry):
    return [p.name for p in inspect.signature(entry).parameters.values()
            if p.default is not inspect.Parameter.empty]


def test_each_entry_point_has_the_pinned_options():
    assert {entry: optional(entry) for entry in OPTIONS} == OPTIONS


def test_settable_value_count_is_bounded():
    assert sum(map(len, OPTIONS.values())) <= 19


def test_each_subcommand_has_the_pinned_flags():
    sub = next(action for action in make_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert {name: [a.option_strings[-1] for a in parser._actions
                   if a.option_strings and a.dest != "help"]
            for name, parser in sub.choices.items()} == COMMANDS
