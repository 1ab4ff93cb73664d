"""Cluster-wide checkpointing (§8: "In multi-machine environments, DONS
utilizes checkpointing to periodically preserve the run-time state").

A cluster checkpoint is taken at a window boundary, where the FINISH
barrier guarantees a clean cut: every batch delivered, every agent
paused between windows.  It bundles one engine snapshot per
agent plus the runtime's cursor, partition and remaining migration
schedule.  Resuming on fresh agents continues the run and produces the
uninterrupted trace (tests/cluster/test_cluster_checkpoint.py).

``take_cluster_checkpoint`` takes a
:class:`~repro.cluster.runtime.ClusterEngine` on the ``LocalTransport``
(it reaches the in-process agents).  (The in-run recovery path — kill
one agent mid-simulation, restore it from its latest snapshot while
peers keep their state — lives in the runtime; see
:mod:`repro.cluster.fault`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .agent import AgentEngine
from .runtime import ClusterEngine, merge_results
from ..core.checkpoint import Checkpoint, restore_checkpoint, take_checkpoint
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import SimResults, TraceLevel
from ..scenario import Scenario

#: v2: ``agents`` holds whole engine checkpoints — each with its own
#: format tag and scenario name — where v1 held bare payload bytes.
FORMAT = "dons-cluster-checkpoint-v2"


@dataclass
class ClusterCheckpoint:
    """Resumable snapshot of a whole distributed run."""

    format: str
    scenario_name: str
    current_window: int
    partition: Tuple[int, ...]
    num_parts: int
    schedule: List[Tuple[int, Tuple[int, ...]]]
    #: One engine snapshot per agent; ``restore_checkpoint`` refuses
    #: one of another engine format or scenario.
    agents: List[Checkpoint]


def take_cluster_checkpoint(engine: ClusterEngine,
                            current_window: int) -> ClusterCheckpoint:
    """Snapshot a local ClusterEngine paused between windows."""
    agents = engine.agents
    partition = agents[0].partition
    return ClusterCheckpoint(
        format=FORMAT,
        scenario_name=agents[0].scenario.name,
        current_window=current_window,
        partition=partition.assignment,
        num_parts=partition.num_parts,
        schedule=[(w, p.assignment) for w, p in engine.schedule],
        agents=[take_checkpoint(agent, current_window) for agent in agents],
    )


def resume_cluster(
    scenario: Scenario,
    checkpoint: ClusterCheckpoint,
    trace_level: TraceLevel = TraceLevel.NONE,
) -> Tuple[SimResults, ClusterEngine]:
    """Rebuild fresh agents from a checkpoint and run to completion."""
    if checkpoint.format != FORMAT:
        raise ClusterError(f"unknown checkpoint format {checkpoint.format!r}")
    if checkpoint.scenario_name != scenario.name:
        raise ClusterError("checkpoint belongs to a different scenario")
    partition = Partition(checkpoint.partition, checkpoint.num_parts)
    agents = [
        AgentEngine(a, scenario, partition, trace_level)
        for a in range(checkpoint.num_parts)
    ]
    schedule = [
        (w, Partition(assignment, checkpoint.num_parts))
        for w, assignment in checkpoint.schedule
    ]
    engine = ClusterEngine.from_agents(agents, schedule=schedule)
    for agent, snapshot in zip(agents, checkpoint.agents):
        agent.build()
        restore_checkpoint(agent, snapshot)
    per_agent = engine.run_from(checkpoint.current_window)
    return merge_results(per_agent, scenario.name), engine
