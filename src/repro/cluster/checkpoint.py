"""Cluster-wide checkpointing (§8: "In multi-machine environments, DONS
utilizes checkpointing to periodically preserve the run-time state").

A cluster checkpoint is taken at a window boundary, where the FINISH
barrier guarantees a clean cut: every batch delivered, every agent
paused between windows.  It holds what
:meth:`~repro.cluster.transport.Transport.snapshot_all` returns — one
engine checkpoint per agent, whose bus state carries the agent's
traffic counters — with the runtime's cursor, the count of windows
reported so far, the partition and the remaining migration schedule.
It has no format tag or scenario name of its own: each engine
checkpoint inside carries both, and ``resume_cluster`` checks every one
with :func:`~repro.core.checkpoint.check_checkpoint` before it builds a
cluster.

``take_cluster_checkpoint`` takes a
:class:`~repro.cluster.runtime.ClusterEngine` on the ``LocalTransport``;
the agents of a ``ProcessTransport`` run ahead of the coordinator's
cursor, so it is refused.  The partition stored is the one the agents
run under now.  ``resume_cluster`` builds a cluster from the
checkpoint's partition and restores it through
:meth:`~repro.cluster.transport.Transport.restore_all` — the call an
in-run recovery and a phase boundary make — so the resumed run reports
the uninterrupted run's trace, traffic and window count
(tests/cluster/test_cluster_checkpoint.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .agent import AgentSpec
from .runtime import ClusterEngine
from .transport import ProcessTransport
from ..core.checkpoint import Checkpoint, check_checkpoint
from ..core.runner import EngineRunner
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import SimResults, TraceLevel
from ..scenario import Scenario

@dataclass
class ClusterCheckpoint:
    """Resumable snapshot of a whole distributed run."""

    current_window: int
    partition: Tuple[int, ...]
    num_parts: int
    schedule: List[Tuple[int, Tuple[int, ...]]]
    #: One engine checkpoint per agent, each with its format tag and
    #: scenario name.
    snapshot: List[Checkpoint]
    #: Windows the run had reported when the checkpoint was taken.
    windows: int


def take_cluster_checkpoint(engine: ClusterEngine,
                            current_window: int) -> ClusterCheckpoint:
    """Snapshot a local ClusterEngine paused between windows."""
    if isinstance(engine.transport, ProcessTransport):
        raise ClusterError(
            "cluster checkpoints need in-process engines: the agents of a "
            "ProcessTransport run ahead of the coordinator's cursor")
    partition = engine.specs[0].partition
    return ClusterCheckpoint(
        current_window=current_window,
        partition=partition.assignment,
        num_parts=partition.num_parts,
        schedule=[(w, p.assignment) for w, p in engine.schedule],
        snapshot=engine.transport.snapshot_all(current_window),
        windows=engine.progress()["windows"],
    )


def resume_cluster(
    scenario: Scenario,
    checkpoint: ClusterCheckpoint,
    trace_level: TraceLevel = TraceLevel.NONE,
) -> Tuple[SimResults, ClusterEngine]:
    """Build a cluster from a checkpoint, restore it and run it to
    completion; returns the merged results and the engine.  A
    checkpoint of another engine format or scenario is refused before
    any agent is made."""
    for snapshot in checkpoint.snapshot:
        check_checkpoint(snapshot, scenario.name)
    partition = Partition(checkpoint.partition, checkpoint.num_parts)
    specs = [AgentSpec(a, scenario, partition, trace_level)
             for a in range(checkpoint.num_parts)]
    schedule = [
        (w, Partition(assignment, checkpoint.num_parts))
        for w, assignment in checkpoint.schedule
    ]
    engine = ClusterEngine(specs, schedule=schedule)
    engine.resume(checkpoint.snapshot, checkpoint.current_window,
                  checkpoint.windows)
    return EngineRunner(engine).run(), engine
