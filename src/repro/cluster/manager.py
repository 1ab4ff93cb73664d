"""DONS Manager (§3.1, §4.2).

The Manager accepts a simulation submission, runs the Load Estimator and
Partitioner to produce the execution plan, and hands the execution to the
layered cluster stack:

* **transport** (:mod:`repro.cluster.transport`) — where agents live and
  how they exchange window batches and the FINISH barrier: in-process
  mailboxes (``LocalTransport``) or one ``multiprocessing`` worker per
  agent talking to its peers over shared-memory pair rings
  (``ProcessTransport``, GIL-free agent parallelism).
* **runtime** (:mod:`repro.cluster.runtime`) — :class:`ClusterEngine`,
  the distributed run as an ``Engine`` (one window per ``advance``),
  driven by the same :class:`~repro.core.runner.EngineRunner` as the
  single-machine engines.
* **fault** (:mod:`repro.cluster.fault`) — checkpoint-based coordinated
  rollback after an agent dies.

Correctness: the merged distributed trace equals the single-machine
trace under *every* transport
(tests/integration/test_transport_equivalence.py), because RPCs only
ever carry packets into future windows (link delay >= lookahead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .agent import AgentSpec
from .channel import ClusterTrafficStats
from .fault import FaultPlan, RecoveryStats
from .runtime import ClusterEngine, merge_results
from .transport import Transport
from ..core.instrument import InstrumentationBus
from ..core.runner import EngineRunner
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import SimResults, TraceLevel
from ..partition import (
    ClusterSpec,
    LoadModel,
    PartitionPlan,
    plan_scenario,
)
from ..scenario import Scenario

__all__ = ["DistributedRun", "DonsManager", "merge_results"]


@dataclass
class DistributedRun:
    """Everything a distributed execution produced."""

    results: SimResults
    per_agent: List[SimResults]
    traffic: ClusterTrafficStats
    plan: Optional[PartitionPlan]
    partition: Partition
    #: merged cluster-level instrumentation (per-agent timers tagged a<id>:)
    bus: Optional[InstrumentationBus] = None
    #: one entry per recovered agent failure
    recoveries: List[RecoveryStats] = field(default_factory=list)


class DonsManager:
    """Accepts a submission, plans it, and orchestrates the cluster."""

    def __init__(
        self,
        scenario: Scenario,
        cluster: ClusterSpec,
        trace_level: TraceLevel = TraceLevel.NONE,
        transport: Union[str, Transport, None] = "local",
        checkpoint_every: Optional[int] = None,
        fault: Optional[FaultPlan] = None,
        telemetry: bool = False,
        watchdog: Union[bool, None, object] = None,
    ) -> None:
        self.scenario = scenario
        self.cluster = cluster
        self.trace_level = trace_level
        self.transport = transport
        self.checkpoint_every = checkpoint_every
        self.fault = fault
        self.telemetry = telemetry
        self.watchdog = watchdog

    def _specs(self, partition: Partition) -> List[AgentSpec]:
        return [
            AgentSpec(a, self.scenario, partition, self.trace_level,
                      telemetry=self.telemetry)
            for a in range(partition.num_parts)
        ]

    def _engine(
        self,
        partition: Partition,
        schedule: Optional[List[Tuple[int, Partition]]] = None,
    ) -> ClusterEngine:
        from .transport import make_transport
        return ClusterEngine(
            self._specs(partition),
            transport=make_transport(self.transport),
            schedule=schedule,
            checkpoint_every=self.checkpoint_every,
            fault=self.fault,
            watchdog=self.watchdog,
        )

    def run(
        self,
        partition: Optional[Partition] = None,
        loads: Optional[LoadModel] = None,
        on_step=None,
    ) -> DistributedRun:
        """Plan (unless a partition is supplied) and execute.

        ``on_step`` is passed through to the
        :class:`~repro.core.runner.EngineRunner` (per-window progress
        callback)."""
        plan = None
        if partition is None:
            plan = plan_scenario(self.scenario, self.cluster, loads)
            partition = plan.partition
        if len(partition.assignment) != self.scenario.topology.num_nodes:
            raise ClusterError("partition does not match topology")
        engine = self._engine(partition)
        EngineRunner(engine, on_step=on_step).run()
        return DistributedRun(
            results=engine.results,
            per_agent=engine.per_agent,
            traffic=engine.stats,
            plan=plan,
            partition=partition,
            bus=engine.bus,
            recoveries=engine.recoveries,
        )

    def run_dynamic(
        self,
        bin_ps: int,
        threshold: float = 0.25,
        measured_times: Optional[List[float]] = None,
        measured_partition: Optional[Partition] = None,
    ) -> Tuple[DistributedRun, List]:
        """Appendix A end to end: detect traffic phases, partition each,
        and execute with live state migration at the phase boundaries.

        ``measured_times``/``measured_partition`` feed per-agent
        wall-clock from a previous run's merged bus
        (:func:`repro.partition.measured_machine_times`) back into the
        planner, refitting the cluster's compute capacities before the
        phases are partitioned.

        Returns ``(run, migrations)`` where ``migrations`` lists the
        :class:`~repro.cluster.migration.MigrationStats` of each
        repartitioning event.
        """
        from ..partition import dynamic_partition_plan
        phases = dynamic_partition_plan(
            self.scenario.topology, self.scenario.fib, self.scenario.flows,
            bin_ps, self.cluster, threshold,
            measured_times=measured_times,
            measured_partition=measured_partition,
        )
        if not phases:
            raise ClusterError("no phases detected")
        lookahead = self.scenario.lookahead_ps
        first = phases[0].plan.partition
        schedule = [
            (phase.start_bin * bin_ps // lookahead, phase.plan.partition)
            for phase in phases[1:]
        ]
        engine = self._engine(first, schedule=schedule)
        EngineRunner(engine).run()
        try:
            final_partition = engine.agents[0].partition
        except ClusterError:  # transport without in-process engines
            final_partition = first
        run = DistributedRun(
            results=engine.results,
            per_agent=engine.per_agent,
            traffic=engine.stats,
            plan=phases[0].plan,
            partition=final_partition,
            bus=engine.bus,
            recoveries=engine.recoveries,
        )
        return run, engine.migrations
