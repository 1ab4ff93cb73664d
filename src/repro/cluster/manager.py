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
  single-machine engines.  A finished engine is what a run returns:
  merged and per-agent results, traffic ``stats``, the cluster bus,
  recoveries, migrations, the ``plan`` and the ``partition`` the agents
  ended under.
* **fault** (:mod:`repro.cluster.fault`) — checkpoint-based coordinated
  rollback after an agent dies.
* **migration** (:mod:`repro.cluster.migration`) — the phase boundaries
  of :meth:`DonsManager.run_dynamic`: a coordinated snapshot, rewritten
  for the next phase's partition and restored, on either transport.

Correctness: the merged distributed trace equals the single-machine
trace under *every* transport
(tests/integration/test_transport_equivalence.py), because RPCs only
ever carry packets into future windows (link delay >= lookahead).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .agent import AgentSpec
from .fault import FaultPlan
from .runtime import ClusterEngine
from .transport import Transport
from ..core.runner import EngineRunner
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import TraceLevel
from ..metrics.results import merge_results
from ..partition import ClusterSpec, plan_scenario
from ..scenario import Scenario

__all__ = ["DonsManager", "merge_results"]


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
    ) -> None:
        self.scenario = scenario
        self.cluster = cluster
        self.trace_level = trace_level
        self.transport = transport
        self.checkpoint_every = checkpoint_every
        self.fault = fault
        self.telemetry = telemetry

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
        return ClusterEngine(
            self._specs(partition),
            transport=self.transport,
            schedule=schedule,
            checkpoint_every=self.checkpoint_every,
            fault=self.fault,
        )

    def run(self, partition: Optional[Partition] = None) -> ClusterEngine:
        """Plan (unless a partition is supplied), execute, and return
        the finished engine."""
        plan = None
        if partition is None:
            plan = plan_scenario(self.scenario, self.cluster)
            partition = plan.partition
        engine = self._engine(partition)
        engine.plan = plan
        EngineRunner(engine).run()
        return engine

    def run_dynamic(
        self,
        bin_ps: int,
        threshold: float = 0.25,
    ) -> ClusterEngine:
        """Appendix A end to end: detect traffic phases, partition each,
        and execute with live state migration at the phase boundaries.

        To plan for the machines as a previous run measured them, refit
        the cluster first (:func:`repro.partition.refit_cluster_spec`
        over that run's ``agents_busy_s``) and hand the result in as
        ``cluster``.

        Returns the finished engine: its ``plan`` is the first phase's,
        its ``partition`` the last phase's, and its ``migrations`` list
        the :class:`~repro.cluster.migration.MigrationStats` of each
        repartitioning event.
        """
        from ..partition import dynamic_partition_plan
        phases = dynamic_partition_plan(
            self.scenario.topology, self.scenario.fib, self.scenario.flows,
            bin_ps, self.cluster, threshold,
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
        engine.plan = phases[0].plan
        EngineRunner(engine).run()
        return engine
