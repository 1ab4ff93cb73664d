"""Distributed execution (§3.1, §4.2): agents, transports, the cluster
runtime, phase-boundary migration and checkpoint-based fault tolerance
(§8).

The Manager's job — Load Estimator plus Partitioner — is
:func:`repro.partition.plan_scenario`; execution has one constructor::

    plan = plan_scenario(scenario, cluster)
    engine = ClusterEngine(
        [AgentSpec(a, scenario, plan.partition, trace_level)
         for a in range(plan.partition.num_parts)],
        transport="shm")
    results = EngineRunner(engine).run()
"""

from .agent import AgentEngine, AgentSpec
from .transport import (
    AgentFailure, AgentReport, ClusterTrafficStats, LocalTransport,
    ProcessTransport, RPC_FRAME_BYTES, RPC_RECORD_BYTES, Transport,
    make_transport,
)
from .fault import FaultPlan, RecoveryStats
from .runtime import ClusterEngine
from .migration import MigrationStats, migrate
from ..metrics.results import merge_results

__all__ = [
    "AgentEngine", "AgentSpec", "ClusterTrafficStats",
    "RPC_FRAME_BYTES", "RPC_RECORD_BYTES",
    "AgentFailure", "AgentReport", "LocalTransport", "ProcessTransport",
    "Transport", "make_transport",
    "FaultPlan", "RecoveryStats",
    "ClusterEngine",
    "merge_results",
    "MigrationStats", "migrate",
]
