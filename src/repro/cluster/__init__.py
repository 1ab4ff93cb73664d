"""Distributed execution: Manager, Agents, transports, cluster runtime
(§3.1, §4.2) and checkpoint-based fault tolerance (§8)."""

from .agent import AgentEngine, AgentSpec
from .transport import (
    AgentFailure, AgentReport, ClusterTrafficStats, LocalTransport,
    ProcessTransport, RPC_FRAME_BYTES, RPC_RECORD_BYTES, Transport,
    make_transport,
)
from .fault import FaultPlan, RecoveryStats
from .runtime import ClusterEngine
from .manager import DonsManager
from .migration import MigrationStats, migrate
from .checkpoint import (
    ClusterCheckpoint, resume_cluster, take_cluster_checkpoint,
)
from ..metrics.results import merge_results

__all__ = [
    "AgentEngine", "AgentSpec", "ClusterTrafficStats",
    "RPC_FRAME_BYTES", "RPC_RECORD_BYTES",
    "AgentFailure", "AgentReport", "LocalTransport", "ProcessTransport",
    "Transport", "make_transport",
    "FaultPlan", "RecoveryStats",
    "ClusterEngine", "DonsManager",
    "merge_results",
    "MigrationStats", "migrate",
    "ClusterCheckpoint", "resume_cluster", "take_cluster_checkpoint",
]
