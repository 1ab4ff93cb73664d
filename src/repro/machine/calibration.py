"""Calibration constants of the machine model.

Per DESIGN.md, these few physical constants are calibrated once against
absolute anchors the paper reports, then held fixed across *every*
experiment — all relative results (who wins, by what factor, where
crossovers fall) come from measured event counts, measured load balance
and the cache model, not from per-experiment tuning.

Anchors used:

* Fig. 2b — ns-3, FatTree16, 32 processes: 132.5 GB (~4.1 GB per LP).
* §6.1 — ns-3/OMNeT++ max out a 128 GB server at FatTree32;
  DONS uses 12.6 GB for FatTree32 and fits FatTree48.
* §6.1 — OMNeT++ simulates FatTree16 x 1000 ms in ~7.8 h on an M1;
  DONS takes 22 min (21x).
* Table 1 — OMNeT++, FatTree64, 4 machines: 9 d 14 h; DQN 2 h 56 m.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import GIB, MIB


# --- memory model ---------------------------------------------------------
# OOD family (ns-3 / OMNeT++): solving the two FatTree anchors
#   1.376e6 * entry + 6144 * iface = 4.1 GB     (FatTree16 per LP)
#   77.6e6  * entry + 49152 * iface ~ 126 GB    (FatTree32, 128 GB server)
# gives entry ~ 1.4 KB and iface ~ 353 KB (NetDevice + default queues).
OOD_FIB_ENTRY_BYTES = 1_400
OOD_IFACE_BYTES = 353 * 1024
OOD_NODE_BYTES = 4 * 1024
OOD_BASE_BYTES = 64 * MIB

# DOD family: dense arrays. 16 B per FIB entry (next-hop sets), per-port
# buffer arenas, plus the component tables measured directly from the ECS.
DOD_FIB_ENTRY_BYTES = 16
DOD_IFACE_BUFFER_BYTES = 256 * 1024
DOD_NODE_BYTES = 256
DOD_BASE_BYTES = 256 * MIB

# --- time-cost model --------------------------------------------------------
# Base per-event cost on one core with a perfect cache, and the penalty
# per percentage point of L3 miss rate.  With ns-3's measured ~4.5% CMR
# this lands at ~1.8 us/event (0.55 M events/s, OMNeT++/ns-3 class), and
# with DONS's ~0.1% CMR at ~0.62 us/event — reproducing the single-core
# gap the paper attributes to data layout.
BASE_EVENT_NS = 600.0
CMR_PENALTY_PER_PERCENT = 0.45

# Thread-pool overheads of the DOD engine: per-window cost of one
# system barrier, and per-task dispatch cost.
DOD_BARRIER_NS = 8_000.0
DOD_TASK_DISPATCH_NS = 700.0

# A streaming columnar engine is DRAM-bandwidth-bound before it is
# core-bound: beyond ~this many concurrent sweeps the memory system
# saturates and extra cores only busy-wait (they still report as
# utilized to `top`, which reconciles the paper's 22x speedup with its
# 2634% CPU utilization on 32 cores).
DOD_MEM_PARALLEL_STREAMS = 10

# Per-lookahead-window synchronization of MPI-parallel OOD simulators:
# a null-message exchange + barrier across processes costs on the order
# of an inter-process RTT.  With 1 us lookahead windows this is what
# makes badly-scaled parallel ns-3 slower than serial (Fig. 3, Fig. 11).
MPI_WINDOW_SYNC_NS = 100_000.0

# Multi-LP (MPI-style) baseline: cost per synchronization round and per
# null/data message (marshalling + kernel crossing), on top of event
# processing.  These are what make badly-partitioned parallel ns-3
# slower than serial (Fig. 3).
LP_SYNC_ROUND_NS = 25_000.0
LP_MESSAGE_NS = 2_500.0

# Cluster (distributed DONS / OMNeT++): Eq. (1) parameters.
CLUSTER_LINK_BPS = 40_000_000_000        # 40 Gbps fabric (paper setup)
CLUSTER_RPC_NS = 15_000.0                # per-batch RPC overhead
CLUSTER_BARRIER_NS = 40_000.0            # FINISH-signal round per window

# DQN-style APA throughput: packets scored per second per GPU.  Solved
# from Table 1 (FatTree64 full-mesh at 0.3 load = 1.64e11 packets per
# simulated second; 4 GPUs finish in 2 h 56 m).
APA_PACKETS_PER_GPU_PER_S = 3.9e6
APA_SETUP_S = 120.0

# Cluster parallel efficiencies, calibrated against Table 1.
# OMNeT++: the two FatTree64 anchors (9d14h on 4 machines, 7d19h on 8)
# imply effective speedups of ~4.4 and ~5.3 over one core — per-core
# efficiency *falls* with cluster size as conservative-sync stalls grow:
#     eff(m) = OMNET_CLUSTER_EFF_BASE / m ** OMNET_CLUSTER_EFF_DECAY
# Distributed DONS runs near its single-machine streaming limit.
OMNET_CLUSTER_EFF_BASE = 0.09
OMNET_CLUSTER_EFF_DECAY = 0.65
DONS_CLUSTER_EFFICIENCY = 0.85


def omnet_cluster_efficiency(machines: int) -> float:
    """Per-core efficiency of distributed OMNeT++ on ``machines``."""
    return OMNET_CLUSTER_EFF_BASE / max(machines, 1) ** OMNET_CLUSTER_EFF_DECAY


@dataclass(frozen=True)
class MachineSpec:
    """A physical machine of the evaluation."""

    name: str
    cores: int
    mem_bytes: int
    l3_bytes: int
    #: relative per-core speed (1.0 = evaluation Xeon core)
    core_speed: float = 1.0



#: The paper's two platforms.
XEON_SERVER = MachineSpec("xeon-32c-128g", cores=32, mem_bytes=128 * GIB,
                          l3_bytes=32 * MIB, core_speed=1.0)
MACBOOK_M1 = MachineSpec("macbook-air-m1", cores=8, mem_bytes=8 * GIB,
                         l3_bytes=12 * MIB, core_speed=1.15)
