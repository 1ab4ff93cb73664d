"""The time-cost model of §4.1 (Eq. 1-2).

    T_a = E_a / P_a + tau_a / B_a          (per machine a)
    T   = max over machines of T_a         (completion estimate)

E_a is the computation load assigned to machine a (sum of estimated
device loads), P_a its computation capacity, tau_a its outgoing cut
traffic, B_a its NIC bandwidth.  The paper's claim to novelty is that
both the *traffic pattern* (through the Load Estimator) and the
*computation capacity* of heterogeneous servers enter the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .loadest import LoadModel
from ..des.partition_types import Partition
from ..errors import PartitionError
from ..topology import Topology


@dataclass(frozen=True)
class ClusterSpec:
    """Capacities of the machines available for distributed execution.

    Attributes:
        compute: events-equivalent load units each machine retires per
            second (heterogeneous clusters use different values).
        bandwidth_bps: NIC bandwidth of each machine.
    """

    compute: Sequence[float]
    bandwidth_bps: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.compute) != len(self.bandwidth_bps):
            raise PartitionError("compute/bandwidth length mismatch")
        if not self.compute:
            raise PartitionError("cluster has no machines")
        if min(self.compute) <= 0 or min(self.bandwidth_bps) <= 0:
            raise PartitionError("capacities must be positive")

    @property
    def num_machines(self) -> int:
        return len(self.compute)

    @classmethod
    def homogeneous(cls, n: int, compute: float = 1e9,
                    bandwidth_bps: float = 40e9) -> "ClusterSpec":
        return cls([compute] * n, [bandwidth_bps] * n)


def _part_loads(
    topo: Topology,
    partition: Partition,
    loads: LoadModel,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. (1)'s per-machine sums ``(E_a, tau_a)``: each part's node
    loads and the load of its cut links.  The one copy both
    :func:`machine_times` and :func:`refit_cluster_spec` read."""
    compute = np.zeros(partition.num_parts)
    egress = np.zeros(partition.num_parts)
    for node in range(topo.num_nodes):
        compute[partition.part_of(node)] += loads.node_load[node]
    for link in topo.links:
        pa = partition.part_of(link.node_a)
        pb = partition.part_of(link.node_b)
        if pa != pb:
            # Full-duplex traffic leaves both machines.
            egress[pa] += loads.link_load[link.link_id]
            egress[pb] += loads.link_load[link.link_id]
    return compute, egress


def machine_times(
    topo: Topology,
    partition: Partition,
    loads: LoadModel,
    cluster: ClusterSpec,
) -> List[float]:
    """Eq. (1) for every machine; parts beyond the cluster size are illegal."""
    if partition.num_parts > cluster.num_machines:
        raise PartitionError(
            f"{partition.num_parts} parts but only "
            f"{cluster.num_machines} machines"
        )
    compute, egress = _part_loads(topo, partition, loads)
    return [
        compute[a] / cluster.compute[a]
        + egress[a] * 8.0 / cluster.bandwidth_bps[a]
        for a in range(partition.num_parts)
    ]


def completion_time(
    topo: Topology,
    partition: Partition,
    loads: LoadModel,
    cluster: ClusterSpec,
) -> float:
    """Eq. (2): the estimated simulation completion time."""
    return max(machine_times(topo, partition, loads, cluster))


def refit_cluster_spec(
    cluster: ClusterSpec,
    topo: Topology,
    partition: Partition,
    loads: LoadModel,
    measured_times: Sequence[float],
) -> ClusterSpec:
    """Refit compute capacities so Eq. (1) reproduces measured times.

    Inverting Eq. (1) per machine: P_a = E_a / max(T_a - tau_a*8/B_a,
    eps), where T_a is the *measured* per-agent busy time of a previous
    run under ``partition`` — a cluster run's busy series,
    ``run_record(bus)["agents_busy_s"]``
    (:func:`repro.metrics.timeline.run_record`), CPU seconds outside
    barrier waits.  Machines whose measured time is zero (or that hosted
    no load) keep their configured capacity.  The result feeds the next
    planning round — heterogeneity is now observed, not configured.
    """
    if len(measured_times) < partition.num_parts:
        raise PartitionError(
            f"{partition.num_parts} parts but only "
            f"{len(measured_times)} measured times"
        )
    compute, egress = _part_loads(topo, partition, loads)
    new_compute = list(cluster.compute)
    for a in range(partition.num_parts):
        comm_s = egress[a] * 8.0 / cluster.bandwidth_bps[a]
        compute_s = measured_times[a] - comm_s
        if compute_s > 0 and compute[a] > 0:
            new_compute[a] = compute[a] / compute_s
    return ClusterSpec(new_compute, list(cluster.bandwidth_bps))


def subnet_time(
    nodes: Sequence[int],
    loads: LoadModel,
    topo: Topology,
    compute: float,
    bandwidth_bps: float,
    external_links: Sequence[int] = (),
) -> float:
    """Eq. (1) for a candidate sub-graph on one machine — what
    Algorithm 1 compares at each recursion step.  It sums the same terms
    as :func:`_part_loads` for one candidate, so a change to Eq. (1)'s
    accumulation (ROADMAP item 2) must change both in step."""
    e = float(sum(loads.node_load[n] for n in nodes))
    tau = float(sum(loads.link_load[l] for l in external_links))
    return e / compute + tau * 8.0 / bandwidth_bps
