"""Dynamic partitioning (Appendix A).

The traffic pattern of a long simulation can shift; a static partition
then goes stale.  Appendix A's scheme: record the normalized average
device load per period as a vector; when the Wasserstein distance
between consecutive vectors exceeds a threshold, the traffic pattern has
changed and a new simulation phase begins.  Each phase is partitioned
independently, and the phases after the first become a
:class:`~repro.cluster.runtime.ClusterEngine` migration ``schedule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .loadest import LoadModel, time_binned_loads
from .partitioner import PartitionPlan, dons_partition
from .timecost import ClusterSpec
from ..metrics.wasserstein import load_vector_distance
from ..routing import Fib
from ..topology import Topology
from ..traffic import Flow


@dataclass
class Phase:
    """A maximal run of periods with a stable traffic pattern."""

    start_bin: int
    end_bin: int  # exclusive
    loads: LoadModel
    plan: PartitionPlan


def detect_phase_boundaries(
    load_vectors: Sequence[np.ndarray],
    threshold: float = 0.25,
) -> List[int]:
    """Indices i where pattern(i-1) -> pattern(i) changed drastically.

    ``load_vectors`` are per-period device-load vectors; the comparison
    uses the normalized Wasserstein distance of Appendix A.
    """
    boundaries: List[int] = []
    for i in range(1, len(load_vectors)):
        if load_vector_distance(load_vectors[i - 1], load_vectors[i]) > threshold:
            boundaries.append(i)
    return boundaries


def _merge_loads(models: Sequence[LoadModel]) -> LoadModel:
    node = np.sum([m.node_load for m in models], axis=0)
    link = np.sum([m.link_load for m in models], axis=0)
    return LoadModel(node, link)


def dynamic_partition_plan(
    topo: Topology,
    fib: Fib,
    flows: Sequence[Flow],
    bin_ps: int,
    cluster: ClusterSpec,
    threshold: float = 0.25,
) -> List[Phase]:
    """The full Appendix A pipeline: bin loads, detect phase changes,
    partition each phase as a separate simulation task.

    ``cluster`` may be a spec refitted to a previous run's measured
    per-agent busy seconds (:func:`~repro.partition.refit_cluster_spec`),
    so the phases are planned for the machines as they performed.
    """
    binned = time_binned_loads(topo, fib, flows, bin_ps)
    if not binned:
        raise ValueError("no load bins")
    vectors = [m.node_load for m in binned]
    boundaries = detect_phase_boundaries(vectors, threshold)
    edges = [0] + boundaries + [len(binned)]
    phases: List[Phase] = []
    for start, end in zip(edges, edges[1:]):
        if start >= end:
            continue
        loads = _merge_loads(binned[start:end])
        plan = dons_partition(topo, loads, cluster)
        phases.append(Phase(start, end, loads, plan))
    return phases
