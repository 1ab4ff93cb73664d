"""Automatic partitioning (§4.1, Appendices A/B): load estimator,
time-cost model, weighted MBC, Algorithm 1, and the baselines."""

from .loadest import LoadModel, estimate_loads, estimate_scenario_loads, time_binned_loads
from .timecost import (
    ClusterSpec, completion_time, machine_times, refit_cluster_spec,
    subnet_time,
)
from .mbc import cut_weight, mbc_bisect
from .partitioner import (
    PartitionPlan, assign_to_machines, dons_partition, plan_scenario,
)
from .baselines import (
    balanced_cut, balanced_cut_plan, cfp_partition, cfp_plan,
)
from .dynamic import Phase, detect_phase_boundaries, dynamic_partition_plan

__all__ = [
    "LoadModel", "estimate_loads", "estimate_scenario_loads",
    "time_binned_loads",
    "ClusterSpec", "completion_time", "machine_times",
    "refit_cluster_spec", "subnet_time",
    "cut_weight", "mbc_bisect",
    "PartitionPlan", "assign_to_machines", "dons_partition", "plan_scenario",
    "balanced_cut", "balanced_cut_plan", "cfp_partition", "cfp_plan",
    "Phase", "detect_phase_boundaries", "dynamic_partition_plan",
]
