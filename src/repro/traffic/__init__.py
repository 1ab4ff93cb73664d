"""Traffic: flows, size distributions, generators, arrival processes."""

from .flow import Flow, Transport
from .distributions import (
    DISTRIBUTIONS, EmpiricalSize, FB_CACHE, TINY, WEB_SEARCH,
)
from .generators import fixed_flows, full_mesh_dynamic, incast, permutation
from .arrivals import (
    ARRIVAL_KINDS, ArrivalProcess, FlowColumns, INTERARRIVAL_CDFS,
    synthesize,
)

__all__ = [
    "Flow", "Transport",
    "DISTRIBUTIONS", "EmpiricalSize", "FB_CACHE", "TINY", "WEB_SEARCH",
    "fixed_flows", "full_mesh_dynamic", "incast", "permutation",
    "ARRIVAL_KINDS", "ArrivalProcess", "FlowColumns", "INTERARRIVAL_CDFS",
    "synthesize",
]
