"""Benchmark harness: scenario builders, scaling helpers, table output."""

from .naive_order import NaiveOrderEngine
from .tables import emit, format_table, out_dir
from .scenarios import (
    EventRatios, LOOKAHEAD_S, PAPER_DURATION_S, PAPER_LOAD, PAPER_RATE,
    dcn_scenario, fattree_full_events, full_mesh_packets, isp_scenario,
    measure_cmr, run_dons_probed, scaled_l3_config, wan_scenario,
    windows_at_paper_scale,
)
from .workloads import (
    storage_scenario, wan_twin_scenario, wan_twin_smoke,
)

__all__ = [
    "emit", "format_table", "out_dir", "NaiveOrderEngine",
    "EventRatios", "LOOKAHEAD_S", "PAPER_DURATION_S", "PAPER_LOAD",
    "PAPER_RATE", "dcn_scenario", "fattree_full_events",
    "full_mesh_packets", "isp_scenario", "measure_cmr",
    "run_dons_probed", "scaled_l3_config", "storage_scenario",
    "wan_scenario", "wan_twin_scenario", "wan_twin_smoke",
    "windows_at_paper_scale",
]
