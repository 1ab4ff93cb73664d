"""repro — a Python reproduction of DONS (SIGCOMM 2023).

DONS is a packet-level discrete event network simulator rebuilt around
Data-Oriented Design: an ECS engine whose four systems (ACK, Send,
Forward, Transmit) process whole lookahead batches data-parallel, plus
an automatic time-cost-model partitioner for clusters.

Quickstart::

    from repro import (dumbbell, Flow, Transport, make_scenario,
                       run_dons, run_baseline)

    topo = dumbbell(4)
    flows = [Flow(i, i, 4 + i, 150_000, 0, Transport.DCTCP)
             for i in range(4)]
    scenario = make_scenario(topo, flows)
    results = run_dons(scenario)          # the DOD engine
    reference = run_baseline(scenario)    # the OOD baseline
    assert results.fcts_ps() == reference.fcts_ps()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from .scenario import Scenario, make_scenario
from .scenario_io import scenario_from_json, scenario_to_json
from .topology import (
    Topology, abilene, dumbbell, fattree, fattree_counts, geant, isp_wan,
)
from .traffic import (
    Flow, Transport, fixed_flows, full_mesh_dynamic, incast, permutation,
)
from .des import (
    OodSimulator, ParallelOodSimulator, Partition, random_partition,
    run_baseline,
)
from .core import DodEngine, run_dons
from .cts import FluidSimulator, run_fluid
from .cluster import ClusterEngine
from .partition import ClusterSpec, dons_partition, plan_scenario
from .metrics import SimResults, TraceLevel, normalized_w1, wasserstein_1d

__version__ = "1.0.0"

__all__ = [
    "Scenario", "make_scenario",
    "scenario_from_json", "scenario_to_json",
    "Topology", "abilene", "dumbbell", "fattree", "fattree_counts",
    "geant", "isp_wan",
    "Flow", "Transport", "fixed_flows", "full_mesh_dynamic", "incast",
    "permutation",
    "OodSimulator", "ParallelOodSimulator", "Partition",
    "random_partition", "run_baseline",
    "DodEngine", "run_dons",
    "FluidSimulator", "run_fluid",
    "ClusterEngine",
    "ClusterSpec", "dons_partition", "plan_scenario",
    "SimResults", "TraceLevel", "normalized_w1", "wasserstein_1d",
    "__version__",
]
