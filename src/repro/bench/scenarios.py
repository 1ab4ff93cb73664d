"""Scenario builders and scaling helpers shared by the benchmarks.

The paper's evaluation runs 1000 ms of simulated time on 100 Gbps
FatTrees up to 65k servers — billions of packet events.  The benches run
*scaled-down* packet simulations (smaller k, shorter horizon, capped
flow counts; every cap recorded in EXPERIMENTS.md) to measure the
quantities the models need (events per packet, cache miss rates, sync
statistics, load balance), then extrapolate event counts to paper scale
with the closed-form traffic arithmetic below.  Relative results are
preserved because every simulator family is extrapolated with the same
measured ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..metrics import SimResults
from ..protocols.packet import HEADER_BYTES, MSS
from ..scenario import Scenario, make_scenario
from ..topology import abilene, dumbbell, fattree, fattree_counts, geant, isp_wan
from ..traffic import TINY, Flow, Transport, full_mesh_dynamic
from ..units import GBPS, ms, us

#: Evaluation defaults (paper §6: 100 Gbps everywhere, DCTCP, full mesh).
PAPER_RATE = 100 * GBPS
PAPER_LOAD = 0.3
PAPER_DURATION_S = 1.0
LOOKAHEAD_S = 1e-6  # 1 us link delay = batch length


def scaled_l3_config():
    """Cache geometry used when replaying scaled-down runs.

    The benches run workloads orders of magnitude lighter than the
    paper's (fewer flows, shorter horizon), so their working sets are
    proportionally smaller; measuring them against a full 32 MB server
    L3 would hide the capacity behaviour the paper observes at scale.
    Standard scaled-simulation methodology: shrink the cache with the
    workload.  8 MB preserves the paper's regime — the OOD working set
    spills, the DOD columns fit.
    """
    from ..machine import CacheConfig
    from ..units import MIB
    return CacheConfig(size_bytes=8 * MIB)


def measure_cmr(model) -> float:
    """Steady-state miss-rate percentage of a recorded access model."""
    return model.measure(scaled_l3_config(), warmup=0.5).miss_rate_percent


def run_dons_probed(scenario: Scenario, probe,
                    trace_level=None) -> SimResults:
    """Run the DOD engine with a machine-model probe on the op stream.

    The probe subscribes to the engine's instrumentation bus
    (``eng.bus.subscribe_ops``, as it does on the OOD baseline's
    ``sim.bus``); the run itself goes through the shared
    :class:`~repro.core.runner.EngineRunner`.
    """
    from ..core import DodEngine
    from ..metrics import TraceLevel
    eng = DodEngine(scenario, trace_level or TraceLevel.NONE)
    eng.bus.subscribe_ops(probe)
    return eng.run()


def dcn_scenario(
    k: int,
    duration_ms: float = 1.0,
    load: float = PAPER_LOAD,
    rate_bps: int = 10 * GBPS,
    max_flows: Optional[int] = 600,
    seed: int = 2023,
    sizes=TINY,
) -> Scenario:
    """Scaled-down FatTree(k) full-mesh dynamic workload."""
    topo = fattree(k, rate_bps=rate_bps, delay_ps=us(1))
    flows = full_mesh_dynamic(
        topo.hosts, duration_ps=ms(duration_ms), load=load,
        host_rate_bps=rate_bps, sizes=sizes, seed=seed, max_flows=max_flows,
    )
    return make_scenario(topo, flows, name=f"FatTree{k}-mesh")


def wan_scenario(
    which: str,
    duration_ms: float = 1.0,
    load: float = 0.3,
    max_flows: Optional[int] = 400,
    seed: int = 2023,
) -> Scenario:
    """Abilene / GEANT full-mesh dynamic workload (Fig. 11e/f)."""
    topo = abilene() if which == "abilene" else geant()
    flows = full_mesh_dynamic(
        topo.hosts, duration_ps=ms(duration_ms), load=load,
        host_rate_bps=10 * GBPS, sizes=TINY, seed=seed, max_flows=max_flows,
    )
    return make_scenario(topo, flows, name=which)


def isp_scenario(
    scale: str = "bench",
    duration_ms: float = 2.0,
    max_flows: Optional[int] = 800,
    seed: int = 7,
):
    """The irregular ISP WAN of Tables 2/3.

    ``scale='bench'`` builds a ~2k-router instance for executable runs;
    ``scale='paper'`` builds the full ~13k-router topology (planning
    only — Table 3 measures partitioner wall-clock on it).  Traffic is
    Zipf-skewed over the servers: the paper's ISP serves home broadband
    and private lines, whose load is famously concentrated — the skew is
    what separates traffic-aware from traffic-blind partitioning.
    """
    from ..traffic.generators import zipf_weights
    if scale == "paper":
        topo = isp_wan(backbone_routers=120, provinces=30,
                       provincial_routers=60, metros_per_province=12,
                       metro_routers=28, servers_per_metro=1, seed=seed)
    else:
        topo = isp_wan(seed=seed)
    hosts = topo.hosts
    flows = full_mesh_dynamic(
        hosts, duration_ps=ms(duration_ms), load=0.5,
        host_rate_bps=10 * GBPS, sizes=TINY, seed=seed, max_flows=max_flows,
        host_weights=zipf_weights(len(hosts), alpha=1.2),
    )
    return topo, flows


def steady_state_scenario(
    n_pairs: int = 8,
    flow_bytes: int = 3_000_000,
    edge_rate_bps: int = 24 * GBPS,
) -> Scenario:
    """Heartbeat-style fixed-rate UDP traffic: the fast-forward regime.

    One paced UDP flow per source host across an overprovisioned
    dumbbell — periodic telemetry/heartbeat streams, the workload class
    "Supercharging Packet-level Network Simulation" (PAPERS.md) shows is
    dominated by *repeated* windows.  A 24 Gbps NIC serializes a 1500 B
    frame in exactly 500 ns — an integer number of frames per lookahead
    window at the 1 us link delay — so once the pipeline fills, every
    window's execution signature repeats and the memo cache
    (:mod:`repro.core.memo`) fast-forwards the run; the 400 Gbps
    bottleneck keeps the run drop-free (a drop would perturb the
    signature stream).  The benchmark's ``steady_udp_ffwd`` is this
    scenario; ``tools/perf_smoke.py`` holds the standing
    ``memo.ratio_ffwd_over_plain`` gate on its small sibling.
    """
    topo = dumbbell(n_pairs, edge_rate_bps=edge_rate_bps,
                    bottleneck_rate_bps=400 * GBPS, delay_ps=us(1))
    flows = [Flow(i, i, n_pairs + i, flow_bytes, 0, Transport.UDP)
             for i in range(n_pairs)]
    return make_scenario(topo, flows, name=f"steady-udp-{n_pairs}")


# --- full-scale extrapolation ------------------------------------------------


def full_mesh_packets(hosts: int, rate_bps: int = PAPER_RATE,
                      load: float = PAPER_LOAD,
                      duration_s: float = PAPER_DURATION_S) -> int:
    """Data packets a full-mesh workload generates at paper scale."""
    bits = hosts * rate_bps * load * duration_s
    return int(bits / (8 * (MSS + HEADER_BYTES)))


@dataclass(frozen=True)
class EventRatios:
    """Per-data-packet event multipliers measured from a scaled run."""

    events_per_packet: float     # all-system events per data packet
    bytes_per_packet: float      # wire bytes per data packet (incl. ACKs)

    @classmethod
    def measure(cls, results: SimResults) -> "EventRatios":
        packets = max(results.events.send, 1)
        return cls(
            events_per_packet=results.events.total / packets,
            bytes_per_packet=results.tx_bytes / packets,
        )


def fattree_full_events(k: int, ratios: EventRatios,
                        load: float = PAPER_LOAD,
                        duration_s: float = PAPER_DURATION_S) -> int:
    """Extrapolated total event count of FatTree(k) at paper scale."""
    hosts = fattree_counts(k)["hosts"]
    # Hop counts grow ~ log-ish with k; events/packet measured at small k
    # already includes the forwarding chain of that k.  Correct for the
    # extra tier traversals: intra-pod paths dominate equally, so scale
    # the forwarding share by the mean-hop ratio.
    packets = full_mesh_packets(hosts, load=load, duration_s=duration_s)
    return int(packets * ratios.events_per_packet)


def windows_at_paper_scale(duration_s: float = PAPER_DURATION_S) -> int:
    """Lookahead windows in a paper-scale run (1 us batches)."""
    return int(duration_s / LOOKAHEAD_S)
