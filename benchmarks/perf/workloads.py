"""The four benchmark workloads, built only from public ``repro`` functions.

Every workload is a closed loop in one driver process: build the inputs
from ``--seed``, build an engine, ``advance()`` it to exhaustion,
``finalize()``.  The seed feeds the traffic generators only.  Engines
receive nothing but ``backend`` / ``ffwd`` (plus ``telemetry`` and a
trace level for the traced and digest runs), so consolidating the
engines' other options later cannot break the harness.

Each workload has a scaled-down sibling (``small=True``) that the
digest check and ``test_harness.py`` run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, Mapping, Optional

from repro.cluster.agent import AgentSpec
from repro.cluster.runtime import ClusterEngine
from repro.cluster.transport import make_transport
from repro.core.engine import DodEngine
from repro.des import OodSimulator
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel
from repro.rng import substream
from repro.routing import build_fib
from repro.scenario import Scenario, make_scenario
from repro.schedulers import SchedulerKind
from repro.topology import abilene, dumbbell, fattree
from repro.traffic import Flow, Transport, permutation
from repro.traffic.arrivals import ArrivalProcess, synthesize
from repro.units import GBPS, PS_PER_S, ms, us


class Steps:
    """Times each call into a layer from outside, by layer-metric name."""

    def __init__(self, tracer=None) -> None:
        self.seconds: Dict[str, float] = {}
        self.tracer = tracer

    def call(self, layer: str, fn: Callable, /, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self.seconds[layer] = self.seconds.get(layer, 0.0) + (t1 - t0)
        if self.tracer is not None:
            self.tracer.add(layer, t0, t1)
        return out


def _long_lived_dctcp(k: int, rounds: int, cut_us: int, seed: int,
                      steps: Steps) -> Scenario:
    """FatTree(k) at 2.5 Gb/s under ``rounds`` random permutations of
    DCTCP flows that outlive the run, cut after ``cut_us`` microseconds.

    Every host sends and receives ``rounds`` flows, so every access link
    is saturated whatever the seed, and the cut fixes the window count.
    That is what keeps events per second steady across seeds (1.5-3 %
    in simulated events): with ``fixed_flows`` run to completion the
    length of the straggler tail follows the seed's ECMP collisions and
    events per host second moved by 8 % (FatTree8) and 19 % (cluster).
    """
    topo = steps.call("topology.build_s", fattree, k,
                      rate_bps=5 * GBPS // 2)
    fib = steps.call("routing.fib_build_s", build_fib, topo)

    def flows():
        out = []
        for r in range(rounds):
            for flow in permutation(topo.hosts, 50_000_000,
                                    seed=seed * 64 + r):
                out.append(replace(flow, flow_id=len(out)))
        return out

    flows = steps.call("traffic.synth_s", flows)
    return steps.call("scenario.make_s", make_scenario, topo, flows,
                      name=f"FatTree{k}-dctcp", duration_ps=us(cut_us),
                      fib=fib)


def _dcn_inputs(seed: int, small: bool, steps: Steps) -> Scenario:
    if small:
        return _long_lived_dctcp(4, 4, 1500, seed, steps)
    return _long_lived_dctcp(8, 4, 1600, seed, steps)


def _steady_inputs(seed: int, small: bool, steps: Steps) -> Scenario:
    """``repro.bench.scenarios.steady_state_scenario`` with the seed
    choosing which receiver each sender is paired with.  Every pairing
    crosses the same two switches, so the event total and the memo
    hit/miss/validate counts are the same for every seed."""
    n_pairs = 8
    flow_bytes = 3_000_000 if small else 24_000_000
    topo = steps.call("topology.build_s", dumbbell, n_pairs,
                      edge_rate_bps=24 * GBPS,
                      bottleneck_rate_bps=400 * GBPS, delay_ps=us(1))
    fib = steps.call("routing.fib_build_s", build_fib, topo)

    def paired_flows():
        perm = substream(seed, 0xB7).permutation(n_pairs)
        return [Flow(i, i, n_pairs + int(perm[i]), flow_bytes, 0,
                     Transport.UDP) for i in range(n_pairs)]

    flows = steps.call("traffic.synth_s", paired_flows)
    return steps.call("scenario.make_s", make_scenario, topo, flows,
                      name=f"steady-udp-{n_pairs}", fib=fib)


def wan_processes(hosts, n_flows: int):
    """The two UDP classes of ``repro.bench.workloads.wan_twin_smoke``:
    a paced EF stream (a fifth of the flows) and bursty on-off BE."""
    horizon = ms(1.0)
    ef_cap = max(1, n_flows // 5)
    be_cap = n_flows - ef_cap
    common = dict(src_hosts=hosts, dst_hosts=hosts, horizon_ps=horizon,
                  transport=Transport.UDP, src_alpha=1.1, dst_alpha=0.8)
    return [
        ArrivalProcess(kind="periodic", period_ps=max(1, horizon // ef_cap),
                       size_bytes=512, priority_mix=(1.0, 0.0),
                       max_flows=ef_cap, label="smoke-ef", **common),
        ArrivalProcess(kind="onoff",
                       rate_per_s=6.0 * be_cap / (horizon / PS_PER_S),
                       on_ps=horizon // 8, off_ps=horizon // 8,
                       size_bytes=1200, priority_mix=(0.0, 1.0),
                       max_flows=be_cap, label="smoke-be", **common),
    ]


def _wan_inputs(seed: int, small: bool, steps: Steps) -> Scenario:
    """``wan_twin_smoke`` step by step (so each layer is timed on its
    own), run to completion: every flow is done by 16 ms of simulated
    time, the cut sits at 60 ms."""
    topo = steps.call("topology.build_s", abilene)
    fib = steps.call("routing.fib_build_s", build_fib, topo)
    procs = wan_processes(topo.hosts, 5_000 if small else 35_000)
    flows = steps.call("traffic.synth_s", synthesize, procs, seed)
    return steps.call("scenario.make_s", make_scenario, topo, flows,
                      name="wan-twin", scheduler=SchedulerKind.SP,
                      num_classes=2, duration_ps=us(60_000), fib=fib)


def _cluster_inputs(seed: int, small: bool, steps: Steps) -> Scenario:
    return _long_lived_dctcp(4, 16, 1500 if small else 2400, seed, steps)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int, bool, Steps], Scenario]
    backend: str = "numpy"
    ffwd: bool = False
    #: Share of this workload's calibration taken from the NumPy half of
    #: the calibration slice (see estimator.py): 0.5 where the
    #: vectorized kernels do the work, 0 where the interpreter does
    #: (memo probes, ~30-event windows, python agents).
    numpy_weight: float = 0.0
    #: > 0: a ``ClusterEngine`` over the shm transport with this many
    #: agents (never more than 2: one process per core beyond the idle
    #: coordinator on the 2-vCPU sandbox).
    agents: int = 0
    #: seed -> exact simulated event total at full size, for the seeds
    #: 1-12.  A run whose total differs is a failed operation, never a
    #: speed-up; other seeds are held by the OOD reference alone.
    pinned_events: Mapping[int, int] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "dcn_fattree8_dctcp",
        "512 long-lived DCTCP flows saturating FatTree8: transmit/egress "
        "replay and the send/ack state machine do the work; memo and "
        "cluster idle",
        _dcn_inputs, numpy_weight=0.5,
        pinned_events={1: 637392, 2: 645717, 3: 646909, 4: 629617,
                       5: 654239, 6: 638266, 7: 624135, 8: 628477,
                       9: 643433, 10: 631402, 11: 645759, 12: 645169},
    ),
    Workload(
        "steady_udp_ffwd",
        "paced UDP on a dumbbell with fast-forward on: the memo handles "
        ">99% of windows and the four systems almost none",
        _steady_inputs, ffwd=True,
        pinned_events={seed: 933352 for seed in range(1, 13)},
    ),
    Workload(
        "wan_twin_35k",
        "35,000 short UDP flows on Abilene run to completion: 11k sparse "
        "windows of ~31 events, so per-window fixed cost, flow starts and "
        "set-up dominate",
        _wan_inputs,
        pinned_events={1: 351146, 2: 352058, 3: 352066, 4: 352278,
                       5: 352440, 6: 352308, 7: 351302, 8: 351940,
                       9: 350302, 10: 352074, 11: 352136, 12: 350530},
    ),
    Workload(
        "cluster2_shm_fattree4",
        "2 process agents over shared-memory rings on FatTree4 DCTCP, ~50 "
        "events a window: agree/flush/serialize/barrier-wait outweigh "
        "agent compute",
        _cluster_inputs, backend="python", agents=2,
        pinned_events={1: 120499, 2: 118676, 3: 118614, 4: 121819,
                       5: 126077, 6: 122945, 7: 122309, 8: 122636,
                       9: 121613, 10: 118590, 11: 121221, 12: 123438},
    ),
)}


def make_engine(workload: Workload, scenario: Scenario, *,
                backend: Optional[str] = None, ffwd: Optional[bool] = None,
                agents: Optional[int] = None, telemetry: bool = False,
                trace_level: TraceLevel = TraceLevel.NONE):
    """The workload's engine, or a variant of it for the paired layer
    runs (other backend, memo off, serial instead of cluster)."""
    backend = workload.backend if backend is None else backend
    ffwd = workload.ffwd if ffwd is None else ffwd
    agents = workload.agents if agents is None else agents
    if agents:
        partition = contiguous_partition(scenario.topology, agents)
        specs = [AgentSpec(a, scenario, partition, trace_level=trace_level,
                           backend=backend, telemetry=telemetry)
                 for a in range(agents)]
        return ClusterEngine(specs, transport=make_transport("shm"))
    return DodEngine(scenario, trace_level, backend=backend, ffwd=ffwd,
                     telemetry=telemetry)


def make_reference(scenario: Scenario,
                   trace_level: TraceLevel = TraceLevel.NONE) -> OodSimulator:
    return OodSimulator(scenario, trace_level)


def fingerprint(results) -> str:
    """What every engine must agree on with the OOD reference: the four
    event counts, drops, marks, tx_bytes, every flow's start and
    completion time, and every RTT sample (the long-lived DCTCP flows
    never complete; their ACK clock is what tells two runs apart).
    ``end_time_ps`` is left out — the engines legitimately differ there
    (window end vs last event)."""
    ev = results.events
    h = hashlib.sha256(repr((ev.send, ev.forward, ev.transmit, ev.ack,
                             results.drops, results.marks,
                             results.tx_bytes)).encode())
    flows = results.flows
    for flow_id in sorted(flows):
        fr = flows[flow_id]
        h.update(repr((flow_id, fr.start_ps, fr.complete_ps)).encode())
    h.update(repr(results.rtt_samples).encode())
    return h.hexdigest()
