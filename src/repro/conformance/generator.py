"""Seeded scenario generation and deterministic shrinking.

A :class:`ScenarioSpec` is the *recipe* for one conformance scenario: a
small, JSON-serializable point in the parameter space (topology family x
size, traffic mix, protocol set, scheduling discipline, AQM, buffer,
link-delay profile — which sets the lookahead — and duration).  The spec,
not the built :class:`~repro.scenario.Scenario`, is what the fuzz loop
stores, shrinks, and checks into the regression corpus, because a spec
is tiny, diffable, and rebuilds the same scenario bit-for-bit on any
machine (all randomness flows through :func:`repro.rng.substream`).

Shrinking is deterministic and greedy: :func:`shrink_candidates` yields
strictly-simpler variants of a failing spec (fewer flows, smaller
topology, plainer protocol/scheduler configuration, ...) in a fixed
order; :func:`shrink` keeps the first variant that still fails and
repeats to a fixpoint, converging on a minimal reproduction — the
distribution-study lesson that ordering bugs found on adversarial
topologies should be reported on the smallest one that shows them.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, get_type_hints,
)

from ..errors import ConfigError
from ..protocols import AqmConfig, AqmKind
from ..rng import substream
from ..scenario import Scenario, make_scenario
from ..schedulers import SchedulerKind
from ..topology import Topology, dumbbell, fattree, leaf_spine
from ..traffic import (
    Flow, Transport, fixed_flows, full_mesh_dynamic, incast, permutation,
    TINY,
)
from ..units import GBPS, us

#: Spec format tag for corpus files and repro artifacts.
FORMAT = "repro-conformance-spec-v1"

TOPOLOGY_FAMILIES = ("dumbbell", "fattree", "leafspine", "hetero")
TRAFFIC_KINDS = ("fixed", "mesh", "incast", "permutation", "steady",
                 "wan_twin", "storage")
#: Arrival-process kinds the columnar traffic kinds draw from (the
#: ``arrival`` spec dimension; ignored by the per-flow kinds).
ARRIVALS = ("poisson", "onoff", "periodic", "empirical")
TRANSPORT_MIXES = ("dctcp", "reno", "udp", "mixed")
SCHEDULERS = ("fifo", "sp", "rr", "drr")
AQMS = ("ecn", "red", "none")

_AQM_KINDS = {"ecn": AqmKind.ECN_THRESHOLD, "red": AqmKind.RED,
              "none": AqmKind.NONE}
_TRANSPORTS = {"dctcp": Transport.DCTCP, "reno": Transport.RENO,
               "udp": Transport.UDP}


@dataclass(frozen=True)
class ScenarioSpec:
    """One point in the conformance parameter space."""

    seed: int
    topology: str = "dumbbell"   # family, see TOPOLOGY_FAMILIES
    topo_arg: int = 2            # pairs / fat-tree K / leaves / node budget
    traffic: str = "fixed"       # see TRAFFIC_KINDS
    n_flows: int = 4
    flow_kb: int = 60            # per-flow size (fixed/incast/permutation)
    transport: str = "dctcp"     # see TRANSPORT_MIXES
    scheduler: str = "fifo"
    num_classes: int = 1
    aqm: str = "ecn"
    buffer_kb: int = 40
    delay_profile: str = "uniform"  # or "hetero": per-link delays differ
    delay_scale: int = 1            # base delay multiplier (sets lookahead)
    duration_us: Optional[int] = None
    load_pct: int = 40              # mesh offered load (percent)
    arrival: str = "poisson"        # columnar kinds only, see ARRIVALS

    # --- construction -----------------------------------------------------

    def build_topology(self) -> Topology:
        base = us(1) * self.delay_scale
        if self.topology == "dumbbell":
            bottleneck_delay = 3 * base if self.delay_profile == "hetero" else base
            if self.traffic == "steady":
                # Drop-free by construction: the bottleneck carries the
                # whole permutation at line rate, so paced UDP windows
                # become exactly periodic — the workload the
                # memoization/fast-forward cache exists for.
                bottleneck = 10 * GBPS * max(2, 2 * self.topo_arg)
            elif self.traffic in ("mesh", "wan_twin", "storage"):
                bottleneck = 10 * GBPS
            else:
                bottleneck = 2 * GBPS
            return dumbbell(
                max(1, self.topo_arg),
                edge_rate_bps=10 * GBPS,
                bottleneck_rate_bps=bottleneck,
                delay_ps=base,
                bottleneck_delay_ps=bottleneck_delay,
            )
        if self.topology == "fattree":
            return fattree(4, rate_bps=10 * GBPS, delay_ps=base)
        if self.topology == "leafspine":
            k = max(2, self.topo_arg)
            return leaf_spine(k, 2, 2, host_rate_bps=10 * GBPS,
                              fabric_rate_bps=10 * GBPS, delay_ps=base)
        if self.topology == "hetero":
            return self._hetero_topology(base)
        raise ConfigError(f"unknown topology family {self.topology!r}")

    def _hetero_topology(self, base: int) -> Topology:
        """A random switch chain with per-link delay jitter: the
        adversarial-lookahead family (every delay is still >= the
        minimum, so the LCC argument must hold — that is the point)."""
        rng = substream(self.seed, 0x70, self.topo_arg)
        topo = Topology(f"hetero{self.topo_arg}-{self.seed}")
        n_switches = max(2, min(4, self.topo_arg))
        switches = [topo.add_switch() for _ in range(n_switches)]
        for a, b in zip(switches, switches[1:]):
            jitter = int(rng.integers(1, 8))
            topo.add_link(a, b, 5 * GBPS, base * jitter)
        n_hosts = max(2, 2 * self.topo_arg)
        hosts = [topo.add_host() for _ in range(n_hosts)]
        for i, host in enumerate(hosts):
            sw = switches[int(rng.integers(0, n_switches))] \
                if self.delay_profile == "hetero" else switches[i % n_switches]
            jitter = int(rng.integers(1, 5))
            topo.add_link(host, sw, 10 * GBPS, base * jitter)
        return topo.freeze()

    def build_flows(self, topo: Topology):
        """The spec's traffic: a ``List[Flow]``, or a
        :class:`~repro.traffic.FlowColumns` for the columnar kinds
        (``wan_twin`` / ``storage``, which exercise the arrival-engine
        batch path the per-flow kinds never touch)."""
        hosts = topo.hosts
        size = self.flow_kb * 1000
        transport = _TRANSPORTS.get(self.transport, Transport.DCTCP)
        if self.traffic in ("wan_twin", "storage"):
            return self._columnar_flows(hosts, size)
        if self.traffic == "fixed":
            flows = fixed_flows(hosts, n_flows=self.n_flows, size_bytes=size,
                                transport=transport, stagger_ps=us(2),
                                seed=self.seed)
        elif self.traffic == "mesh":
            flows = full_mesh_dynamic(
                hosts, duration_ps=us(300), load=self.load_pct / 100.0,
                host_rate_bps=10 * GBPS, sizes=TINY, transport=transport,
                seed=self.seed, max_flows=self.n_flows,
            )
            if not flows:  # extreme-low-load corner: fall back to fixed
                flows = fixed_flows(hosts, n_flows=max(2, self.n_flows // 2),
                                    size_bytes=size, transport=transport,
                                    seed=self.seed)
        elif self.traffic == "incast":
            rng = substream(self.seed, 0x71)
            target = int(hosts[int(rng.integers(0, len(hosts)))])
            senders = [h for h in hosts if h != target]
            fan = max(2, min(len(senders), self.n_flows))
            flows = incast(target, senders[:fan], size_bytes=size,
                           transport=transport, stagger_ps=us(1))
        elif self.traffic == "permutation":
            flows = permutation(hosts, size_bytes=size, transport=transport,
                                seed=self.seed)
        elif self.traffic == "steady":
            # Steady-state: one paced UDP flow per source host (a
            # permutation, so no two flows share a sender NIC) with
            # staggered starts.  Combined with the boosted dumbbell
            # bottleneck this is drop-free and exactly periodic — the
            # regime where the window-signature cache gets hits, which
            # makes the ``dons-ffwd`` oracle (and the
            # ``stale_cache_delta`` drill) non-vacuous under fuzz.  The
            # flows grow with the lookahead so the periodic stretch
            # lasts for windows enough (whatever the delay scale) that
            # the cache also proves a cycle and jumps over some.
            base = permutation(hosts,
                               size_bytes=max(size,
                                              120_000 * self.delay_scale),
                               transport=Transport.UDP, seed=self.seed)
            flows = [
                Flow(flow_id=f.flow_id, src=f.src, dst=f.dst,
                     size_bytes=f.size_bytes, start_ps=us(2) * i,
                     transport=Transport.UDP)
                for i, f in enumerate(base)
            ]
        else:
            raise ConfigError(f"unknown traffic kind {self.traffic!r}")
        return self._mix(flows)

    #: Scaled-down WAN class table for conformance runs: the bench
    #: table's fb-cache BE flows are megabytes, which a fuzz scenario
    #: cannot afford; ``tiny`` keeps the DSCP structure at fuzz scale.
    _CONF_WAN_TABLE = (
        ("EF", Transport.UDP, "", 512, 0.15),
        ("AF", Transport.DCTCP, "tiny", 0, 0.35),
        ("BE", Transport.DCTCP, "tiny", 0, 0.50),
    )

    def _columnar_flows(self, hosts, size: int):
        """Arrival-engine traffic (wan_twin / storage) for this spec."""
        from ..bench.workloads import (
            storage_flow_columns, wan_twin_flow_columns,
        )
        if self.traffic == "wan_twin":
            arrival = self.arrival if self.arrival in (
                "onoff", "poisson", "empirical") else "poisson"
            return wan_twin_flow_columns(
                hosts, self.seed, horizon_ps=us(300),
                n_flows=max(2, self.n_flows),
                classes=min(max(1, self.num_classes), 3),
                load=self.load_pct / 100.0, arrival=arrival,
                table=self._CONF_WAN_TABLE,
            )
        arrival = self.arrival if self.arrival in (
            "poisson", "onoff", "periodic") else "poisson"
        return storage_flow_columns(
            hosts, self.seed, horizon_ps=us(300),
            blocks=max(1, self.n_flows // 3), block_bytes=size,
            arrival=arrival, pipeline_delay_ps=us(5),
            heartbeat_period_ps=us(60), report_period_ps=us(150),
            report_bytes=4096,
        )

    def _mix(self, flows: List[Flow]) -> List[Flow]:
        """Apply the transport mix and traffic-class assignment."""
        mixed = self.transport == "mixed"
        cycle = (Transport.DCTCP, Transport.RENO, Transport.UDP)
        out = []
        for i, f in enumerate(flows):
            out.append(Flow(
                flow_id=f.flow_id, src=f.src, dst=f.dst,
                size_bytes=f.size_bytes, start_ps=f.start_ps,
                transport=cycle[i % 3] if mixed else f.transport,
                priority=i % self.num_classes if self.num_classes > 1 else 0,
            ))
        return out

    def scenario_name(self) -> str:
        return (f"conf-{self.topology}{self.topo_arg}-{self.traffic}"
                f"-s{self.seed}")

    def build(self) -> Scenario:
        """Materialize the scenario this spec describes (deterministic)."""
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.aqm not in AQMS:
            raise ConfigError(f"unknown aqm {self.aqm!r}")
        if self.transport not in TRANSPORT_MIXES:
            raise ConfigError(f"unknown transport mix {self.transport!r}")
        topo = self.build_topology()
        flows = self.build_flows(topo)
        return make_scenario(
            topo, flows,
            name=self.scenario_name(),
            scheduler=SchedulerKind(self.scheduler),
            num_classes=self.num_classes,
            buffer_bytes=self.buffer_kb * 1024,
            aqm=AqmConfig(kind=_AQM_KINDS[self.aqm]),
            duration_ps=us(self.duration_us) if self.duration_us else None,
        )

    def num_nodes(self) -> int:
        return self.build_topology().num_nodes

    # --- serialization ----------------------------------------------------

    def to_dict(self) -> Dict:
        doc = asdict(self)
        doc["format"] = FORMAT
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "ScenarioSpec":
        """The spec a JSON object describes; a non-object, an unknown
        or missing key, or a value of the wrong JSON type is a
        :class:`ConfigError` naming it."""
        if not isinstance(doc, dict):
            raise ConfigError("conformance spec must be a JSON object, "
                              f"got {type(doc).__name__}")
        doc = dict(doc)
        fmt = doc.pop("format", FORMAT)
        if fmt != FORMAT:
            raise ConfigError(f"unknown conformance spec format {fmt!r}")
        hints = get_type_hints(cls)
        unknown = sorted(set(doc) - set(hints))
        if unknown:
            raise ConfigError(f"conformance spec: unknown keys {unknown}")
        for f in fields(cls):
            if f.name not in doc:
                if f.default is MISSING:
                    raise ConfigError(
                        f"conformance spec: missing key {f.name!r}")
                continue
            value = doc[f.name]
            accepted, what = _JSON_TYPES[hints[f.name]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(
                    f"conformance spec: {f.name}={value!r} is not {what}")
        return cls(**doc)


#: Per annotated spec field type: the JSON values it accepts, and how
#: an error names them.
_JSON_TYPES = {int: (int, "an integer"), str: (str, "a string"),
               Optional[int]: ((int, type(None)), "an integer or null")}


def generate_spec(seed: int, index: int) -> ScenarioSpec:
    """The ``index``-th spec of fuzz stream ``seed`` (pure function)."""
    rng = substream(seed, 0xC0F, index)

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    topology = pick(TOPOLOGY_FAMILIES)
    # FatTree is fixed at K=4 (36 nodes) — larger sizes belong to perf
    # runs, not the conformance loop; other families scale via topo_arg.
    topo_arg = {
        "dumbbell": int(rng.integers(2, 7)),
        "fattree": 4,
        "leafspine": int(rng.integers(2, 4)),
        "hetero": int(rng.integers(2, 5)),
    }[topology]
    traffic = pick(TRAFFIC_KINDS)
    scheduler = pick(SCHEDULERS)
    num_classes = int(rng.integers(2, 4)) if scheduler != "fifo" else 1
    transport = pick(TRANSPORT_MIXES)
    if traffic == "steady":
        # Steady-state exists to exercise the fast-forward cache: pure
        # UDP (the only memo-eligible transport) on a dumbbell whose
        # bottleneck is provisioned for the whole permutation, so the
        # run is drop-free and window signatures actually repeat.
        topology = "dumbbell"
        topo_arg = min(topo_arg, 6)
        transport = "udp"
    elif transport == "udp" and traffic != "incast":
        # pure-UDP meshes finish instantly and test nothing; keep UDP in
        # the mixes and in incast (where pacing vs drops matters).
        transport = "mixed"
    duration_us = int(rng.integers(40, 200)) if rng.integers(0, 4) == 0 else None
    n_flows = int(rng.integers(4, 25))
    flow_kb = int(pick((20, 40, 60, 100, 150)))
    aqm = pick(AQMS)
    arrival = pick(ARRIVALS)
    if traffic == "wan_twin":
        if arrival == "periodic":  # wan twin paces EF itself
            arrival = "poisson"
        if scheduler == "fifo":    # give the DSCP mix a classful port
            scheduler, num_classes = "sp", 3
        num_classes = min(num_classes, 3)
    elif traffic == "storage" and arrival == "empirical":
        arrival = "periodic"
    if traffic == "steady" and aqm == "red":
        # RED statically disables the window-memo cache (its EWMA state
        # is unobservable to the signature); steady scenarios exist to
        # exercise that cache, so swap in the other marking AQM.
        aqm = "ecn"
    return ScenarioSpec(
        seed=seed * 1_000_003 + index,
        topology=topology,
        topo_arg=topo_arg,
        traffic=traffic,
        n_flows=n_flows,
        flow_kb=flow_kb,
        transport=transport,
        scheduler=scheduler,
        num_classes=num_classes,
        aqm=aqm,
        buffer_kb=int(pick((15, 30, 60, 120))),
        delay_profile=pick(("uniform", "hetero")),
        delay_scale=int(pick((1, 1, 2, 5))),
        duration_us=duration_us,
        load_pct=int(rng.integers(20, 70)),
        arrival=arrival,
    )


# --- shrinking -------------------------------------------------------------

def shrink_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Strictly-simpler variants of ``spec``, most aggressive first."""
    # Topology: move toward the smallest dumbbell.
    if spec.topology != "dumbbell":
        yield replace(spec, topology="dumbbell", topo_arg=2)
    elif spec.topo_arg > 1:
        yield replace(spec, topo_arg=max(1, spec.topo_arg // 2))
        yield replace(spec, topo_arg=spec.topo_arg - 1)
    # Traffic: fewer flows, then the plainest pattern.
    if spec.n_flows > 2:
        yield replace(spec, n_flows=max(2, spec.n_flows // 2))
        yield replace(spec, n_flows=spec.n_flows - 1)
    if spec.traffic == "storage":
        # Gentler first step: stay columnar (a columnar-path bug must
        # keep reproducing) but drop the replica-chain expansion.
        yield replace(spec, traffic="wan_twin")
    if spec.traffic != "fixed":
        yield replace(spec, traffic="fixed")
    if spec.arrival != "poisson":
        yield replace(spec, arrival="poisson")
    # Protocol set / configuration: one knob at a time.
    if spec.transport != "dctcp":
        yield replace(spec, transport="dctcp")
    if spec.scheduler != "fifo" or spec.num_classes != 1:
        yield replace(spec, scheduler="fifo", num_classes=1)
    if spec.aqm != "ecn":
        yield replace(spec, aqm="ecn")
    if spec.flow_kb > 20:
        yield replace(spec, flow_kb=max(20, spec.flow_kb // 2))
    if spec.delay_profile != "uniform" or spec.delay_scale != 1:
        yield replace(spec, delay_profile="uniform", delay_scale=1)
    if spec.duration_us is not None:
        yield replace(spec, duration_us=None)
    if spec.load_pct > 20:
        yield replace(spec, load_pct=20)


def shrink(
    spec: ScenarioSpec,
    still_fails: Callable[[ScenarioSpec], bool],
    max_attempts: int = 100,
) -> ScenarioSpec:
    """Greedy deterministic shrink: accept the first simpler variant
    that still fails, repeat to a fixpoint (or the attempt budget).

    ``still_fails`` must be a pure predicate over a spec — typically
    "rebuild, re-run the failing oracle set, and check that a divergence
    or invariant violation is still reported".
    """
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in shrink_candidates(spec):
            attempts += 1
            failed = False
            try:
                failed = still_fails(candidate)
            except ConfigError:
                failed = False  # over-shrunk into an invalid spec
            if failed:
                spec = candidate
                improved = True
                break
            if attempts >= max_attempts:
                break
    return spec
