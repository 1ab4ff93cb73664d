"""Production workload library: digital-twin scenarios built on the
columnar arrival engine.

Two workload families turn the simulator from a microbenchmark harness
into something you would point at a capacity-planning question:

* **DiffServ WAN twin** — an Abilene/GEANT backbone carrying three
  DSCP classes (EF voice-like periodic UDP, AF transactional TCP, BE
  bulk TCP) under strict-priority or DRR service.  Traffic is an
  aggregate of on-off (or Poisson/empirical) arrival processes with
  Zipf-popular metro endpoints — the classic "few big metros dominate"
  WAN matrix.

* **HDFS-like storage twin** — a leaf-spine cluster where clients
  write fixed-size blocks through a pipelined replica chain
  (writer -> r1 -> r2 -> r3, each hop staggered by the pipeline
  forwarding delay), while every datanode heartbeats a namenode on a
  phase-staggered period and periodically uploads a block report.
  Control traffic rides class 0, bulk block transfers class 1.

Both builders synthesize :class:`~repro.traffic.FlowColumns` directly —
no per-flow ``Flow`` objects are materialized, so the 100k-flow smoke
scenario (:func:`wan_twin_smoke`) builds in milliseconds and holds at
most one batch of facade objects alive at a time.

All sizes/periods are scaled down from production values (blocks are
256 KiB, not 128 MiB; heartbeats every 200 us, not 3 s) so scenarios
finish in simulated microseconds while keeping the *shape* — pipelined
chains, skewed matrices, class mixes — intact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..rng import substream
from ..scenario import Scenario, make_scenario
from ..schedulers import SchedulerKind
from ..topology import abilene, geant, leaf_spine
from ..traffic import Transport
from ..traffic.arrivals import ArrivalProcess, FlowColumns, synthesize
from ..traffic.distributions import DISTRIBUTIONS
from ..units import GBPS, PS_PER_S, ms, us

__all__ = [
    "WAN_CLASS_TABLE", "storage_flow_columns", "storage_scenario",
    "wan_twin_flow_columns", "wan_twin_processes", "wan_twin_scenario",
    "wan_twin_smoke",
]

#: Substream keys for the storage workload's extra randomness (replica
#: placement beyond the primary, which the arrival engine already drew).
_KEY_REPLICAS = 0xB1

#: DSCP class table for the WAN twin, highest priority first.  Each row:
#: (label, transport, size_dist ('' -> fixed size_bytes), size_bytes,
#: share of offered load).  EF is small periodic UDP (voice/telemetry),
#: AF is transactional TCP, BE is bulk TCP.
WAN_CLASS_TABLE: Tuple[Tuple[str, Transport, str, int, float], ...] = (
    ("EF", Transport.UDP, "", 512, 0.10),
    ("AF", Transport.DCTCP, "tiny", 0, 0.30),
    ("BE", Transport.DCTCP, "fb-cache", 0, 0.60),
)


def _pick_classes(
    classes: int,
    table: Tuple[Tuple[str, Transport, str, int, float], ...],
) -> Tuple[Tuple[str, Transport, str, int, float], ...]:
    """The class rows for an n-class twin, renormalized to sum to 1.

    3 -> EF/AF/BE, 2 -> EF/BE, 1 -> BE only (pure best-effort), keeping
    class index 0 the highest priority row in every case.
    """
    if not 1 <= classes <= len(table):
        raise ConfigError(
            f"wan twin supports 1..{len(table)} classes, got {classes}")
    if classes == 1:
        rows = (table[-1],)
    elif classes == 2:
        rows = (table[0], table[-1])
    else:
        rows = table[:classes]
    total = sum(r[4] for r in rows)
    return tuple((n, t, d, s, share / total) for (n, t, d, s, share) in rows)


def _mean_size_bytes(size_dist: str, size_bytes: int) -> float:
    if size_dist:
        return DISTRIBUTIONS[size_dist].mean()
    return float(size_bytes)


def wan_twin_processes(
    hosts: Sequence[int],
    *,
    horizon_ps: int,
    classes: int = 3,
    load: float = 0.3,
    host_rate_bps: int = 10 * GBPS,
    arrival: str = "onoff",
    n_flows: Optional[int] = None,
    src_alpha: float = 1.1,
    dst_alpha: float = 0.8,
    table: Optional[Tuple[Tuple[str, Transport, str, int, float], ...]] = None,
) -> List[ArrivalProcess]:
    """One arrival process per DSCP class over a WAN host set.

    ``load`` is the aggregate offered load as a fraction of the summed
    access capacity; each class receives its table share of it.  The EF
    class is always periodic (it models paced voice/telemetry); AF/BE
    use ``arrival`` ('onoff', 'poisson', or 'empirical').  When
    ``n_flows`` is given, the budget is split by class share and each
    process capped with ``max_flows`` (rates are inflated 2x so caps
    are actually reached inside the horizon).
    """
    if arrival not in ("onoff", "poisson", "empirical"):
        raise ConfigError(
            f"wan twin arrival must be onoff/poisson/empirical, "
            f"got {arrival!r}")
    hosts = tuple(hosts)
    if len(hosts) < 2:
        raise ConfigError("wan twin needs at least two hosts")
    if n_flows is not None and n_flows < 1:
        raise ConfigError(f"n_flows must be at least 1, got {n_flows}")
    rows = _pick_classes(classes, table or WAN_CLASS_TABLE)
    horizon_s = horizon_ps / PS_PER_S
    agg_bps = load * host_rate_bps * len(hosts)
    procs: List[ArrivalProcess] = []
    for cls_idx, (label, transport, size_dist, size_bytes, share) in \
            enumerate(rows):
        mean_bits = 8.0 * _mean_size_bytes(size_dist, size_bytes)
        rate = share * agg_bps / mean_bits
        cap = None
        if n_flows is not None:
            cap = max(1, round(share * n_flows))
            # Inflate the rate so the cap binds well inside the horizon;
            # max_flows then makes the flow count exact.
            rate = max(rate, 2.0 * cap / horizon_s)
        mix = tuple(1.0 if i == cls_idx else 0.0 for i in range(classes))
        common = dict(
            src_hosts=hosts, dst_hosts=hosts, horizon_ps=horizon_ps,
            src_alpha=src_alpha, dst_alpha=dst_alpha,
            size_bytes=size_bytes or 1, size_dist=size_dist,
            transport=transport, priority_mix=mix, max_flows=cap,
            label=f"wan-{label.lower()}",
        )
        if cls_idx == 0 and classes > 1:
            # EF: paced periodic stream.
            n_ef = cap if cap is not None else max(
                1, round(rate * horizon_s))
            period = max(1, horizon_ps // max(1, n_ef))
            procs.append(ArrivalProcess(
                kind="periodic", period_ps=period, **common))
        elif arrival == "onoff":
            on = max(1, horizon_ps // 8)
            off = max(1, horizon_ps // 8)
            # Double the in-burst rate so the duty cycle preserves the
            # long-run average.
            procs.append(ArrivalProcess(
                kind="onoff", rate_per_s=2.0 * rate, on_ps=on, off_ps=off,
                **common))
        elif arrival == "empirical":
            procs.append(ArrivalProcess(
                kind="empirical", inter_cdf="wan-bursty", **common))
        else:
            procs.append(ArrivalProcess(
                kind="poisson", rate_per_s=rate, **common))
    return procs


def wan_twin_flow_columns(
    hosts: Sequence[int],
    seed: int,
    *,
    horizon_ps: int,
    n_flows: int,
    classes: int = 3,
    load: float = 0.3,
    arrival: str = "onoff",
    host_rate_bps: int = 10 * GBPS,
    table: Optional[Tuple[Tuple[str, Transport, str, int, float], ...]] = None,
) -> FlowColumns:
    """Synthesized WAN-twin traffic with an exact total flow budget."""
    procs = wan_twin_processes(
        hosts, horizon_ps=horizon_ps, classes=classes, load=load,
        host_rate_bps=host_rate_bps, arrival=arrival, n_flows=n_flows,
        table=table)
    return synthesize(procs, seed)


def wan_twin_scenario(
    which: str = "abilene",
    *,
    classes: int = 3,
    duration_ms: float = 0.5,
    load: float = 0.3,
    seed: int = 2023,
    scheduler: str = "sp",
    arrival: str = "onoff",
    max_flows: int = 2000,
) -> Scenario:
    """DiffServ WAN digital twin on a real backbone topology.

    ``which`` selects the backbone ('abilene' or 'geant');
    ``scheduler`` the per-port service discipline ('sp' strict
    priority or 'drr' deficit round robin across ``classes`` queues).
    """
    builders = {"abilene": abilene, "geant": geant}
    if which not in builders:
        raise ConfigError(
            f"wan twin topology must be one of {sorted(builders)}, "
            f"got {which!r}")
    kinds = {"sp": SchedulerKind.SP, "drr": SchedulerKind.DRR}
    if scheduler not in kinds:
        raise ConfigError(
            f"wan twin scheduler must be 'sp' or 'drr', got {scheduler!r}")
    topo = builders[which]()
    horizon = ms(duration_ms)
    flows = wan_twin_flow_columns(
        topo.hosts, seed, horizon_ps=horizon, n_flows=max_flows,
        classes=classes, load=load, arrival=arrival)
    return make_scenario(
        topo, flows, name=f"wan-twin-{which}-{scheduler}{classes}",
        scheduler=kinds[scheduler], num_classes=classes,
        duration_ps=horizon)


def wan_twin_smoke(
    n_flows: int = 100_000,
    *,
    duration_us: float = 60.0,
    seed: int = 2023,
) -> Scenario:
    """WAN-twin perf-smoke scenario: >= ``n_flows`` synthesized flows.

    Two UDP classes (paced EF + bursty BE) on Abilene under strict
    priority.  All 100k flows are synthesized columnar — peak live
    ``Flow`` count stays bounded by one builder batch — while the
    simulated duration cut keeps the executed event count tractable
    for a smoke gate.
    """
    topo = abilene()
    hosts = topo.hosts
    horizon = ms(1.0)
    horizon_s = horizon / PS_PER_S
    ef_cap = max(1, n_flows // 5)
    be_cap = n_flows - ef_cap
    procs = [
        ArrivalProcess(
            kind="periodic", src_hosts=hosts, dst_hosts=hosts,
            horizon_ps=horizon, period_ps=max(1, horizon // ef_cap),
            size_bytes=512, transport=Transport.UDP,
            priority_mix=(1.0, 0.0), max_flows=ef_cap,
            src_alpha=1.1, dst_alpha=0.8, label="smoke-ef"),
        ArrivalProcess(
            kind="onoff", src_hosts=hosts, dst_hosts=hosts,
            horizon_ps=horizon, rate_per_s=6.0 * be_cap / horizon_s,
            on_ps=horizon // 8, off_ps=horizon // 8,
            size_bytes=1200, transport=Transport.UDP,
            priority_mix=(0.0, 1.0), max_flows=be_cap,
            src_alpha=1.1, dst_alpha=0.8, label="smoke-be"),
    ]
    flows = synthesize(procs, seed)
    return make_scenario(
        topo, flows, name="wan-twin-smoke", scheduler=SchedulerKind.SP,
        num_classes=2, duration_ps=us(duration_us))


# --- HDFS-like storage twin -------------------------------------------------

def _draw_distinct(rng_u: np.ndarray, pool: np.ndarray,
                   taken: List[np.ndarray]) -> np.ndarray:
    """Vectorized draw of one node per row from ``pool``, distinct from
    every row of ``taken`` (cyclic advance on collision — the same
    deterministic resolution the arrival engine uses for src==dst)."""
    m = len(pool)
    idx = np.minimum((rng_u * m).astype(np.int64), m - 1)
    chosen = pool[idx]
    for _ in range(m):
        clash = np.zeros(len(idx), dtype=bool)
        for prev in taken:
            clash |= (chosen == prev)
        if not clash.any():
            break
        idx = np.where(clash, (idx + 1) % m, idx)
        chosen = pool[idx]
    return chosen


def storage_flow_columns(
    hosts: Sequence[int],
    seed: int,
    *,
    horizon_ps: int,
    blocks: int = 64,
    block_bytes: int = 256 * 1024,
    arrival: str = "poisson",
    pipeline_delay_ps: int = us(5),
    heartbeat_period_ps: int = us(200),
    report_period_ps: int = us(1000),
    report_bytes: int = 16 * 1024,
) -> FlowColumns:
    """HDFS-like storage traffic over ``hosts`` (hosts[0] = namenode).

    Block writes arrive per ``arrival`` (poisson/onoff/periodic) at the
    datanodes; each becomes a pipelined replica chain writer -> r1 ->
    ... -> r_k (k = min(3, datanodes - 1)), every hop offset by
    ``pipeline_delay_ps``.  Heartbeats (small UDP, phase-staggered) and
    block reports flow datanode -> namenode.  Control is class 0,
    block transfers class 1.
    """
    hosts = tuple(hosts)
    if len(hosts) < 3:
        raise ConfigError(
            "storage workload needs a namenode and >= 2 datanodes "
            f"(got {len(hosts)} hosts)")
    if blocks < 1:
        raise ConfigError(f"storage workload needs blocks >= 1, got {blocks}")
    namenode, dns = hosts[0], hosts[1:]
    replicas = min(3, len(dns) - 1)
    horizon_s = horizon_ps / PS_PER_S

    # 1. Primary writes (writer -> r1) come straight from the arrival
    #    engine; src/dst collision avoidance is already built in.
    write_kw = dict(
        src_hosts=dns, dst_hosts=dns, horizon_ps=horizon_ps,
        size_bytes=block_bytes, transport=Transport.DCTCP,
        priority_mix=(0.0, 1.0), max_flows=blocks, src_alpha=0.9,
        label="block-write")
    if arrival == "poisson":
        write_proc = ArrivalProcess(
            kind="poisson", rate_per_s=2.0 * blocks / horizon_s, **write_kw)
    elif arrival == "onoff":
        write_proc = ArrivalProcess(
            kind="onoff", rate_per_s=4.0 * blocks / horizon_s,
            on_ps=max(1, horizon_ps // 8), off_ps=max(1, horizon_ps // 8),
            **write_kw)
    elif arrival == "periodic":
        write_proc = ArrivalProcess(
            kind="periodic", period_ps=max(1, horizon_ps // blocks),
            **write_kw)
    else:
        raise ConfigError(
            f"storage arrival must be poisson/onoff/periodic, "
            f"got {arrival!r}")
    base = synthesize([write_proc], seed).columns()
    n = len(base["src"])

    # 2. Extend each chain with replicas 2..k, drawn from a dedicated
    #    substream, distinct from every earlier chain member.
    pool = np.fromiter(dns, dtype=np.int64)
    chain = [base["src"].copy(), base["dst"].copy()]
    if replicas > 1:
        u = substream(seed, _KEY_REPLICAS).random((n, replicas - 1))
        for j in range(replicas - 1):
            chain.append(_draw_distinct(u[:, j], pool, chain))

    # 3. Lay the chain out as stage flows: stage k starts at
    #    t + k * pipeline_delay_ps (the upstream hop must be underway
    #    before the downstream replica starts receiving).
    parts: List[Dict[str, np.ndarray]] = []
    for k in range(replicas):
        parts.append({
            "src": chain[k], "dst": chain[k + 1],
            "size_bytes": base["size_bytes"],
            "start_ps": base["start_ps"] + k * pipeline_delay_ps,
            "transport": np.full(n, int(Transport.DCTCP), dtype=np.int64),
            "priority": np.ones(n, dtype=np.int64),
        })

    # 4. Control plane: phase-staggered heartbeats + block reports.
    control: List[ArrivalProcess] = []
    for i, dn in enumerate(dns):
        stagger = (i * heartbeat_period_ps) // len(dns)
        control.append(ArrivalProcess(
            kind="periodic", src_hosts=(dn,), dst_hosts=(namenode,),
            horizon_ps=horizon_ps, period_ps=heartbeat_period_ps,
            start_ps=stagger, size_bytes=256, transport=Transport.UDP,
            priority_mix=(1.0, 0.0), label="heartbeat"))
        if report_period_ps < horizon_ps:
            control.append(ArrivalProcess(
                kind="periodic", src_hosts=(dn,), dst_hosts=(namenode,),
                horizon_ps=horizon_ps, period_ps=report_period_ps,
                start_ps=(i * report_period_ps) // len(dns),
                size_bytes=report_bytes, transport=Transport.DCTCP,
                priority_mix=(1.0, 0.0), label="block-report"))
    parts.append(synthesize(control, seed).columns())

    # 5. Deterministic merge: (start, part index, row-within-part) — the
    #    same total order the arrival engine itself uses.
    keys = ("src", "dst", "size_bytes", "start_ps", "transport", "priority")
    merged = {k: np.concatenate([p[k] for p in parts]) for k in keys}
    part_idx = np.concatenate(
        [np.full(len(p["src"]), i, dtype=np.int64)
         for i, p in enumerate(parts)])
    seq = np.concatenate(
        [np.arange(len(p["src"]), dtype=np.int64) for p in parts])
    order = np.lexsort((seq, part_idx, merged["start_ps"]))
    return FlowColumns(
        src=merged["src"][order], dst=merged["dst"][order],
        size_bytes=merged["size_bytes"][order],
        start_ps=merged["start_ps"][order],
        transport=merged["transport"][order],
        priority=merged["priority"][order])


def storage_scenario(
    datanodes: int = 8,
    *,
    duration_ms: float = 0.5,
    blocks: int = 64,
    seed: int = 2023,
    arrival: str = "poisson",
    block_bytes: int = 256 * 1024,
) -> Scenario:
    """HDFS-like storage digital twin on a leaf-spine fabric.

    ``datanodes`` datanodes plus one namenode, spread over a 2-leaf /
    2-spine fabric; strict priority keeps heartbeats (class 0) ahead of
    block transfers (class 1).
    """
    if datanodes < 2:
        raise ConfigError(
            f"storage scenario needs >= 2 datanodes, got {datanodes}")
    per_leaf = (datanodes + 2) // 2  # namenode + datanodes, 2 leaves
    topo = leaf_spine(2, 2, per_leaf, host_rate_bps=10 * GBPS)
    horizon = ms(duration_ms)
    flows = storage_flow_columns(
        topo.hosts[:datanodes + 1], seed, horizon_ps=horizon,
        blocks=blocks, block_bytes=block_bytes, arrival=arrival)
    return make_scenario(
        topo, flows, name=f"storage-{datanodes}dn",
        scheduler=SchedulerKind.SP, num_classes=2, duration_ps=horizon)
