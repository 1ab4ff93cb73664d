"""Workload generators for the paper's evaluation scenarios.

§6's single-machine and cluster experiments use "full-mesh dynamic flows":
Poisson arrivals with sizes from real-trace CDFs, endpoints uniform at
random over the servers.  Fig. 10's fidelity experiment uses a fixed set
of 64 x 1.5 MB flows.  Incast and permutation patterns are provided for
the examples and ablations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .distributions import EmpiricalSize, WEB_SEARCH
from .flow import Flow, Transport
from ..errors import ConfigError
from ..rng import substream
from ..units import PS_PER_S


def zipf_weights(n: int, alpha: float = 1.0) -> np.ndarray:
    """Normalized Zipf popularity over ``n`` hosts (skewed endpoints).

    Used for WAN scenarios where traffic concentrates on a few heavy
    metros (the paper's ISP serves home broadband + private lines, a
    famously skewed mix).
    """
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** -alpha
    return w / w.sum()


def full_mesh_dynamic(
    hosts: Sequence[int],
    duration_ps: int,
    load: float = 0.3,
    host_rate_bps: int = 100_000_000_000,
    sizes: EmpiricalSize = WEB_SEARCH,
    transport: Transport = Transport.DCTCP,
    seed: int = 1,
    max_flows: Optional[int] = None,
    host_weights: Optional[Sequence[float]] = None,
) -> List[Flow]:
    """Poisson full-mesh traffic at a target fractional ``load``.

    The aggregate arrival rate is chosen so expected offered load equals
    ``load`` x per-host line rate x number of hosts, the convention of the
    DCTCP/Facebook trace studies the paper samples from.

    Args:
        hosts: Host node ids that send and receive.
        duration_ps: Window in which flows start.
        load: Fraction of aggregate host capacity offered.
        host_rate_bps: NIC rate used to translate load into arrivals/s.
        sizes: Flow-size distribution.
        transport: Transport for every generated flow.
        seed: Generator seed (fully determines the output).
        max_flows: Optional hard cap (for scaled-down runs; the cap is
            recorded by the caller in EXPERIMENTS.md).
        host_weights: Optional endpoint popularity (defaults to uniform);
            see :func:`zipf_weights` for skewed WAN traffic.  Paired
            positionally with ``hosts`` *as given*, then canonicalized
            together.

    The output depends only on the host set (and each host's weight),
    never on the container's iteration order: hosts are canonicalized to
    ascending id — with weights re-paired — before any draw, so a
    ``set``, a reversed list, and a sorted list of the same hosts all
    yield the same flows.
    """
    if not 0 < load:
        raise ConfigError("load must be positive")
    if len(hosts) < 2:
        raise ConfigError("full mesh needs at least two hosts")
    if max_flows is not None and max_flows < 1:
        raise ConfigError(f"max_flows must be at least 1, got {max_flows}")
    rng = substream(seed, 0xF1)
    mean_size_bits = sizes.mean() * 8.0
    lam_per_s = load * host_rate_bps * len(hosts) / mean_size_bits
    lam_per_ps = lam_per_s / PS_PER_S

    flows: List[Flow] = []
    t = 0.0
    flow_id = 0
    host_arr = np.fromiter((int(h) for h in hosts), dtype=np.int64)
    weights = None
    if host_weights is not None:
        weights = np.asarray(host_weights, dtype=np.float64)
        if weights.shape[0] != host_arr.shape[0]:
            raise ConfigError("host_weights length must match hosts")
    order = np.argsort(host_arr, kind="stable")
    host_arr = host_arr[order]
    if weights is not None:
        weights = weights[order]
        weights = weights / weights.sum()
    while True:
        t += rng.exponential(1.0 / lam_per_ps)
        if t >= duration_ps:
            break
        src_i, dst_i = rng.choice(len(host_arr), size=2, replace=False,
                                  p=weights)
        size = int(sizes.sample(rng, 1)[0])
        flows.append(
            Flow(
                flow_id=flow_id,
                src=int(host_arr[src_i]),
                dst=int(host_arr[dst_i]),
                size_bytes=size,
                start_ps=int(t),
                transport=transport,
            )
        )
        flow_id += 1
        if max_flows is not None and flow_id >= max_flows:
            break
    return flows


def fixed_flows(
    hosts: Sequence[int],
    n_flows: int,
    size_bytes: int,
    transport: Transport = Transport.DCTCP,
    start_ps: int = 0,
    stagger_ps: int = 0,
    seed: int = 1,
) -> List[Flow]:
    """A fixed count of equal-size flows with random distinct endpoints.

    Fig. 10 uses 64 flows of 1.5 MB each on FatTree8.
    """
    if len(hosts) < 2:
        raise ConfigError("need at least two hosts")
    rng = substream(seed, 0xF2)
    host_arr = np.asarray(list(hosts))
    flows: List[Flow] = []
    for flow_id in range(n_flows):
        src_i, dst_i = rng.choice(len(host_arr), size=2, replace=False)
        flows.append(
            Flow(
                flow_id=flow_id,
                src=int(host_arr[src_i]),
                dst=int(host_arr[dst_i]),
                size_bytes=size_bytes,
                start_ps=start_ps + flow_id * stagger_ps,
                transport=transport,
            )
        )
    return flows


def permutation(
    hosts: Sequence[int],
    size_bytes: int,
    transport: Transport = Transport.DCTCP,
    start_ps: int = 0,
    seed: int = 1,
) -> List[Flow]:
    """A random permutation: every host sends one flow, every host
    receives one flow (the classic full-bisection stress pattern)."""
    if len(hosts) < 2:
        raise ConfigError("need at least two hosts")
    rng = substream(seed, 0xF3)
    hosts = list(hosts)
    perm = list(rng.permutation(len(hosts)))
    # Rotate fixed points away so src != dst everywhere.
    for i, p in enumerate(perm):
        if p == i:
            j = (i + 1) % len(perm)
            perm[i], perm[j] = perm[j], perm[i]
    return [
        Flow(
            flow_id=i,
            src=hosts[i],
            dst=hosts[int(perm[i])],
            size_bytes=size_bytes,
            start_ps=start_ps,
            transport=transport,
        )
        for i in range(len(hosts))
    ]


def incast(
    target: int,
    senders: Sequence[int],
    size_bytes: int,
    transport: Transport = Transport.DCTCP,
    start_ps: int = 0,
    stagger_ps: int = 0,
) -> List[Flow]:
    """Many-to-one incast toward ``target`` (partition/aggregate pattern).

    Senders are canonicalized to ascending id, so the flow-id -> sender
    assignment (and with it the stagger schedule) depends only on the
    sender *set*, not on the container's iteration order.
    """
    senders = sorted(int(s) for s in senders)
    if target in senders:
        raise ConfigError("target must not be among the senders")
    return [
        Flow(
            flow_id=i,
            src=int(s),
            dst=target,
            size_bytes=size_bytes,
            start_ps=start_ps + i * stagger_ps,
            transport=transport,
        )
        for i, s in enumerate(senders)
    ]
