"""Scenario: the complete, engine-independent description of one run.

A scenario bundles the frozen topology, the flow table, the routing tables
and the per-port configuration.  Every simulator in this repository — the
OOD baseline, its multi-LP parallel variant, the DOD engine and the
distributed cluster runtime — consumes the *same* Scenario object, which
is what makes cross-engine comparisons meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import List, Optional, Sequence, Union

from .errors import ConfigError
from .protocols import MSS, AqmConfig, AqmKind, EgressConfig
from .routing import Fib, build_fib
from .schedulers import SchedulerKind
from .protocols.dctcp import DctcpParams, RENO_ECN_PARAMS
from .topology import Topology
from .traffic import Flow, FlowColumns, Transport
from .units import HEADER_BYTES


#: Hosts get a large FIFO NIC queue: the sender's own congestion control,
#: not the NIC buffer, is the limiting factor (as in ns-3 defaults).
HOST_BUFFER_BYTES = 512 * 1024 * 1024


@dataclass
class Scenario:
    """One simulation task.

    Attributes:
        name: Label used in reports.
        topology: Frozen topology.
        flows: The validated flow table (same object handed to every
            engine).
        fib: Forwarding tables (built once, shared).
        switch_egress: Configuration of every switch egress queue.
        host_egress: Configuration of every host NIC queue.
        dctcp: DCTCP protocol constants.
        duration_ps: Optional hard stop, at least 0; ``None`` runs to
            completion.
    """

    name: str
    topology: Topology
    flows: FlowColumns
    fib: Fib
    switch_egress: EgressConfig
    host_egress: EgressConfig
    dctcp: DctcpParams = field(default_factory=DctcpParams)
    reno: DctcpParams = RENO_ECN_PARAMS
    duration_ps: Optional[int] = None
    #: 'flow' = per-flow ECMP (paper default); 'packet' = packet spraying
    ecmp_mode: str = "flow"


    def __post_init__(self) -> None:
        if not self.topology.frozen:
            raise ConfigError("scenario needs a frozen topology")
        if not self.flows:
            raise ConfigError("scenario has no flows")
        if self.duration_ps is not None and not (
                isinstance(self.duration_ps, Integral)
                and self.duration_ps >= 0):
            raise ConfigError(
                f"duration_ps={self.duration_ps!r}: a hard stop is an "
                "integer of at least 0 ps, or None")
        if self.ecmp_mode not in ("flow", "packet"):
            raise ConfigError(f"ecmp_mode={self.ecmp_mode!r}: "
                              "must be 'flow' or 'packet'")
        # A queue that cannot hold one full-size segment tail-drops
        # every one of them, and the sender retransmits it forever.
        for key in ("switch_egress", "host_egress"):
            buffer_bytes = getattr(self, key).buffer_bytes
            if buffer_bytes < MSS + HEADER_BYTES:
                raise ConfigError(
                    f"{key}: buffer_bytes={buffer_bytes} cannot hold one "
                    f"full-size packet ({MSS + HEADER_BYTES} bytes)")

    @property
    def lookahead_ps(self) -> int:
        """The DOD engine's batch length: the smallest link delay (§3.3)."""
        return self.topology.min_link_delay_ps()

    def cca_params(self, transport) -> DctcpParams:
        """Window-CCA constants for a flow's transport (DCTCP or RENO)."""
        return self.dctcp if transport == Transport.DCTCP else self.reno

    def classifier_table(self) -> List[int]:
        """flow_id -> traffic class, used by egress-port classifiers."""
        return self.flows.priority_list()


def make_scenario(
    topology: Topology,
    flows: Union[FlowColumns, Sequence[Flow]],
    name: Optional[str] = None,
    scheduler: SchedulerKind = SchedulerKind.FIFO,
    num_classes: int = 1,
    buffer_bytes: int = 4 * 1024 * 1024,
    aqm: Optional[AqmConfig] = None,
    dctcp: Optional[DctcpParams] = None,
    duration_ps: Optional[int] = None,
    fib: Optional[Fib] = None,
    ecmp_mode: str = "flow",
) -> Scenario:
    """Build a Scenario with sensible defaults and a shared FIB.

    Args:
        topology: A frozen topology.
        flows: The traffic: a :class:`~repro.traffic.FlowColumns`, or a
            ``Flow`` list with dense ids ``0..n-1``, columnarized here
            once.  Either is validated against the topology's hosts.
        scheduler / num_classes: Switch egress discipline.
        buffer_bytes: Switch egress buffer (tail-drop limit); at least
            one full-size packet (``MSS + HEADER_BYTES``).
        aqm: Marking config; defaults to DCTCP threshold marking.
        dctcp: DCTCP constants override.
        duration_ps: Optional hard stop.
        fib: Pre-built FIB (else built here).
    """
    if not topology.frozen:  # before the FIB builder refuses it
        raise ConfigError("scenario needs a frozen topology")
    if isinstance(flows, Sequence):  # a Flow list: columnarize it once
        flows = FlowColumns.from_flows(flows)
    flows.validate_against(topology.hosts)
    if fib is None:
        fib = build_fib(topology)
    if aqm is None:
        aqm = AqmConfig(kind=AqmKind.ECN_THRESHOLD)
    switch_egress = EgressConfig(
        buffer_bytes=buffer_bytes,
        aqm=aqm,
        scheduler=scheduler,
        num_classes=num_classes,
    )
    host_egress = EgressConfig(
        buffer_bytes=HOST_BUFFER_BYTES,
        aqm=AqmConfig(kind=AqmKind.NONE),
        scheduler=SchedulerKind.FIFO,
        num_classes=1,
    )
    return Scenario(
        name=name or f"{topology.name}/{len(flows)}flows",
        topology=topology,
        flows=flows,
        fib=fib,
        switch_egress=switch_egress,
        host_egress=host_egress,
        dctcp=dctcp or DctcpParams(),
        duration_ps=duration_ps,
        ecmp_mode=ecmp_mode,
    )
