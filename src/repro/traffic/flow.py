"""Flow descriptions: the unit of traffic every engine consumes.

A :class:`Flow` is one flow as a record: what the generators emit, what
tests write by hand, and the facade :class:`~repro.traffic.FlowColumns`
hands out when a flow is read by index.  A scenario stores its traffic
as one ``FlowColumns`` (``make_scenario`` converts a ``Flow`` list once),
generated once (seeded) and then handed unchanged to every simulator
under comparison, so that "same input, compare outputs" holds by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from ..errors import ConfigError


class Transport(IntEnum):
    """Transport protocol run by a flow's sender.

    RENO is classic ECN-TCP (fixed halving on marked windows), added via
    the CCA-extension hook of §8; it shares DCTCP's state machine.
    """

    UDP = 0
    DCTCP = 1
    RENO = 2


@dataclass(frozen=True)
class Flow:
    """One application flow.

    Attributes:
        flow_id: Dense id; also the ECMP hash key component.
        src: Source host node id.
        dst: Destination host node id.
        size_bytes: Application bytes to deliver (payload, excl. headers).
        start_ps: Simulated start time in picoseconds.
        transport: UDP or DCTCP.
        priority: Traffic class used by DRR / Strict Priority schedulers
            (0 = highest).
    """

    flow_id: int
    src: int
    dst: int
    size_bytes: int
    start_ps: int
    transport: Transport = Transport.DCTCP
    priority: int = 0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigError(f"flow {self.flow_id}: src == dst == {self.src}")
        if self.size_bytes <= 0:
            raise ConfigError(f"flow {self.flow_id}: size must be positive")
        if self.start_ps < 0:
            raise ConfigError(f"flow {self.flow_id}: negative start time")
