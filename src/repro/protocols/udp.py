"""UDP sender: open-loop, NIC-rate-paced transmission.

A UDP flow simply puts all its segments on the wire paced at the host
NIC's line rate, with no feedback.  Enqueue times are closed-form: the
event-driven baseline computes them one event at a time, and the DOD
engine's SendSystem uses the same closed form for a whole window.
"""

from __future__ import annotations

from dataclasses import dataclass
from .packet import HEADER_BYTES, MSS, segment_count, segment_payload
from ..units import serialization_time_ps


@dataclass(frozen=True)
class UdpSchedule:
    """Deterministic enqueue schedule of one UDP flow."""

    flow_id: int
    size_bytes: int
    start_ps: int
    nic_rate_bps: int

    @property
    def total_segs(self) -> int:
        return segment_count(self.size_bytes)

    def enqueue_time(self, seq: int) -> int:
        """Time segment ``seq`` is handed to the NIC queue.

        Segment i starts once segments 0..i-1 have fully serialized at
        NIC rate (source pacing).  Closed form over the cumulative wire
        bytes of the preceding full-MSS segments.
        """
        if seq == 0:
            return self.start_ps
        wire_before = seq * (MSS + HEADER_BYTES)  # all non-final segs are MSS
        return self.start_ps + serialization_time_ps(wire_before, self.nic_rate_bps)

    def payload(self, seq: int) -> int:
        return segment_payload(self.size_bytes, seq)
