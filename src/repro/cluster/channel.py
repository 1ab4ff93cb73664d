"""Inter-agent communication channels: traffic accounting.

In the paper's deployment, Agents exchange RPCs over the cluster fabric
(40 Gbps in the evaluation).  Here a channel is purely the unit of
*accounting* — messages, packet records and bytes per direction, which
feed tau_a of Eq. (1) and the FINISH-barrier accounting of §4.2 — while
the physical move of a batch belongs to the
:mod:`~repro.cluster.transport` layer (in-process mailbox or a
shared-memory pair ring).

Channels are created lazily by :class:`ChannelMap` on the first send of
each directed pair, so a large-N plan whose cut touches only a few
machine pairs never pays the O(N^2) setup the old controller did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ClusterError

#: Modeled wire size of one packet record inside a batch RPC.
RPC_RECORD_BYTES = 64
#: Modeled framing overhead of one batch RPC.
RPC_FRAME_BYTES = 256


@dataclass
class RpcChannel:
    """Directed channel between two agents."""

    src: int
    dst: int
    messages: int = 0
    records: int = 0
    bytes_sent: int = 0

    def account(self, n_records: int) -> None:
        """One RPC carrying a window's worth of packets (§4.2: "it sends
        one RPC to carry the information of a batch of packets")."""
        self.messages += 1
        self.records += n_records
        self.bytes_sent += RPC_FRAME_BYTES + RPC_RECORD_BYTES * n_records


class ChannelMap:
    """Directed channels keyed by ``(src, dst)``, created on first use.

    Only pairs that actually exchange a batch ever get an
    :class:`RpcChannel`.  The map is the accounting of whoever sends:
    the one shared map of a ``LocalTransport``, or each worker's own
    under a ``ProcessTransport`` — snapshotted with the agent
    (:meth:`export`) so a rollback re-counts nothing, and merged into
    the coordinator's map when the run is finalized.
    """

    def __init__(self) -> None:
        self._channels: Dict[Tuple[int, int], RpcChannel] = {}
        #: FINISH frames published: one per peer per window, whether or
        #: not it carried records (§4.2: everyone tells everyone).
        self.frames = 0

    def account(self, src: int, outbox: Dict[int, list], peers: int) -> int:
        """Account one window of agent ``src``: a batch RPC per non-empty
        outbox entry, a FINISH frame per peer.  Returns records sent."""
        sent = 0
        for dst, records in outbox.items():
            if records:
                self[src, dst].account(len(records))
                sent += len(records)
        self.frames += peers
        return sent

    def export(self) -> tuple:
        """The counters as plain data (snapshots, agent reports)."""
        return self.frames, {key: (c.messages, c.records, c.bytes_sent)
                             for key, c in self._channels.items()}

    def merge(self, state: tuple, replace: bool = False) -> None:
        """Add an :meth:`export` of disjoint channels — or, with
        ``replace``, roll the whole map back to it."""
        if replace:
            self._channels.clear()
            self.frames = 0
        frames, channels = state
        self.frames += frames
        for key, counts in channels.items():
            channel = self[key]
            channel.messages, channel.records, channel.bytes_sent = counts

    def __getitem__(self, key: Tuple[int, int]) -> RpcChannel:
        channel = self._channels.get(key)
        if channel is None:
            src, dst = key
            if src == dst:
                raise ClusterError(f"agent {src} cannot open a self-channel")
            channel = self._channels[key] = RpcChannel(src, dst)
        return channel

    def __len__(self) -> int:
        return len(self._channels)

    def values(self):
        return self._channels.values()


@dataclass
class ClusterTrafficStats:
    """Aggregated communication measurements of a distributed run."""

    windows: int = 0
    finish_signals: int = 0
    rpc_messages: int = 0
    rpc_records: int = 0
    rpc_bytes: int = 0
    #: bytes leaving each machine (tau_a of Eq. 1)
    egress_bytes: List[int] = field(default_factory=list)
