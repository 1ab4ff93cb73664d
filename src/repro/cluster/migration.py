"""Live repartitioning: migrate simulation state between agents.

Appendix A partitions a long simulation into *phases* wherever the
traffic pattern shifts drastically, each phase with its own partition.
Executing that requires moving a node's simulation state to its new
owner at a phase boundary: the node's egress-port queues (packets in
flight and line state), its pending calendar entries (future deliveries,
flow starts, timer wakeups), and the transport state of flows whose
endpoint hosts move.

Migration happens *between* lookahead windows, where engine state is a
pure function of the windows executed so far — so a migrated cluster
produces exactly the trace an unmigrated one would
(tests/integration/test_dynamic_cluster.py).

Accounting: every migrated object is priced in bytes
(:class:`MigrationStats`), since a real deployment ships this state over
the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .agent import AgentEngine
from ..core.ecs import EGRESS_SCHEMA, SENDER_SCHEMA, RECEIVER_SCHEMA
from ..des.partition_types import Partition
from ..errors import ClusterError

#: Modeled wire cost of one migrated packet row / component row / port.
ROW_BYTES = 64
PORT_STATE_BYTES = 256

_EGRESS_FIELDS = tuple(f.name for f in EGRESS_SCHEMA)
_SENDER_FIELDS = tuple(f.name for f in SENDER_SCHEMA)
_RECEIVER_FIELDS = tuple(f.name for f in RECEIVER_SCHEMA)


@dataclass
class MigrationStats:
    """What one repartitioning event moved."""

    nodes_moved: int = 0
    ports_moved: int = 0
    queued_packets_moved: int = 0
    calendar_entries_moved: int = 0
    sender_rows_moved: int = 0
    receiver_rows_moved: int = 0

    @property
    def bytes_moved(self) -> int:
        return (
            self.ports_moved * PORT_STATE_BYTES
            + (self.queued_packets_moved + self.calendar_entries_moved
               + self.sender_rows_moved + self.receiver_rows_moved)
            * ROW_BYTES
        )


def _move_calendar_node(src: AgentEngine, dst: AgentEngine, node: int,
                        stats: MigrationStats) -> None:
    for win, entries in src.events.take_node(node):
        dst.events.insert_entries(win, node, entries)
        stats.calendar_entries_moved += len(entries)


def _move_table_row(src_table, dst_table, idx: int, fields) -> None:
    """Trade row ``idx``: the new owner takes the state, the old owner
    the new owner's untouched row — an egress row owns its queue lists,
    and its counters are summed per agent at ``finalize()``."""
    for name in fields:
        src, dst = src_table.column(name), dst_table.column(name)
        src[idx], dst[idx] = dst[idx], src[idx]


def migrate(
    agents: Sequence[AgentEngine],
    old: Partition,
    new: Partition,
) -> MigrationStats:
    """Move state from ``old`` owners to ``new`` owners; rebind agents.

    Agents must be paused between windows.  After the call every agent's
    ``partition`` is ``new`` and subsequent windows run under it.
    """
    if old.num_parts != len(agents) or new.num_parts != len(agents):
        raise ClusterError("partition size does not match agent count")
    if len(old.assignment) != len(new.assignment):
        raise ClusterError("partitions cover different topologies")
    stats = MigrationStats()
    scenario = agents[0].scenario
    topo = scenario.topology

    for node in range(topo.num_nodes):
        src_id, dst_id = old.part_of(node), new.part_of(node)
        if src_id == dst_id:
            continue
        src, dst = agents[src_id], agents[dst_id]
        stats.nodes_moved += 1

        # 1. Egress rows of the node: carry queue/line state over.
        for port_idx in range(topo.ports_of(node)):
            iface_id = topo.iface_id(node, port_idx)
            stats.ports_moved += 1
            stats.queued_packets_moved += src.world.egress.get(
                iface_id, "qlen")
            _move_table_row(src.world.egress, dst.world.egress, iface_id,
                            _EGRESS_FIELDS)
            if iface_id in src.active_ports:
                src.active_ports.discard(iface_id)
                dst.active_ports.add(iface_id)
                # the new owner must keep draining the backlog
                dst.events.touch(dst._running_window + 1)

        # 2. Pending calendar entries addressed to the node.
        _move_calendar_node(src, dst, node, stats)

        # 3. Transport state of flows endpointed at the node.
        if topo.nodes[node].is_host:
            for flow in scenario.flows:
                if flow.src == node:
                    _move_table_row(src.world.senders, dst.world.senders,
                                    flow.flow_id, _SENDER_FIELDS)
                    stats.sender_rows_moved += 1
                if flow.dst == node:
                    _move_table_row(src.world.receivers, dst.world.receivers,
                                    flow.flow_id, _RECEIVER_FIELDS)
                    # results bookkeeping follows the receiver
                    dst.results.flows[flow.flow_id] = \
                        src.results.flows[flow.flow_id]
                    stats.receiver_rows_moved += 1

    for agent in agents:
        agent.partition = new
    return stats
