"""Live repartitioning: move simulation state between agents.

Appendix A partitions a long simulation into *phases* wherever the
traffic pattern shifts drastically, each phase with its own partition.
At a phase boundary a node's state moves to its new owner: its
egress-port rows (queued packets, line state) and active ports, its
pending calendar entries, and the transport state of flows whose
endpoint hosts move.

:func:`migrate` does that to a coordinated snapshot
(:meth:`~repro.cluster.transport.Transport.snapshot_all`), as a pure
rewrite of the engine checkpoints; the runtime restores the result
under the new partition (``restore_all``), on either transport.  Engine
state between windows is a pure function of the windows executed so
far, so a migrated cluster produces exactly the trace an unmigrated one
would (tests/integration/test_dynamic_cluster.py).

Every migrated object is priced in bytes (:class:`MigrationStats`), as
a real deployment ships this state over the fabric.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.checkpoint import Checkpoint
from ..core.ecs import EGRESS_SCHEMA, SENDER_SCHEMA, RECEIVER_SCHEMA
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..scenario import Scenario

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


def _move_table_row(src_table, dst_table, idx: int, fields) -> None:
    """Trade row ``idx``: the new owner takes the state, the old owner
    the new owner's untouched row — an egress row owns its queue lists,
    and its counters are summed per agent at ``finalize()``."""
    for name in fields:
        src, dst = src_table.column(name), dst_table.column(name)
        src[idx], dst[idx] = dst[idx], src[idx]


def migrate(
    snapshot: Sequence[Checkpoint],
    old: Partition,
    new: Partition,
    scenario: Scenario,
) -> Tuple[List[Checkpoint], MigrationStats]:
    """Rewrite a coordinated snapshot taken under ``old`` into one for
    ``new``: every moved node's state goes from its old owner's
    checkpoint to its new owner's.  Returns the new checkpoints (one per
    agent, for :meth:`Transport.restore_all`) and what moved."""
    if old.num_parts != len(snapshot) or new.num_parts != len(snapshot):
        raise ClusterError("partition size does not match agent count")
    if len(old.assignment) != len(new.assignment):
        raise ClusterError("partitions cover different topologies")
    states = [pickle.loads(checkpoint.payload) for checkpoint in snapshot]
    stats = MigrationStats()
    topo = scenario.topology
    moving = {}   # (old owner, new owner) -> nodes
    for node, (src_id, dst_id) in enumerate(zip(old.assignment,
                                                new.assignment)):
        if src_id == dst_id:
            continue
        moving.setdefault((src_id, dst_id), set()).add(node)
        src, dst = states[src_id], states[dst_id]
        stats.nodes_moved += 1
        for port_idx in range(topo.ports_of(node)):
            iface_id = topo.iface_id(node, port_idx)
            stats.ports_moved += 1
            stats.queued_packets_moved += src["world"].egress.get(
                iface_id, "qlen")
            _move_table_row(src["world"].egress, dst["world"].egress,
                            iface_id, _EGRESS_FIELDS)
            if iface_id in src["active_ports"]:
                src["active_ports"].discard(iface_id)
                dst["active_ports"].add(iface_id)
    for (src_id, dst_id), nodes in moving.items():
        stats.calendar_entries_moved += states[dst_id]["events"].merge_nodes(
            states[src_id]["events"], nodes)

    # Transport state of the flows whose endpoint host moved, off the
    # flow table's src / dst columns in one pass each.
    before, after = np.asarray(old.assignment), np.asarray(new.assignment)
    columns = scenario.flows.columns()
    for end, table, fields, counter in (
            ("src", "senders", _SENDER_FIELDS, "sender_rows_moved"),
            ("dst", "receivers", _RECEIVER_FIELDS, "receiver_rows_moved")):
        was, now = before[columns[end]], after[columns[end]]
        flow_ids = np.flatnonzero(was != now)
        for flow_id, src_id, dst_id in zip(flow_ids.tolist(),
                                           was[flow_ids].tolist(),
                                           now[flow_ids].tolist()):
            src, dst = states[src_id], states[dst_id]
            _move_table_row(getattr(src["world"], table),
                            getattr(dst["world"], table), flow_id, fields)
            if end == "dst":  # the flow's one record follows the receiver
                dst["results"].flows[flow_id] = src["results"].flows.pop(
                    flow_id)
        setattr(stats, counter, len(flow_ids))

    return [dataclasses.replace(checkpoint, payload=pickle.dumps(
        state, pickle.HIGHEST_PROTOCOL))
        for checkpoint, state in zip(snapshot, states)], stats
