"""Entity model: the four entity kinds of DONS (§3.2).

An entity is just a dense index into its kind's :class:`SoATable` —
"usually implemented as a unique identifier", as the paper puts it.
:class:`World` owns the four tables and the mapping from flows to
entity indices; a port's entity index is its interface id.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum
from typing import Dict

from .components import FieldSpec, SoATable


class EntityKind(IntEnum):
    """The paper's four entities."""

    SENDER = 0
    RECEIVER = 1
    INGRESS_PORT = 2
    EGRESS_PORT = 3


#: Component schemas.  Senders carry the DCTCP/UDP state machine fields;
#: receivers the reassembly state; egress ports their line, queue,
#: counter and discipline state.
SENDER_SCHEMA = (
    FieldSpec("flow_id", -1),
    FieldSpec("src", -1),
    FieldSpec("dst", -1),
    FieldSpec("transport", 0),
    FieldSpec("size_bytes", 0),
    FieldSpec("total_segs", 0),
    FieldSpec("start_ps", 0),
    # DCTCP machine (mirrors protocols.dctcp.DctcpState).
    FieldSpec("snd_una", 0),
    FieldSpec("next_seq", 0),
    FieldSpec("cwnd", 0.0),
    FieldSpec("ssthresh", float("inf")),
    FieldSpec("alpha", 1.0),
    FieldSpec("acked_win", 0),
    FieldSpec("marked_win", 0),
    FieldSpec("alpha_seq", 0),
    FieldSpec("cut_seq", -1),
    FieldSpec("dupacks", 0),
    FieldSpec("srtt_ps", 0),
    FieldSpec("rttvar_ps", 0),
    FieldSpec("rto_ps", 0),
    FieldSpec("backoff", 1),
    FieldSpec("rtx_deadline", -1),  # -1 = disarmed
    FieldSpec("timer_gen", 0),
    FieldSpec("done", 0),
    FieldSpec("done_ps", -1),
    # UDP pacing cursor.
    FieldSpec("udp_next_seq", 0),
)

RECEIVER_SCHEMA = (
    FieldSpec("flow_id", -1),
    FieldSpec("host", -1),
    FieldSpec("total_segs", 0),
    FieldSpec("needs_ack", 0),
    FieldSpec("expected", 0),
    FieldSpec("unique_received", 0),
    FieldSpec("complete_ps", -1),
    FieldSpec("out_of_order", None, item_bytes=16),  # set per entity
)

INGRESS_SCHEMA = (
    FieldSpec("iface_id", -1),
    FieldSpec("node", -1),
    # The FIB is a shared component (one routing state for the world);
    # per-entity we keep only the owning node, per paper Fig. 6 where
    # IngressPorts of a device share its forwarding table.
)

#: One row per directed interface, row index = interface id.  Every
#: mutable per-port value lives here; what the topology fixes is the
#: ``PortStatic`` tuple of ``core/systems/transmit.py``.
EGRESS_SCHEMA = (
    # Line and AQM state.
    FieldSpec("free_at", 0),         # time the line becomes free
    FieldSpec("queued_bytes", 0),
    FieldSpec("avg_bytes", 0),       # RED's integer EWMA
    # Class queues: per entity one list per class, popped from ``heads``.
    FieldSpec("qlen", 0),            # packets queued over all classes
    FieldSpec("queues", None, item_bytes=16),
    FieldSpec("heads", None, item_bytes=16),
    # Counters (the ``PortStats`` of protocols/egress.py).
    FieldSpec("enqueued", 0),
    FieldSpec("dequeued", 0),
    FieldSpec("dropped", 0),
    FieldSpec("marked", 0),
    FieldSpec("tx_bytes", 0),
    FieldSpec("max_queue_bytes", 0),
    FieldSpec("queue_samples", None, item_bytes=16),  # list per entity
    # Discipline state: Round Robin's pointer; Deficit Round Robin's
    # per-class deficits, visited class and quantum-granted flag.
    FieldSpec("rr_next", 0),
    FieldSpec("drr_deficit", None, item_bytes=16),
    FieldSpec("drr_current", 0),
    FieldSpec("drr_granted", False, item_bytes=1),
)

#: Bulk handles to the egress columns the TransmitSystem sweeps; its
#: replay unpacks them by position, in schema order.
EgressCols = namedtuple("EgressCols", [f.name for f in EGRESS_SCHEMA])


class World:
    """The ECS world: four tables plus shared (singleton) components."""

    def __init__(self) -> None:
        self.senders = SoATable("sender", SENDER_SCHEMA)
        self.receivers = SoATable("receiver", RECEIVER_SCHEMA)
        self.ingress = SoATable("ingress", INGRESS_SCHEMA)
        self.egress = SoATable("egress", EGRESS_SCHEMA)
        #: The egress column lists, taken once: a table's columns grow
        #: in place, so the handles live as long as the world does (a
        #: restored checkpoint brings its own).
        self.egress_cols = EgressCols(
            **self.egress.columns(EgressCols._fields))
        #: flow id -> sender / receiver entity index.
        self.sender_of_flow: Dict[int, int] = {}
        self.receiver_of_flow: Dict[int, int] = {}

    def table(self, kind: EntityKind) -> SoATable:
        return (self.senders, self.receivers, self.ingress, self.egress)[kind]

    def memory_bytes(self) -> int:
        """Modeled footprint of all component data."""
        return sum(
            t.memory_bytes()
            for t in (self.senders, self.receivers, self.ingress, self.egress)
        )
