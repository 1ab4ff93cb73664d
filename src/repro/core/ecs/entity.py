"""Entity model: the entity kinds of DONS (§3.2) that carry state.

An entity is just a dense index into its kind's :class:`SoATable` —
"usually implemented as a unique identifier", as the paper puts it.
:class:`World` owns the three tables.  A sender's and a receiver's
entity index is its flow id (flow ids are dense and each engine builds
one row of each per flow, in id order); a port's is its interface id.
The tables hold what the systems write: a flow's endpoints, size,
start and transport live once, in the engine's ``FlowLists``.
The paper's fourth kind, the ingress port, holds nothing a system
reads: forwarding is the FIB, a shared component, so it has no table
here.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum

from .components import FieldSpec, SoATable


class EntityKind(IntEnum):
    """The paper's entities that own a table."""

    SENDER = 0
    RECEIVER = 1
    EGRESS_PORT = 2


#: Component schemas.  Senders carry the DCTCP/UDP state machine fields
#: (and the flow's segment total, which the receiver reads too);
#: receivers the reassembly state; egress ports their line, queue,
#: counter and discipline state.
SENDER_SCHEMA = (
    FieldSpec("total_segs", 0),
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
    FieldSpec("needs_ack", 0),
    FieldSpec("expected", 0),
    FieldSpec("unique_received", 0),
    FieldSpec("complete_ps", -1),
    # Segments past a gap: None while there is none, a set until it closes.
    FieldSpec("out_of_order", None, item_bytes=16),
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
    """The ECS world: three tables plus shared (singleton) components."""

    def __init__(self) -> None:
        self.senders = SoATable("sender", SENDER_SCHEMA)
        self.receivers = SoATable("receiver", RECEIVER_SCHEMA)
        self.egress = SoATable("egress", EGRESS_SCHEMA)
        #: The column lists, taken once: a table's columns grow in
        #: place, so the handles live as long as the world does (a
        #: restored checkpoint brings its own).
        self.sender_cols = self.senders.columns(
            [f.name for f in SENDER_SCHEMA])
        self.receiver_cols = self.receivers.columns(
            [f.name for f in RECEIVER_SCHEMA])
        self.egress_cols = EgressCols(
            **self.egress.columns(EgressCols._fields))

    def table(self, kind: EntityKind) -> SoATable:
        return (self.senders, self.receivers, self.egress)[kind]

    def memory_bytes(self) -> int:
        """Modeled footprint of all component data."""
        return sum(t.memory_bytes()
                   for t in (self.senders, self.receivers, self.egress))
