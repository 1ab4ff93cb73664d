"""The egress-port automaton: queueing, AQM, scheduling, serialization.

The OOD baseline instantiates one :class:`EgressPort` per directed
interface and drives it *event by event*: ``arrive`` on packet arrival,
``start_service``/``complete_service`` around PORT_DONE events.  The
automaton's observable behaviour is a pure function of the sequence of
``arrive``/service actions it sees.

The DOD engine keeps the same state as one row of ``world.egress`` and
replays it *window by window*
(:func:`repro.core.systems.transmit.replay_window`, the TransmitSystem
inner loop of §3.3/Appendix C): as long as both see the same
chronologically-ordered action sequence (the ordering contract in
``repro.protocols.packet``), they transmit identical packets at
identical times.  This automaton is the reference that replay is held
to, window by window (``tests/core/test_port_replay.py``) and end to end
(the conformance oracles); a semantic change here must be mirrored
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .aqm import AqmConfig, ewma_update, should_mark
from .packet import F_FLOW, F_SIZE, Row, with_ce
from ..errors import SimulationError
from ..schedulers import Scheduler, SchedulerKind, make_scheduler
from ..topology import Interface
from ..units import serialization_time_ps


@dataclass(frozen=True)
class EgressConfig:
    """Static configuration of an egress queue."""

    buffer_bytes: int = 4 * 1024 * 1024
    aqm: AqmConfig = field(default_factory=AqmConfig)
    scheduler: SchedulerKind = SchedulerKind.FIFO
    num_classes: int = 1
    drr_quantum_bytes: int = 1_500


@dataclass
class PortStats:
    """Counters a port accumulates; inputs to the machine and cost models."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    marked: int = 0
    tx_bytes: int = 0
    max_queue_bytes: int = 0


class TableClassifier:
    """Maps a packet to its traffic class via the flow-priority table.

    A plain picklable object (not a closure) so engine state — which
    holds one classifier per port — can be checkpointed (§8).
    """

    __slots__ = ("classes",)

    def __init__(self, classes) -> None:
        self.classes = list(classes)

    def __call__(self, row: Row) -> int:
        return self.classes[row[F_FLOW]]


class EgressPort:
    """State machine of one egress interface (see module docstring)."""

    __slots__ = (
        "iface", "config", "classifier", "sched", "queued_bytes",
        "avg_bytes", "free_at", "in_service", "stats",
    )

    def __init__(
        self,
        iface: Interface,
        config: EgressConfig,
        classifier: Optional[Callable[[Row], int]] = None,
    ) -> None:
        self.iface = iface
        self.config = config
        self.classifier = classifier
        self.sched: Scheduler = make_scheduler(
            config.scheduler, config.num_classes, config.drr_quantum_bytes
        )
        self.queued_bytes = 0
        self.avg_bytes = 0
        self.free_at = 0          # time the line becomes free
        self.in_service = False   # baseline-engine service flag
        self.stats = PortStats()

    # --- shared primitives ------------------------------------------------

    def serialization_ps(self, row: Row) -> int:
        return serialization_time_ps(row[F_SIZE], self.iface.rate_bps)

    def arrive(self, row: Row, now: int) -> Optional[Row]:
        """Handle a packet arriving at this queue at ``now``.

        Returns the enqueued row (possibly CE-marked) or ``None`` on tail
        drop.  The marking decision sees the queue occupancy *before* the
        packet, per the DCTCP convention.
        """
        size = row[F_SIZE]
        cfg = self.config
        self.avg_bytes = ewma_update(
            self.avg_bytes, self.queued_bytes, cfg.aqm.red_weight_shift
        )
        if self.queued_bytes + size > cfg.buffer_bytes:
            self.stats.dropped += 1
            return None
        if should_mark(cfg.aqm, row, self.queued_bytes, self.avg_bytes,
                       self.iface.iface_id):
            row = with_ce(row)
            self.stats.marked += 1
        cls = self.classifier(row) if self.classifier is not None else 0
        self.sched.enqueue(cls, row)
        self.queued_bytes += size
        self.stats.enqueued += 1
        if self.queued_bytes > self.stats.max_queue_bytes:
            self.stats.max_queue_bytes = self.queued_bytes
        return row

    def _dequeue(self) -> Optional[Row]:
        row = self.sched.dequeue()
        if row is not None:
            self.queued_bytes -= row[F_SIZE]
            self.stats.dequeued += 1
            self.stats.tx_bytes += row[F_SIZE]
        return row

    # --- event-driven interface (OOD baseline) ----------------------------

    def start_service(self, now: int) -> Optional[Tuple[Row, int]]:
        """Begin transmitting the scheduler's pick at ``now``.

        Only legal when the port is idle; returns ``(row, end_ps)`` or
        ``None`` if the queue is empty.
        """
        if self.in_service:
            raise SimulationError(
                f"iface {self.iface.iface_id}: start_service while busy"
            )
        if now < self.free_at:
            raise SimulationError(
                f"iface {self.iface.iface_id}: service at {now} before "
                f"line free at {self.free_at}"
            )
        if len(self.sched) == 0:
            # Never issue empty dequeues: stateful schedulers (DRR) must
            # see exactly the same call sequence in both engines.
            return None
        row = self._dequeue()
        if row is None:
            return None
        end = now + self.serialization_ps(row)
        self.free_at = end
        self.in_service = True
        return row, end

    def complete_service(self) -> None:
        """Mark the in-flight packet as fully serialized (PORT_DONE)."""
        if not self.in_service:
            raise SimulationError(
                f"iface {self.iface.iface_id}: completion while idle"
            )
        self.in_service = False
