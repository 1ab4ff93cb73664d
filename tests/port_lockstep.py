"""One egress port two ways, for lockstep tests.

The reference is the OOD baseline's ``EgressPort`` automaton driven
*event by event* — ``arrive`` on an arrival, ``complete_service`` then
``start_service`` when the line frees, service before arrival at equal
times — which shares no code with the engine's windowed replay over a
``world.egress`` row (``repro.core.systems.transmit.replay_window``).
Imported by ``tests/core/test_port_replay.py`` and
``tests/protocols/test_egress.py`` (``tests/`` is on ``sys.path`` through
the root ``conftest.py``).

The replay's only output is its delivery sink, so the helpers below
also watch it the way an engine's bus does (:func:`watching_bus`) and
read a window's emissions back from what it published
(:func:`replay_emissions`).
"""

from repro.core.ecs import World
from repro.core.events import EventColumns, register_window
from repro.core.instrument import OP_SERVICE, InstrumentationBus
from repro.core.systems.transmit import (
    LOCAL, contract_sort, port_static, replay_window,
)
from repro.protocols.egress import EgressPort, PortStats, TableClassifier
from repro.protocols.packet import F_CE, F_FLOW, F_ISACK, F_SEQ, packet_uid


def egress_rows(ports):
    """``(cols, statics)`` of one egress table with a row for every
    ``(iface, config, table)`` of ``ports`` — the row index is the
    interface id, which RED's hash reads; ``statics`` by interface id."""
    statics = {iface.iface_id: port_static(iface, config, table)
               for iface, config, table in ports}
    world = World()
    for i in range(max(statics) + 1):
        classes = statics[i].classes if i in statics else 1
        world.egress.add(
            queues=[[] for _ in range(classes)], heads=[0] * classes,
            drr_deficit=[0] * classes)
    return world.egress_cols, statics


def egress_row(iface, config, table):
    """``(cols, static, row)`` of ``iface`` alone in an egress table."""
    cols, statics = egress_rows([(iface, config, table)])
    return cols, statics[iface.iface_id], iface.iface_id


def automaton(iface, config, table):
    return EgressPort(iface, config, TableClassifier(table))


def drive_automaton(port, arrivals, end, emissions, drops, enq=None):
    """Feed ``port`` the sorted ``(time, prio, row)`` arrivals and every
    line-free event before ``end``, in the baseline's event order."""
    def start(now):
        started = port.start_service(now)
        if started is not None:
            emissions.append((started[0], now, started[1]))

    i = 0
    while True:
        arrival = arrivals[i][0] if i < len(arrivals) else None
        done = port.free_at if port.in_service else None
        if done is not None and done < end and (arrival is None
                                                or done <= arrival):
            port.complete_service()
            start(done)
        elif arrival is not None:
            t, _prio, row = arrivals[i]
            i += 1
            accepted = port.arrive(row, t)
            if accepted is None:
                drops.append((t, row))
            else:
                if enq is not None:
                    enq.append((t, accepted))
                if not port.in_service:
                    start(t)
        else:
            return


def automaton_state(port):
    """Everything the column row must agree on with ``port``."""
    sched = port.sched
    return {
        "free_at": port.free_at, "queued_bytes": port.queued_bytes,
        "avg_bytes": port.avg_bytes, "stats": port.stats,
        "qlen": len(sched), "queues": [list(q) for q in sched.queues],
        "heads": list(sched._heads),
        "rr_next": getattr(sched, "_next", 0),
        "drr_deficit": list(getattr(sched, "deficit",
                                    [0] * sched.num_classes)),
        "drr_current": getattr(sched, "_current", 0),
        "drr_granted": getattr(sched, "_granted", False),
    }


def row_state(cols, i):
    return {
        "free_at": cols.free_at[i], "queued_bytes": cols.queued_bytes[i],
        "avg_bytes": cols.avg_bytes[i],
        "stats": PortStats(
            cols.enqueued[i], cols.dequeued[i], cols.dropped[i],
            cols.marked[i], cols.tx_bytes[i], cols.max_queue_bytes[i]),
        "qlen": cols.qlen[i], "queues": [list(q) for q in cols.queues[i]],
        "heads": list(cols.heads[i]),
        "rr_next": cols.rr_next[i],
        "drr_deficit": list(cols.drr_deficit[i]),
        "drr_current": cols.drr_current[i],
        "drr_granted": cols.drr_granted[i],
    }


class Published(list):
    """Everything an observed sink publishes, in order: op-stream
    ``(code, location, uid)`` tuples and ``("enq" | "drop" | "deq",
    t, iface, ...)`` trace records, as the trace sink at ``level``."""

    def __init__(self, level):
        super().__init__()
        self.level = level

    def enq(self, *record):
        self.append(("enq",) + record)

    def drop(self, *record):
        self.append(("drop",) + record)

    def deq(self, *record):
        self.append(("deq",) + record)


def watching_bus(ops, level):
    """``(bus, published)``: an op probe when ``ops``, and the trace
    sink at ``level``, both appending to ``published``."""
    bus = InstrumentationBus()
    published = bus.set_trace(Published(level))
    if ops:
        bus.ops = lambda *op: published.append(op)
    return bus, published


def port_records(i, emissions, drops, enq, ops, level):
    """What an observed sink publishes for port ``i``'s window, from the
    automaton's ``(row, start, end)`` emissions, ``(t, row)`` drops and
    ``(t, accepted_row)`` ENQ pairs."""
    out = ([(OP_SERVICE, i, packet_uid(r)) for r, _s, _e in emissions]
           if ops else [])
    if level:
        out += [("enq", t, i, r[F_FLOW], r[F_ISACK], r[F_SEQ], r[F_CE])
                for t, r in enq]
        out += [("drop", t, i, r[F_FLOW], r[F_ISACK], r[F_SEQ])
                for t, r in drops]
        out += [("deq", s, i, r[F_FLOW], r[F_ISACK], r[F_SEQ])
                for r, s, _e in emissions]
    return out


def replay_emissions(cols, statics, ports, staged, start, end, drops):
    """``replay_window`` through an observed sink, read back as the
    automaton's ``(row, start, end)`` emissions: the start from each
    published ``deq`` record, the end from the matching delivery
    record's arrival less the port's link delay."""
    bus, published = watching_bus(False, 2)
    events, outbox = EventColumns(), {}
    replay_window(cols, statics, ports, staged, contract_sort, start, end,
                  drops, (events._buckets, events, register_window, 1, 0, {},
                          set(), {i: LOCAL for i in ports}, outbox, bus))
    deqs = [record for record in published if record[0] == "deq"]
    return [(row, deq[1], t - statics[deq[2]].delay_ps)
            for deq, (t, _peer, row) in zip(deqs, outbox.get(LOCAL, ()))]
