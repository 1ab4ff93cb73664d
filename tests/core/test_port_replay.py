"""Lockstep conformance of the column replay against the automaton.

``transmit.replay_window`` is the engine's only windowed port replay: it
restates the ``EgressPort`` automaton (``arrive`` / ``start_service``
and the four schedulers' ``enqueue`` / ``dequeue``) over one
``world.egress`` row.  These tests drive one row through it,
window after window, next to an ``EgressPort`` driven *event by event*
(``tests/port_lockstep.py`` — no code shared with the replay), so
queues, line state, the EWMA and the RR/DRR round carry over, and assert
that every observable agrees after each window: the sink's deliveries,
drops, every counter and queue sample, the line state, the class queues
with their heads, and the discipline state.  A port whose peer another
agent owns — or, in a window a bus observes, any port — hands an outbox
the same packets, as ``(arrival_ps, peer, row)`` records, and an
observed port publishes the automaton's ``OP_SERVICE`` ops and ENQ /
DROP / DEQ records.

Times sit on a 100 ns grid and sizes are multiples of 125 bytes (100 ns
at 10 Gb/s), so simultaneous arrivals and service starts that coincide
with an arrival — the tie the interleave must break service-first — are
the common case, not a corner.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from port_lockstep import (
    automaton, automaton_state, drive_automaton, egress_row, egress_rows,
    port_records, replay_emissions, row_state, watching_bus,
)
from repro.core.events import EventColumns, register_window
from repro.core.systems.transmit import (
    LOCAL, contract_key, contract_sort, replay_window,
)
from repro.protocols import AqmConfig, AqmKind, EgressConfig
from repro.protocols.packet import PRIO_ARRIVAL, ack_row, data_row
from repro.schedulers import SchedulerKind
from repro.topology import dumbbell
from repro.units import GBPS

GRID = 100_000          # ps: 125 bytes at 10 Gb/s
WINDOW = 20 * GRID
N_FLOWS = 6


@pytest.fixture(scope="module")
def iface():
    return dumbbell(1, bottleneck_rate_bps=10 * GBPS).iface(2, 1)


aqms = st.sampled_from([
    AqmConfig(kind=AqmKind.NONE),
    AqmConfig(kind=AqmKind.ECN_THRESHOLD, ecn_threshold_bytes=0),
    AqmConfig(kind=AqmKind.ECN_THRESHOLD, ecn_threshold_bytes=1_000),
    AqmConfig(kind=AqmKind.RED, red_min_bytes=250, red_max_bytes=2_500,
              red_max_p=0.5, red_weight_shift=1),
])

configs = st.builds(
    EgressConfig,
    buffer_bytes=st.sampled_from([500, 2_000, 6_000, 10 ** 9]),
    aqm=aqms,
    scheduler=st.sampled_from(list(SchedulerKind)),
    num_classes=st.integers(1, 4),
    # below, at and above the packet sizes drawn (125..1500 bytes)
    drr_quantum_bytes=st.sampled_from([100, 500, 1_500, 4_000]),
)

#: flow -> class, with ids below and above every class range
tables = st.lists(st.integers(-2, 6), min_size=N_FLOWS, max_size=N_FLOWS)

arrival = st.tuples(
    st.integers(0, WINDOW // GRID - 1),   # grid slot inside the window
    st.integers(0, N_FLOWS - 1),          # flow
    st.integers(0, 40),                   # seq
    st.integers(1, 12),                   # wire size in 125-byte units
    st.booleans(),                        # pure ACK (never marked)
)

windows = st.lists(st.lists(arrival, max_size=12), min_size=2, max_size=5)

#: What watches the sink: nothing, or ``(op probe?, trace level)``.
watches = st.sampled_from([None, (True, 0), (False, 2), (True, 2)])


def _rows(window_start, drawn):
    out = []
    for slot, flow, seq, units, is_ack in drawn:
        row = (ack_row(flow, seq, 0, 0, 1, 0) if is_ack
               else data_row(flow, seq, 0, 0, 0, 1))
        row = row[:3] + (units * 125,) + row[4:]
        out.append((window_start + slot * GRID, PRIO_ARRIVAL, row))
    return sorted(out, key=contract_key)


def _store_state(events):
    return ({win: (b.nodes, b.payloads)
             for win, b in events._buckets.items()},
            sorted(events._heap), events._queued)


@settings(max_examples=400, deadline=None)
@given(configs, tables, windows, watches, st.booleans())
# DRR's rarest transition: class 0 sends one small packet on a large
# quantum and empties while class 1 is backlogged, so its leftover
# deficit is forfeited on the next pick and shows in the row state.
@example(config=EgressConfig(buffer_bytes=10 ** 9,
                             aqm=AqmConfig(kind=AqmKind.NONE),
                             scheduler=SchedulerKind.DRR, num_classes=2,
                             drr_quantum_bytes=4_000),
         table=[0, 0, 0, 1, 1, 1],
         drawn=[[(0, 3, 0, 12, False), (1, 0, 0, 1, False),
                 (1, 3, 1, 12, False), (1, 3, 2, 12, False)], []],
         watch=None, remote=False)
def test_inline_replay_matches_reference(iface, config, table, drawn,
                                         watch, remote):
    ref = automaton(iface, config, table)
    cols, static, i = egress_row(iface, config, table)
    assert static.classes == len(ref.sched.queues)
    ref_events, cand_events = EventColumns(), EventColumns()
    lookahead = WINDOW // 2   # deliveries spread over several windows
    bus, published = watching_bus(*watch) if watch else (None, [])
    # Agent 1 owns the peer; an observed window collects a local port.
    owner = 1 if remote else LOCAL if watch else None
    for index, drawn_window in enumerate(drawn):
        start = index * WINDOW
        end = start + WINDOW
        arrivals = _rows(start, drawn_window)
        floor = end // lookahead

        ref_em, ref_drops, ref_enq = [], [], []
        drive_automaton(ref, arrivals, end, ref_em, ref_drops, ref_enq)
        ref_events.insert_arrivals(iface.peer_node, ref_em, iface.delay_ps,
                                   lookahead, floor)

        cand_drops = []
        node_events, active, outbox = {}, set(), {}
        n = replay_window(cols, {i: static}, (i,), {i: arrivals},
                          contract_sort, start, end, cand_drops,
                          (cand_events._buckets, cand_events, register_window,
                           lookahead, floor, node_events, active, {i: owner},
                           outbox, bus))
        assert n == len(ref_em)
        if owner is None:
            assert outbox == {}
            assert _store_state(cand_events) == _store_state(ref_events)
        else:
            assert outbox == ({owner: [(e + iface.delay_ps, iface.peer_node, r)
                                       for r, _s, e in ref_em]} if n else {})
            assert not cand_events
        assert published == (port_records(i, ref_em, ref_drops, ref_enq,
                                           *watch) if watch else [])
        published.clear()
        assert cand_drops == ref_drops
        assert row_state(cols, i) == automaton_state(ref)
        # The sink commits the port's count and state.
        assert node_events == ({iface.node: n} if n else {})
        assert active == ({i} if cols.qlen[i] else set())


def test_long_queue_compacts_like_the_scheduler(iface):
    """``Scheduler._pop`` trims a queue once its head passes 64 and half
    the list; the replay must trim at the same dequeue, and a 200-packet
    backlog must drain over the following windows."""
    table = [1] * N_FLOWS
    burst = [(0, PRIO_ARRIVAL, data_row(0, seq, 85, 0, 0, 1))
             for seq in range(200)]
    for kind in SchedulerKind:
        config = EgressConfig(buffer_bytes=10 ** 9,
                              aqm=AqmConfig(AqmKind.NONE),
                              scheduler=kind, num_classes=2)
        ref = automaton(iface, config, table)
        cols, static, i = egress_row(iface, config, table)
        for index in range(12):
            start = index * WINDOW
            arrivals = burst if index == 0 else []
            ref_em = []
            drive_automaton(ref, arrivals, start + WINDOW, ref_em, [])
            assert replay_emissions(cols, {i: static}, (i,), {i: arrivals},
                                    start, start + WINDOW, []) == ref_em
            assert row_state(cols, i) == automaton_state(ref)
        assert cols.qlen[i] == 0 and cols.dequeued[i] == 200


# --- one call over a port list == one call per port -------------------------

#: Four ports of one dumbbell — two switch trunks, a host NIC, a switch
#: downlink — so deliveries land on different peers of one event store.
PORT_IDS = (6, 9, 0, 7)

port_lists = st.lists(st.tuples(configs, tables), min_size=2, max_size=4)

#: Per window, per port: the drawn arrivals.
port_windows = st.lists(st.lists(st.lists(arrival, max_size=8),
                                 min_size=4, max_size=4),
                        min_size=2, max_size=4)


def _replay_run(topo, ports, drawn, cut, watch, remote,
                one_call):
    ids = PORT_IDS[:len(ports)]
    cols, statics = egress_rows(
        [(topo.interfaces[i], config, table)
         for i, (config, table) in zip(ids, ports)])
    # With ``remote``, agents 1 and 3 own the peers of the second and
    # fourth port; an observed window collects the local ones too.
    owners = {i: (k if remote and k % 2 else LOCAL if watch else None)
              for k, i in enumerate(ids)}
    bus, published = watching_bus(*watch) if watch else (None, [])
    events, node_events, active, outbox = EventColumns(), {}, set(), {}
    drops = []
    lookahead = WINDOW // 2
    for index, per_port in enumerate(drawn):
        start = index * WINDOW
        # The last window may end early, as a duration cut clamps it.
        end = start + (cut if cut and index == len(drawn) - 1 else WINDOW)
        staged = {}
        for i, window in zip(ids, per_port):
            # Reversed, so the replay's own sort has ties to break.
            rows = [a for a in _rows(start, window) if a[0] < end][::-1]
            if rows:
                staged[i] = rows
        planned = sorted(set(staged) | {i for i in ids if cols.qlen[i]})
        sink = (events._buckets, events, register_window, lookahead,
                end // lookahead, node_events, active, owners, outbox, bus)
        for port_list in ([planned] if one_call else [[i] for i in planned]):
            replay_window(cols, statics, port_list, staged, contract_sort,
                          start, end, drops, sink)
    return ([row_state(cols, i) for i in ids], _store_state(events),
            node_events, active, published, drops, outbox)


FIFO_ECN = EgressConfig(buffer_bytes=500, aqm=AqmConfig(
    kind=AqmKind.ECN_THRESHOLD, ecn_threshold_bytes=0))
SP, RR, DRR = (EgressConfig(buffer_bytes=10 ** 9, scheduler=kind,
                            num_classes=2, drr_quantum_bytes=500)
               for kind in (SchedulerKind.SP, SchedulerKind.RR,
                            SchedulerKind.DRR))
#: Three 375-byte packets at once on the FIFO port: the third is dropped.
BURST = [(0, 0, 0, 3, False), (0, 1, 0, 3, False), (0, 2, 0, 3, False)]
MIXED = [(1, 0, 1, 12, False), (1, 3, 2, 4, False), (2, 4, 3, 8, True)]


@settings(max_examples=200, deadline=None)
@given(port_lists, port_windows, st.sampled_from([None, 1, GRID, 7 * GRID]),
       watches, st.booleans())
@example(ports=[(FIFO_ECN, [0] * N_FLOWS), (SP, [0, 1] * 3),
                (RR, [0, 1] * 3), (DRR, [1, 0] * 3)],
         drawn=[[BURST, MIXED, MIXED, MIXED], [MIXED, [], BURST, MIXED]],
         cut=5 * GRID, watch=None, remote=True)
@example(ports=[(FIFO_ECN, [0] * N_FLOWS), (SP, [0, 1] * 3),
                (RR, [0, 1] * 3), (DRR, [1, 0] * 3)],
         drawn=[[BURST, MIXED, MIXED, MIXED], [MIXED, [], BURST, MIXED]],
         cut=5 * GRID, watch=(True, 2), remote=False)
def test_one_call_over_a_port_list_equals_one_call_per_port(
        ports, drawn, cut, watch, remote):
    """The engine hands the replay a window's whole port list; a port
    at a time must come to the same.  Every ``world.egress`` column,
    every event bucket (insertion order included), every outbox list
    (port order x emission order), the node counts, the active set, the
    published records (port order) and the drops must agree."""
    topo = dumbbell(2, bottleneck_rate_bps=10 * GBPS)
    args = (topo, ports, drawn, cut, watch, remote)
    one = _replay_run(*args, one_call=True)
    assert one == _replay_run(*args, one_call=False)
    # Every dequeue is delivered somewhere; only a watched sink publishes.
    assert one[1][0] or one[6] or not one[2]
    assert watch or one[4] == []
