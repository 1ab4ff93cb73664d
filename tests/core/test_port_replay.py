"""Lockstep conformance of the inline port replay.

``vectorized.replay_window_inline`` restates
``EgressPort.replay_window`` (and the ``arrive`` / ``_dequeue`` /
``Scheduler.enqueue`` / ``_pop`` helpers under it) over local variables
for FIFO and Strict Priority ports.  These tests drive twin ports — one
through the reference method, one through the inline replay — over
several consecutive windows, so queues, line state and the EWMA carry
over, and assert that every observable agrees after each window:
emissions or sink deliveries, drops, ENQ records, every ``PortStats``
field, the port's line state, and the scheduler's queues, heads and
length.

Times sit on a 100 ns grid and sizes are multiples of 125 bytes (100 ns
at 10 Gb/s), so simultaneous arrivals and service starts that coincide
with an arrival — the tie the interleave must break service-first — are
the common case, not a corner.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.events import EventColumns, register_window
from repro.core.systems.vectorized import (
    _port_static, replay_window_inline, sort_contract,
)
from repro.protocols import AqmConfig, AqmKind, EgressConfig, EgressPort
from repro.protocols.egress import TableClassifier
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
    scheduler=st.sampled_from([SchedulerKind.FIFO, SchedulerKind.SP]),
    num_classes=st.integers(1, 4),
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


def _rows(window_start, drawn):
    out = []
    for slot, flow, seq, units, is_ack in drawn:
        row = (ack_row(flow, seq, 0, 0, 1, 0) if is_ack
               else data_row(flow, seq, 0, 0, 0, 1))
        row = row[:3] + (units * 125,) + row[4:]
        out.append((window_start + slot * GRID, PRIO_ARRIVAL, row))
    return sort_contract(out)


def _port_state(port):
    sched = port.sched
    return (port.queued_bytes, port.avg_bytes, port.free_at, port.stats,
            [list(q) for q in sched.queues], list(sched._heads), sched._len)


def _store_state(events):
    return ({win: (b.nodes, b.payloads)
             for win, b in events._buckets.items()},
            sorted(events._heap), events._queued)


@settings(max_examples=300, deadline=None)
@given(configs, tables, windows, st.booleans(), st.booleans(),
       st.booleans())
def test_inline_replay_matches_reference(iface, config, table, drawn,
                                         sample_queue, use_sink, trace):
    ref = EgressPort(iface, config, TableClassifier(table), sample_queue)
    cand = EgressPort(iface, config, TableClassifier(table), sample_queue)
    static = _port_static(cand)
    assert static.classes == (1 if config.scheduler == SchedulerKind.FIFO
                              else config.num_classes)
    ref_events, cand_events = EventColumns(), EventColumns()
    lookahead = WINDOW // 2   # deliveries spread over several windows
    for index, drawn_window in enumerate(drawn):
        start = index * WINDOW
        end = start + WINDOW
        arrivals = _rows(start, drawn_window)
        floor = end // lookahead

        ref_em, ref_drops = [], []
        ref_enq = [] if trace else None
        ref.replay_window(arrivals, start, end, ref_em, ref_drops, ref_enq)
        ref_events.insert_arrivals(iface.peer_node, ref_em, iface.delay_ps,
                                   lookahead, floor)

        cand_em, cand_drops = [], []
        cand_enq = [] if trace else None
        sink = ((cand_events._buckets, cand_events, register_window,
                 lookahead, floor) if use_sink else None)
        n = replay_window_inline(cand, static, arrivals, start, end,
                                 cand_em, cand_drops, cand_enq, sink)
        assert n == len(ref_em)
        if use_sink:
            assert cand_em == []
        else:
            assert cand_em == ref_em
            cand_events.insert_arrivals(iface.peer_node, cand_em,
                                        iface.delay_ps, lookahead, floor)

        assert _store_state(cand_events) == _store_state(ref_events)
        assert cand_drops == ref_drops
        assert cand_enq == ref_enq
        assert _port_state(cand) == _port_state(ref)


def test_long_queue_compacts_like_the_scheduler(iface):
    """``Scheduler._pop`` trims a queue once its head passes 64 and half
    the list; the inline pop must trim at the same dequeue."""
    config = EgressConfig(buffer_bytes=10 ** 9, aqm=AqmConfig(AqmKind.NONE),
                          scheduler=SchedulerKind.SP, num_classes=2)
    table = [1] * N_FLOWS
    ref = EgressPort(iface, config, TableClassifier(table))
    cand = EgressPort(iface, config, TableClassifier(table))
    static = _port_static(cand)
    burst = [(0, PRIO_ARRIVAL, data_row(0, seq, 85, 0, 0, 1))
             for seq in range(200)]
    for index in range(12):
        start = index * WINDOW
        arrivals = burst if index == 0 else []
        ref_em, cand_em = [], []
        ref.replay_window(arrivals, start, start + WINDOW, ref_em, [], None)
        replay_window_inline(cand, static, arrivals, start, start + WINDOW,
                             cand_em, [])
        assert cand_em == ref_em
        assert _port_state(cand) == _port_state(ref)
    assert ref.sched._len == 0 and ref.stats.dequeued == 200


@pytest.mark.parametrize("kind", [SchedulerKind.RR, SchedulerKind.DRR])
def test_stateful_disciplines_stay_on_the_reference(iface, kind):
    config = EgressConfig(scheduler=kind, num_classes=2)
    port = EgressPort(iface, config, TableClassifier([0] * N_FLOWS))
    assert _port_static(port).classes is None


def test_opaque_classifier_stays_on_the_reference(iface):
    config = EgressConfig(scheduler=SchedulerKind.SP, num_classes=2)
    assert _port_static(EgressPort(iface, config, lambda row: 1)).classes is None
    assert _port_static(EgressPort(iface, config, None)).classes is None
