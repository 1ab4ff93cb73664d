"""Lockstep twin of the one window plan.

``plan_window`` classifies a window's raw insert-ordered columns in one
traversal.  Its reference, written here, is the pipeline it replaced:
group the window's entries by node first (the scalar calendar's
``{node: [entry, ...]}``, the duration cut applied per node), then walk
the grouped dict once per system the way the per-system planners did —
hosts' data deliveries sorted by node for the ACK system, hosts'
ACKs / flow starts / wakeup visits by flow for the Send system,
switches' arrivals sorted by node for the Forward system.  The property
holds the two equal over generated windows: hosts and switches, data and
ACK arrivals, ``FLOW_START``, ``TIMER`` / ``UDP`` visits, negative bare
wakeup ids, with and without a cut inside the window.

Entries respect what the engine guarantees and the plan's argument
rests on: a flow's ACKs and its start all land on its one source host.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.engine import DodEngine
from repro.core.events import EventColumns
from repro.core.systems.ack import _delivery_key
from repro.core.window import (
    ENTRY_ARRIVAL, ENTRY_FLOW_START, ENTRY_TIMER, ENTRY_UDP, WindowContext,
    plan_window,
)
from repro.protocols.packet import F_FLOW, F_ISACK, F_SEQ
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow

try:  # the numpy kernel set's ACK sort, where numpy is installed
    from repro.core.systems.vectorized import sort_contract
except ImportError:
    sort_contract = None

N_FLOWS = 6
WIN = 3


@pytest.fixture(scope="module")
def engine():
    topo = dumbbell(3)
    hosts = topo.hosts
    flows = [Flow(f, hosts[f % 3], hosts[3 + f % 3], 30_000, 0)
             for f in range(N_FLOWS)]
    eng = DodEngine(make_scenario(topo, flows))
    eng.build()
    return eng


# --- strategies -----------------------------------------------------------

times = st.integers(0, 40)  # few values: ties are the interesting case
small = st.integers(0, 3)
flow_ids = st.integers(0, N_FLOWS - 1)


def row(flow, is_ack, seq, ce):
    # flow, is_ack, seq, size, ce, ece, send_ts, src, dst
    return (flow, is_ack, seq, 1500, ce, 0, 7, 0, 1)


def data_at(hosts):
    return st.builds(
        lambda node, t, prio, f, seq, ce:
            (node, (ENTRY_ARRIVAL, t, prio, row(f, 0, seq, ce))),
        st.sampled_from(hosts), times, small, flow_ids, small, small)


def window_entries(topo):
    """``(node, entry)`` pairs of one window."""
    hosts, switches = list(topo.hosts), list(topo.switches)
    src_of = lambda f: hosts[f % 3]  # noqa: E731 — matches the fixture
    data_at_host = data_at(hosts)
    ack_at_source = st.builds(
        lambda t, prio, f, seq, ce:
            (src_of(f), (ENTRY_ARRIVAL, t, prio, row(f, 1, seq, ce))),
        times, small, flow_ids, small, small)
    any_at_switch = st.builds(
        lambda node, t, prio, f, is_ack, seq:
            (node, (ENTRY_ARRIVAL, t, prio, row(f, is_ack, seq, 0))),
        st.sampled_from(switches), times, small, flow_ids,
        st.integers(0, 1), small)
    start = st.builds(
        lambda t, f: (src_of(f), (ENTRY_FLOW_START, t, f)), times, flow_ids)
    visit = st.builds(
        lambda node, tag, f: (node, (tag, f)),
        st.sampled_from(hosts + switches),
        st.sampled_from([ENTRY_TIMER, ENTRY_UDP]),
        st.integers(-2, N_FLOWS - 1))  # negative: bare window wakeup
    return st.lists(
        st.one_of(data_at_host, ack_at_source, any_at_switch, start, visit),
        max_size=120)


# --- the reference: group by node, then classify per system ---------------

def grouped(pairs, t_cut):
    out = {}
    for node, e in pairs:
        out.setdefault(node, []).append(e)
    if t_cut is None:
        return out
    return {
        node: kept for node, entries in out.items()
        if (kept := [e for e in entries
                     if e[0] > ENTRY_FLOW_START or e[1] <= t_cut])
    }


def contract(a):
    return (a[0], a[1], a[2][F_FLOW], a[2][F_ISACK], a[2][F_SEQ])


def ref_plan_ack(nodes, node_entries):
    work = []
    for node, entries in sorted(node_entries.items()):
        if not nodes[node].is_host:
            continue
        data = [(e[1], e[2], e[3]) for e in entries
                if e[0] == ENTRY_ARRIVAL and not e[3][F_ISACK]]
        if data:
            data.sort(key=contract)
            work.append((node, data))
    return work


def ref_plan_send(nodes, node_entries):
    acks_of, starts, visits, deliver_trace = {}, {}, [], []
    for node, entries in node_entries.items():
        if not nodes[node].is_host:
            continue
        for e in entries:
            tag = e[0]
            if tag == ENTRY_ARRIVAL:
                if e[3][F_ISACK]:
                    acks_of.setdefault(e[3][F_FLOW], []).append((e[1], e[3]))
                    deliver_trace.append((e[1], node, e[3]))
            elif tag == ENTRY_FLOW_START:
                starts[e[2]] = e[1]
            elif e[1] >= 0:
                visits.append(e[1])
    flow_ids = sorted(set(acks_of) | set(starts) | set(visits))
    return flow_ids, acks_of, starts, deliver_trace


def ref_plan_forward(nodes, node_entries):
    work = []
    for node, entries in sorted(node_entries.items()):
        if nodes[node].is_host:
            continue
        arrivals = [(e[1], e[2], e[3]) for e in entries
                    if e[0] == ENTRY_ARRIVAL]
        if arrivals:
            work.append((node, arrivals))
    return work


def published(deliver_trace):
    """The order ``trace_ack_deliveries`` hands the bus."""
    return sorted(deliver_trace, key=lambda d: (
        d[0], d[2][F_FLOW], d[2][F_ISACK], d[2][F_SEQ]))


# --- the property ----------------------------------------------------------

@given(data=st.data(), t_cut=st.one_of(st.none(), times))
@settings(max_examples=200, deadline=None)
def test_plan_window_equals_grouped_reference(engine, data, t_cut):
    topo = engine.scenario.topology
    pairs = data.draw(window_entries(topo))
    # A burst at one host, so its slice can cross the size where the
    # numpy sort switches from list.sort to lexsort.
    burst = data.draw(st.one_of(st.just([]), st.lists(
        data_at(topo.hosts[:1]), min_size=32, max_size=40)))
    at = data.draw(st.integers(0, len(pairs)))
    pairs[at:at] = burst
    events = EventColumns()
    for node, e in pairs:
        events.insert(WIN, node, e)
    ctx = WindowContext(WIN, 0, 41,
                        events.pop_window_columns(WIN, t_cut))
    ack_work, (flow_ids, acks_of, starts, deliver_trace), forward_work = \
        plan_window(engine, ctx)

    node_entries = grouped(pairs, t_cut)
    want_ack = ref_plan_ack(topo.nodes, node_entries)
    want_flows, want_acks, want_starts, want_trace = ref_plan_send(
        topo.nodes, node_entries)

    # Same ACK work after each kernel set's sort.
    assert [(n, sorted(d, key=_delivery_key)) for n, d in ack_work] \
        == want_ack
    if sort_contract is not None:
        assert [(n, sort_contract(list(d))) for n, d in ack_work] \
            == want_ack

    assert flow_ids == want_flows
    assert acks_of == want_acks
    assert starts == want_starts
    assert published(deliver_trace) == published(want_trace)
    assert forward_work == ref_plan_forward(topo.nodes, node_entries)


def test_cut_filter_drops_only_timestamped_entries_past_it(engine):
    """The one duration-cut filter: arrivals and flow starts past the
    cut go, wakeups (which carry a flow id, not a time) stay."""
    host = engine.scenario.topology.hosts[0]
    events = EventColumns()
    events.insert(WIN, host, (ENTRY_FLOW_START, 10, 0))
    events.insert(WIN, host, (ENTRY_FLOW_START, 11, 3))
    events.insert(WIN, host, (ENTRY_UDP, 40))
    events.insert(WIN, host, (ENTRY_ARRIVAL, 11, 0, row(0, 1, 0, 0)))
    nodes, payloads = events.pop_window_columns(WIN, 10)
    assert nodes == [host, host]
    assert payloads == [(ENTRY_FLOW_START, 10, 0), (ENTRY_UDP, 40)]
