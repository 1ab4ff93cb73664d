"""The window pass on the WAN-twin small sibling: what the route cache
may hold, what survives a checkpoint or a migration, that no counter is
left to say which UDP schedule fired, and a DRR run served by the column
replay (5,000 one-segment UDP flows in two classes on Abilene, run to
completion at ``TraceLevel.NONE`` — the shape of the benchmark's
``wan_twin_35k``).  Then the one transmit path, traced or not: a port
plan of due ports only, one ACK sweep and one port replay a window, the
one sort hook, the context shape and the one dispatch."""

import pickle
import sys
from collections import Counter
from dataclasses import fields, replace

import pytest

from repro.bench.workloads import wan_twin_smoke
from repro.cluster.agent import AgentSpec
from repro.cluster import ClusterEngine
from repro.conformance.oracles import result_parts
from repro.core.checkpoint import CheckpointingEngine, take_checkpoint
from repro.core import engine as engine_mod
from repro.core.engine import DodEngine
from repro.core.runner import EngineRunner
from repro.core.systems import ack as ack_mod
from repro.core.systems import transmit as transmit_mod
from repro.core.systems.transmit import replay_window
from repro.core.window import WindowContext
from repro.des import OodSimulator
from repro.des.partition_types import contiguous_partition, random_partition
from repro.metrics import TraceLevel
from repro.metrics.timeline import run_report
from repro.scenario import make_scenario
from repro.schedulers import SchedulerKind
from repro.topology import dumbbell, fattree
from repro.traffic import Flow, permutation
from repro.units import GBPS, us


@pytest.fixture(scope="module")
def scenario():
    return wan_twin_smoke(5_000, duration_us=60_000, seed=1)


@pytest.fixture(scope="module")
def reference(scenario):
    engine = DodEngine(scenario)
    return engine, engine.run()


def route_bounds(scenario):
    """``(nodes x hosts, ECMP fan-outs the flows cross)`` — the most
    destination-keyed and flow-keyed entries any cache may hold."""
    topo, fib = scenario.topology, scenario.fib
    fanouts = 0
    for flow in scenario.flows:
        for node in fib.path(flow.src, flow.dst, flow.flow_id)[1:-1]:
            fanouts += len(fib.ports(node, flow.dst)) > 1
    return topo.num_nodes * len(topo.hosts), fanouts


def assert_routes_bounded(engine, bounds):
    first_flow_key = engine.scenario.topology.num_nodes ** 2
    by_dst = sum(key < first_flow_key for key in engine._routes)
    assert by_dst <= bounds[0]
    assert len(engine._routes) - by_dst <= bounds[1]


def test_route_cache_stays_bounded(scenario, reference):
    bounds = route_bounds(scenario)
    assert 0 < bounds[1] < len(scenario.flows)  # Abilene has real ECMP
    engine = DodEngine(scenario)
    engine.build()
    windows = 0
    while engine.advance():
        windows += 1
        if windows % 100 == 0:
            assert_routes_bounded(engine, bounds)
    results = engine.finalize()
    assert_routes_bounded(engine, bounds)
    assert engine._routes and results.events == reference[1].events
    # Every flow is one packet: a (node, dst, flow) key could never hit.
    assert len(engine._routes) < results.events.forward // 20


def test_route_cache_is_rebuilt_not_checkpointed(scenario, reference):
    bounds = route_bounds(scenario)
    engine = DodEngine(scenario)
    engine.build()
    for _ in range(400):
        assert engine.advance()
    assert engine._routes
    checkpoint = take_checkpoint(engine, engine._cursor)
    state = pickle.loads(checkpoint.payload)
    assert not any("route" in key or "flow_lists" in key for key in state)
    assert b"FlowLists" not in checkpoint.payload

    fresh = CheckpointingEngine(scenario)
    fresh.build()
    assert fresh._routes == {}
    results = fresh.resume_from(checkpoint)
    # The flow lists are the builder's, not the checkpoint's.
    assert fresh._routes and fresh.flow_lists == engine.flow_lists
    assert_routes_bounded(fresh, bounds)
    assert results.events == reference[1].events
    assert results.flows == reference[1].flows


def test_route_cache_stays_bounded_across_migration(scenario, reference):
    bounds = route_bounds(scenario)
    topo = scenario.topology
    first = contiguous_partition(topo, 2)
    specs = [AgentSpec(a, scenario, first) for a in range(2)]
    controller = ClusterEngine(
        specs, schedule=[(300, random_partition(topo, 2, seed=5))])
    merged = EngineRunner(controller).run()
    assert controller.migrations[0].nodes_moved > 0
    assert merged.events == reference[1].events
    for agent in controller.transport.engines:
        assert agent._routes
        assert_routes_bounded(agent, bounds)


def test_counters_say_which_paths_fired(scenario, reference):
    """There is one UDP schedule, so no counter says which one ran and
    the run report has no section for it."""
    engine = reference[0]
    assert not [name for name in engine.bus.counters
                if name.startswith("send.") and "schedules" in name]
    assert "fused" not in run_report(engine.bus)


def test_drr_ports_replay_over_the_columns(scenario):
    """Deficit Round Robin state is three columns of the egress row: the
    one replay serves it without entering the scheduler objects of the
    OOD automaton, and lands on the reference's results."""
    drr = replace(scenario, switch_egress=replace(
        scenario.switch_egress, scheduler=SchedulerKind.DRR))
    scheduler_calls = []

    def profiler(frame, event, _arg):
        if event == "call" and "/repro/schedulers/" in frame.f_code.co_filename:
            scheduler_calls.append(frame.f_code.co_name)

    engine = DodEngine(drr)
    sys.setprofile(profiler)
    try:
        results = engine.run()
    finally:
        sys.setprofile(None)
    assert scheduler_calls == []
    assert results.events.total > 0

    ood = OodSimulator(drr)
    ood_results = ood.run()
    assert (result_parts(results, [engine.port_stats(p.iface.iface_id)
                                   for p in ood.ports])
            == result_parts(ood_results, [p.stats for p in ood.ports]))


# --- one window pass, one transmit path -----------------------------------

def slow_nic_engine(trace_level):
    """One DCTCP flow behind a 1 Gb/s NIC on 1 us windows: the initial
    window of ten segments queues at the NIC, and each takes ~11.5
    windows to serialize."""
    topo = dumbbell(2, edge_rate_bps=1 * GBPS)
    engine = DodEngine(make_scenario(topo, [Flow(0, 0, 2, 30_000, 0)]),
                       trace_level)
    engine.build()
    return engine, topo.host_iface(0).iface_id


@pytest.mark.parametrize("trace_level", [TraceLevel.NONE, TraceLevel.FULL])
def test_busy_unfed_port_costs_no_replay(trace_level, monkeypatch):
    """A port that is busy, was fed nothing and whose head outlasts the
    window is a provable no-op: the sink does not replay it, traced or
    not."""
    engine, nic = slow_nic_engine(trace_level)
    assert engine.advance()  # window 0: ten segments staged, one in service
    cols = engine.world.egress_cols
    assert cols.qlen[nic] == 9 and cols.free_at[nic] > 10 * engine.lookahead

    replays = []

    def counting(cols, static, ports, *args, **kwargs):
        replays.extend(ports)
        return replay_window(cols, static, ports, *args, **kwargs)

    monkeypatch.setattr(transmit_mod, "replay_window", counting)
    for _ in range(5):
        assert engine.advance()
    assert engine._cursor == 5 and replays == []
    assert engine.active_ports == {nic} and cols.qlen[nic] == 9
    while engine._cursor < 12:  # the head finishes inside window 11
        assert engine.advance()
    assert replays == [nic] and cols.qlen[nic] == 8


def fattree4_long_lived():
    """The cluster workload's small sibling (``benchmarks/perf``):
    FatTree4 at 2.5 Gb/s under 16 permutations of DCTCP flows that
    outlive the run, cut after 1,500 us — seed 1."""
    topo = fattree(4, rate_bps=5 * GBPS // 2)
    flows = []
    for r in range(16):
        for flow in permutation(topo.hosts, 50_000_000, seed=64 + r):
            flows.append(replace(flow, flow_id=len(flows)))
    return make_scenario(topo, flows, duration_ps=us(1500))


@pytest.mark.parametrize("trace_level", [TraceLevel.NONE, TraceLevel.FULL])
def test_a_planned_port_is_a_port_with_work(trace_level, monkeypatch):
    """Ports planned == ports passed to a replay: every planned port
    was fed or starts a service inside the window (its dequeue counter
    moves), through the duration-cut last window, and at either trace
    level one ``replay_window`` call a window carries them all.  With
    busy unfed lines planned too the same run planned 87,603 ports."""
    engine = DodEngine(fattree4_long_lived(), trace_level)
    engine.build()
    dequeued = engine.world.egress_cols.dequeued
    calls = Counter()
    plans = []

    def counting(name, fn, ports=None):
        def wrapper(*args, **kwargs):
            calls[name] += 1 if ports is None else len(args[ports])
            return fn(*args, **kwargs)
        return wrapper

    plan_transmit = transmit_mod.plan_transmit

    def planning(engine, ctx):
        ports = plan_transmit(engine, ctx)
        unfed = [p for p in ports if p not in ctx.staged]
        plans.append((ctx, len(ports), unfed, [dequeued[p] for p in unfed]))
        return ports

    replayed = counting("replayed", replay_window, ports=2)
    replay = counting("replay", replayed)
    monkeypatch.setattr(transmit_mod, "plan_transmit", planning)
    monkeypatch.setattr(transmit_mod, "replay_window", replay)
    while engine.advance():
        _ctx, _n, unfed, before = plans[-1]
        assert all(dequeued[p] > b for p, b in zip(unfed, before))
    engine.finalize()

    # The cut leaves a one-picosecond last window: lines are busy, and
    # only one that frees inside the clamped window would be planned.
    last, n_last = plans[-1][:2]
    assert last.end - last.start == 1
    assert n_last < len(engine.active_ports)
    planned = sum(n for _ctx, n, _unfed, _before in plans)
    assert planned == 35_545
    assert calls["replayed"] == planned
    assert calls["replay"] == sum(1 for _ctx, n, _u, _b in plans if n)


def test_a_system_is_one_call_per_window(monkeypatch):
    """A window's receiving hosts are swept in one ``ack_window``
    call, and its whole port list is replayed in one ``replay_window``
    call."""
    engine = DodEngine(fattree4_long_lived())
    engine.build()
    calls, windows = Counter(), Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    plan_window = engine_mod.plan_window
    plan_transmit = transmit_mod.plan_transmit

    def planning_window(engine, ctx):
        plan = plan_window(engine, ctx)
        windows["acks"] += bool(plan[0])
        return plan

    def planning_ports(engine, ctx):
        ports = plan_transmit(engine, ctx)
        windows["ports"] += bool(ports)
        windows["planned"] += len(ports)
        return ports

    monkeypatch.setattr(engine_mod, "plan_window", planning_window)
    ack = counting("ack", ack_mod.ack_window)
    replay = counting("replay", replay_window)
    monkeypatch.setattr(ack_mod, "ack_window", ack)
    monkeypatch.setattr(transmit_mod, "replay_window", replay)
    monkeypatch.setattr(transmit_mod, "plan_transmit", planning_ports)
    engine.run()
    assert 0 < windows["acks"] == calls["ack"]
    assert 0 < windows["ports"] < windows["planned"]
    assert calls["replay"] == windows["ports"]


def transmit_calls(trace_level):
    """``{function name: sort arguments}`` of every call into the
    transmit module that takes a ``sort`` during one run."""
    engine = DodEngine(make_scenario(dumbbell(2), [
        Flow(0, 0, 2, 30_000, 0), Flow(1, 1, 3, 30_000, 0)]), trace_level)
    sorts = {}

    def profiler(frame, event, _arg):
        if (event == "call" and frame.f_code.co_filename
                == transmit_mod.__file__ and "sort" in frame.f_locals):
            sorts.setdefault(frame.f_code.co_name, set()).add(
                frame.f_locals["sort"])

    sys.setprofile(profiler)
    try:
        engine.run()
    finally:
        sys.setprofile(None)
    return sorts


@pytest.mark.parametrize("trace_level", [TraceLevel.NONE, TraceLevel.FULL])
def test_one_transmit_path_sorts_with_the_one_hook(trace_level):
    """Traced or not, a run replays through the sink alone and hands
    it the module's ``contract_sort``."""
    assert transmit_calls(trace_level) == {
        "replay_window": {transmit_mod.contract_sort}}


def test_one_context_shape_one_dispatch():
    assert [f.name for f in fields(WindowContext)] == [
        "index", "start", "end", "columns", "staged", "counts"]
    engine = slow_nic_engine(TraceLevel.NONE)[0]
    assert not hasattr(engine, "_fused_run")
    assert not hasattr(engine, "_run_window")
