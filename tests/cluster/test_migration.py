"""Live migration edge cases (Appendix A, satellite coverage):
no-op schedules, multiple boundaries collapsing into one window gap,
and migration immediately followed by cross-machine RPC traffic."""

from repro.cluster import ClusterEngine
from repro.cluster.agent import AgentSpec
from repro.core.engine import run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import contiguous_partition, random_partition
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import Flow
from repro.units import GBPS, us


def _scenario(start_us=0):
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    hosts = topo.hosts
    flows = [Flow(i, hosts[i], hosts[15 - i], 40_000,
                  us(start_us) + i * us(1))
             for i in range(6)]
    return make_scenario(topo, flows, buffer_bytes=50_000)


def _controller(scenario, first, schedule, machines=3):
    specs = [AgentSpec(a, scenario, first, TraceLevel.FULL)
             for a in range(machines)]
    return ClusterEngine(specs, schedule=schedule)


def _records_sent(engine):
    """Records the agents have sent so far, off their own buses."""
    return sum(agent.bus.counters.get("cluster.rpc_records", 0)
               for agent in engine.transport.engines)


def test_noop_migration_is_free():
    """A boundary whose new partition equals the old is free: no
    migration event, trace untouched."""
    sc = _scenario()
    reference = run_dons(sc, TraceLevel.FULL)
    first = contiguous_partition(sc.topology, 3)
    same = contiguous_partition(sc.topology, 3)
    assert same.assignment == first.assignment and same is not first
    controller = _controller(sc, first, [(10, same)])
    merged = EngineRunner(controller).run()
    assert controller.migrations == []
    assert sorted(merged.trace.entries) == sorted(reference.trace.entries)


def test_multiple_boundaries_in_one_window_gap():
    """Flows start late, so the first executed window jumps past several
    scheduled boundaries at once — every one of them must fire, in
    order, before that window runs."""
    sc = _scenario(start_us=30)
    reference = run_dons(sc, TraceLevel.FULL)
    topo = sc.topology
    first = contiguous_partition(topo, 3)
    mid = random_partition(topo, 3, seed=4)
    last = random_partition(topo, 3, seed=11)
    assert mid.assignment != first.assignment
    assert last.assignment != mid.assignment
    controller = _controller(sc, first, [(5, mid), (12, last)])
    merged = EngineRunner(controller).run()
    # both boundaries sat inside the silent gap before window ~30
    assert len(controller.migrations) == 2
    assert all(m.nodes_moved > 0 for m in controller.migrations)
    for agent in controller.transport.engines:
        assert agent.partition.assignment == last.assignment
    assert sorted(merged.trace.entries) == sorted(reference.trace.entries)


def test_migration_immediately_followed_by_rpc():
    """Migrate in the middle of active traffic: the very window that
    runs right after the hand-off must already exchange batches across
    the *new* cut, and the trace still matches the single machine."""
    sc = _scenario()
    reference = run_dons(sc, TraceLevel.FULL)
    topo = sc.topology
    first = contiguous_partition(topo, 3)
    second = random_partition(topo, 3, seed=7)
    engine = _controller(sc, first, [(3, second)])
    engine.build()
    while not engine.migrations:
        assert engine.advance(), "run ended before the boundary"
    records_at_migration = _records_sent(engine)
    # the post-migration window already moved batches across the new cut
    for _ in range(3):
        if not engine.advance():
            break
    records_after = _records_sent(engine)
    assert records_after > records_at_migration
    while engine.advance():
        pass
    merged = engine.finalize()
    assert sorted(merged.trace.entries) == sorted(reference.trace.entries)
