"""Transport layer: lazy channels, build-time agreement, merged bus,
and the measured time-cost plumbing the merged bus feeds."""

import dataclasses

import pytest

from repro.cluster import (
    AgentSpec, ChannelMap, ClusterEngine, DonsManager, LocalTransport,
    make_transport, ProcessTransport, Transport,
)
from repro.des.partition_types import contiguous_partition
from repro.errors import ClusterError, PartitionError
from repro.core.runner import EngineRunner
from repro.metrics.timeline import run_record
from repro.partition import (
    ClusterSpec, estimate_scenario_loads, machine_times, refit_cluster_spec,
)
from repro.scenario import make_scenario
from repro.topology import dumbbell, fattree
from repro.traffic import Flow
from repro.units import GBPS, us


def _scenario(n_flows=6):
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    hosts = topo.hosts
    flows = [Flow(i, hosts[i], hosts[15 - i], 30_000, i * us(1))
             for i in range(n_flows)]
    return make_scenario(topo, flows, buffer_bytes=40_000)


class TestChannelMap:
    def test_lazy_creation(self):
        chans = ChannelMap()
        assert len(chans) == 0
        ch = chans[0, 1]
        assert (ch.src, ch.dst) == (0, 1)
        assert chans[0, 1] is ch  # memoized
        assert len(chans) == 1

    def test_self_channel_rejected(self):
        with pytest.raises(ClusterError):
            ChannelMap()[2, 2]

    def test_sparse_cut_allocates_few_channels(self):
        """A linear 4-part cut of a dumbbell only talks along the chain —
        the lazy map materializes far fewer channels than the eager
        N*(N-1) allocation did."""
        from repro.core.runner import EngineRunner
        topo = dumbbell(8, delay_ps=us(1))
        hosts = topo.hosts
        flows = [Flow(i, hosts[i], hosts[8 + i], 20_000, 0)
                 for i in range(4)]
        sc = make_scenario(topo, flows, buffer_bytes=40_000)
        part = contiguous_partition(topo, 4)
        engine = DonsManager(sc, ClusterSpec.homogeneous(4))._engine(part)
        assert len(engine.transport.channels) == 0  # nothing up front
        EngineRunner(engine).run()
        n = part.num_parts
        assert engine.stats.rpc_messages > 0  # traffic did cross the cut
        assert 0 < len(engine.transport.channels) < n * (n - 1)


class TestAgreement:
    def test_duration_mismatch_rejected(self):
        sc = _scenario()
        part = contiguous_partition(sc.topology, 2)
        specs = [AgentSpec(a, sc, part) for a in range(2)]
        shorter = dataclasses.replace(sc, duration_ps=us(1))
        specs[1] = AgentSpec(1, shorter, part)
        with pytest.raises(ClusterError, match="duration_ps"):
            ClusterEngine(specs).build()

    def test_lookahead_mismatch_rejected(self):
        """lookahead_ps derives from the smallest link delay, so a second
        build of the same scenario over a slower fabric disagrees."""
        topo_a = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
        topo_b = fattree(4, rate_bps=10 * GBPS, delay_ps=us(2))
        flows = [Flow(0, topo_a.hosts[0], topo_a.hosts[15], 30_000, 0)]
        sc_a = make_scenario(topo_a, flows, name="same")
        sc_b = make_scenario(topo_b, flows, name="same")
        part = contiguous_partition(topo_a, 2)
        specs = [AgentSpec(0, sc_a, part), AgentSpec(1, sc_b, part)]
        with pytest.raises(ClusterError, match="lookahead"):
            ClusterEngine(specs).build()

    def test_partition_mismatch_rejected(self):
        sc = _scenario()
        part2 = contiguous_partition(sc.topology, 2)
        from repro.des.partition_types import random_partition
        other = random_partition(sc.topology, 2, seed=3)
        specs = [AgentSpec(0, sc, part2), AgentSpec(1, sc, other)]
        with pytest.raises(ClusterError, match="different partition"):
            ClusterEngine(specs).build()


class TestMakeTransport:
    def test_resolution(self):
        assert isinstance(make_transport(None), LocalTransport)
        assert isinstance(make_transport("local"), LocalTransport)
        # one process transport, always shared memory, under one name
        assert isinstance(make_transport("shm"), ProcessTransport)
        with pytest.raises(ClusterError, match="unknown transport"):
            make_transport("process")
        with pytest.raises(TypeError):
            ProcessTransport(shm=True)
        inst = LocalTransport()
        assert make_transport(inst) is inst
        with pytest.raises(ClusterError):
            make_transport("carrier-pigeon")

    def test_base_transport_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Transport().launch([])


class TestMergedBus:
    def test_counters_and_tagged_totals(self):
        sc = _scenario()
        part = contiguous_partition(sc.topology, 2)
        run = DonsManager(sc, ClusterSpec.homogeneous(2)).run(partition=part)
        bus = run.bus
        assert bus is not None
        assert bus.counters["cluster.windows"] == run.traffic.windows
        # per-agent per-system totals, tagged a<id>:<system>
        for agent in range(2):
            for system in ("ack", "send", "forward", "transmit"):
                assert f"a{agent}:{system}" in bus.totals
        # per-window rows carry both agents' tagged systems
        rows = bus.profile_rows()
        tagged = {row["system"] for row in rows}
        assert any(name.startswith("a0:") for name in tagged)
        assert any(name.startswith("a1:") for name in tagged)
        windows = [row["window"] for row in rows]
        assert windows == sorted(windows)

    @pytest.mark.parametrize("transport", ["local", "shm"])
    def test_untelemetered_run_measures_busy(self, transport):
        """No telemetry, no watchdog: the agents' busy / wait seconds
        are still measured every window, exported as gauges, and are the
        measured T_a ``refit_cluster_spec`` fits Eq. (1) to."""
        sc = _scenario()
        part = contiguous_partition(sc.topology, 2)
        engine = DonsManager(sc, ClusterSpec.homogeneous(2),
                             transport=transport)._engine(part)
        assert not engine.bus.telemetry and engine.watchdog is None
        EngineRunner(engine).run()
        assert len(engine.busy_s) == 2
        assert all(b > 0 for b in engine.busy_s)
        gauges = engine.bus.metrics.gauges
        assert [gauges["a0:busy_s"], gauges["a1:busy_s"]] == engine.busy_s
        assert [gauges["a0:barrier_wait_s"],
                gauges["a1:barrier_wait_s"]] == engine.wait_s
        busy = run_record(engine.bus)["agents_busy_s"]
        assert busy == engine.busy_s
        loads = estimate_scenario_loads(sc)
        refit = refit_cluster_spec(ClusterSpec.homogeneous(2), sc.topology,
                                   part, loads, busy)
        assert machine_times(sc.topology, part, loads, refit) \
            == pytest.approx(busy)


class TestRefitClusterSpec:
    def test_refit_reproduces_measurement(self):
        sc = _scenario()
        part = contiguous_partition(sc.topology, 2)
        loads = estimate_scenario_loads(sc)
        cluster = ClusterSpec.homogeneous(2)
        measured = [0.5, 2.0]
        refit = refit_cluster_spec(cluster, sc.topology, part, loads,
                                   measured)
        times = machine_times(sc.topology, part, loads, refit)
        assert times == pytest.approx(measured)

    def test_short_measurement_rejected(self):
        sc = _scenario()
        part = contiguous_partition(sc.topology, 3)
        loads = estimate_scenario_loads(sc)
        with pytest.raises(PartitionError):
            refit_cluster_spec(ClusterSpec.homogeneous(3), sc.topology,
                               part, loads, [1.0])

    def test_zero_measurement_keeps_configured_capacity(self):
        sc = _scenario()
        part = contiguous_partition(sc.topology, 2)
        loads = estimate_scenario_loads(sc)
        cluster = ClusterSpec.homogeneous(2, compute=7e8)
        refit = refit_cluster_spec(cluster, sc.topology, part, loads,
                                   [0.0, 0.0])
        assert list(refit.compute) == [7e8, 7e8]
