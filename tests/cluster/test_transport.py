"""Transport layer: RPC accounting, construction-time agreement, merged bus,
and the measured time-cost plumbing the merged bus feeds."""

import dataclasses
import multiprocessing
import time

import pytest

from repro.cluster import (
    AgentEngine, AgentSpec, ClusterEngine, LocalTransport,
    make_transport, ProcessTransport, Transport,
)
from repro.des.partition_types import Partition, contiguous_partition
from repro.errors import ClusterError, PartitionError
from repro.core.runner import EngineRunner
from repro.metrics.timeline import run_record
from repro.partition import (
    ClusterSpec, estimate_scenario_loads, machine_times, refit_cluster_spec,
)
from repro.scenario import make_scenario
from repro.topology import dumbbell, fattree
from repro.traffic import Flow, fixed_flows
from repro.units import GBPS, us


def _scenario(n_flows=6):
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    hosts = topo.hosts
    flows = [Flow(i, hosts[i], hosts[15 - i], 30_000, i * us(1))
             for i in range(n_flows)]
    return make_scenario(topo, flows, buffer_bytes=40_000)


class TestSparseCut:
    def test_sparse_cut_sends_few_rpcs(self):
        """A linear 4-part cut of a dumbbell only talks along the chain:
        every agent tells every peer FINISH each window, but an empty
        batch costs no RPC, so far fewer RPCs than frames are sent."""
        topo = dumbbell(8, delay_ps=us(1))
        hosts = topo.hosts
        flows = [Flow(i, hosts[i], hosts[8 + i], 20_000, 0)
                 for i in range(4)]
        sc = make_scenario(topo, flows, buffer_bytes=40_000)
        part = contiguous_partition(topo, 4)
        engine = ClusterEngine([AgentSpec(a, sc, part) for a in range(4)])
        EngineRunner(engine).run()
        n, stats = part.num_parts, engine.stats
        assert stats.finish_signals == stats.windows * n * (n - 1)
        assert 0 < stats.rpc_messages < stats.finish_signals // 2


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

    @pytest.mark.parametrize("agents,nodes,parts,later,match", [
        (2, 36, 3, None, "2 agents .* 3 parts"),
        (3, 36, 2, None, "3 agents .* 2 parts"),
        (2, 33, 2, None, "assigns 33 nodes.* 36"),
        (2, 41, 2, None, "assigns 41 nodes.* 36"),
        # the same two checks on a scheduled partition
        (2, 36, 2, (33, 2), "assigns 33 nodes"),
        (2, 36, 2, (36, 3), "2 agents .* 3 parts"),
    ])
    def test_partition_fit_checked_at_construction(self, agents, nodes,
                                                   parts, later, match):
        """One agent per part, one entry per topology node — for the
        first partition and every scheduled one — or the cluster is
        refused before any agent is launched: unchecked, a spare part
        stalls the run, a spare agent idles, a short assignment crashes
        the agents and a long one runs silently."""
        topo = fattree(4)  # 36 nodes
        sc = make_scenario(topo, fixed_flows(topo.hosts, 4, 20_000, seed=1))

        def partition(n, k):
            return Partition(tuple(i % k for i in range(n)), k)

        specs = [AgentSpec(a, sc, partition(nodes, parts))
                 for a in range(agents)]
        schedule = [(5, partition(*later))] if later else None
        with pytest.raises(ClusterError, match=match):
            ClusterEngine(specs, schedule=schedule)


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
        run = ClusterEngine([AgentSpec(a, sc, part) for a in range(2)])
        EngineRunner(run).run()
        bus = run.bus
        assert bus is not None
        assert bus.counters["cluster.windows"] == run.stats.windows
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
        """No telemetry, no watchdog: the agents' busy CPU / wait
        seconds are still measured every window and exported as gauges;
        busy is the measured T_a ``refit_cluster_spec`` fits Eq. (1) to."""
        sc = _scenario()
        part = contiguous_partition(sc.topology, 2)
        engine = ClusterEngine([AgentSpec(a, sc, part) for a in range(2)],
                               transport=transport)
        assert not engine.bus.telemetry and engine.watchdog is None
        EngineRunner(engine).run()
        record = run_record(engine.bus)
        busy = record["agents_busy_s"]
        assert len(busy) == 2
        assert all(b > 0 for b in busy)
        gauges = engine.bus.metrics.gauges
        assert [gauges["a0:busy_s"], gauges["a1:busy_s"]] == busy
        assert [gauges["a0:barrier_wait_s"],
                gauges["a1:barrier_wait_s"]] == record["agents_wait_s"]
        assert all(gauges[f"a{a}:busy_s"] > 0 for a in range(2))
        assert busy == run_record(engine.bus, engine)["agents_busy_s"]
        loads = estimate_scenario_loads(sc)
        refit = refit_cluster_spec(ClusterSpec.homogeneous(2), sc.topology,
                                   part, loads, busy)
        assert machine_times(sc.topology, part, loads, refit) \
            == pytest.approx(busy)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched run_window reaches the agents by fork")
    def test_spinning_wait_is_not_busy(self, monkeypatch):
        """On shm agents busy is CPU outside barrier waits: agent 1
        computing ~2 ms more a window shows in its own busy seconds
        only, and agent 0, which waits for it — spinning, yielding or
        napping — books that time as barrier wait, not busy."""
        spin = 0.002
        run_window = AgentEngine.run_window

        def heavier(agent, window):
            if agent.agent_id == 1:
                end = time.thread_time() + spin
                while time.thread_time() < end:
                    pass
            return run_window(agent, window)

        monkeypatch.setattr(AgentEngine, "run_window", heavier)
        sc = _scenario()
        part = contiguous_partition(sc.topology, 2)
        engine = ClusterEngine([AgentSpec(a, sc, part) for a in range(2)],
                               transport="shm")
        EngineRunner(engine).run()
        injected = spin * engine.bus.counters["cluster.windows"]
        gauges = engine.bus.metrics.gauges
        assert gauges["a1:busy_s"] - gauges["a0:busy_s"] >= 0.9 * injected
        assert gauges["a0:barrier_wait_s"] >= 0.5 * injected

    def test_local_install_is_the_receivers_busy(self, monkeypatch):
        """On LocalTransport installing a peer's batch is the receiving
        agent's busy time, as on shm: agent 1 spending ~1 ms of CPU per
        batch it accepts raises its own busy seconds by that much and
        agent 0's hardly at all."""
        spin = 0.001

        def busy():
            sc = _scenario()
            part = contiguous_partition(sc.topology, 2)
            engine = ClusterEngine(
                [AgentSpec(a, sc, part) for a in range(2)],
                transport="local")
            EngineRunner(engine).run()
            gauges = engine.bus.metrics.gauges
            return gauges["a0:busy_s"], gauges["a1:busy_s"]

        base = busy()
        accept = AgentEngine.accept_arrivals
        batches = []

        def slower(agent, records):
            if agent.agent_id == 1 and records:
                batches.append(len(records))
                end = time.thread_time() + spin
                while time.thread_time() < end:
                    pass
            return accept(agent, records)

        monkeypatch.setattr(AgentEngine, "accept_arrivals", slower)
        a0, a1 = busy()
        injected = spin * len(batches)
        assert injected > 0
        assert a1 - base[1] >= 0.9 * injected
        assert a0 - base[0] < 0.1 * injected


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
