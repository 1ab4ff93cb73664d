"""Fault tolerance: kill an agent mid-simulation, recover it from the
latest checkpoint, replay its missed inputs — and the merged trace is
byte-identical to the fault-free run.

The kill is real on both transports: the LocalTransport drops the
engine object (its memory is gone), the ProcessTransport terminates the
worker process outright.
"""

import pytest

from repro.cluster import AgentSpec, ClusterEngine, FaultPlan
from repro.core.engine import run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import contiguous_partition, random_partition
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.3), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=33, max_flows=40)
    return make_scenario(topo, flows, buffer_bytes=50_000)


@pytest.fixture(scope="module")
def reference(scenario):
    return run_dons(scenario, TraceLevel.FULL)


def _run(scenario, transport, checkpoint_every=None, fault=None,
         telemetry=False):
    part = contiguous_partition(scenario.topology, 2)
    engine = ClusterEngine(
        [AgentSpec(a, scenario, part, TraceLevel.FULL, telemetry=telemetry)
         for a in range(2)],
        transport=transport, checkpoint_every=checkpoint_every, fault=fault)
    EngineRunner(engine).run()
    return engine


@pytest.mark.parametrize(
    "transport", ["local", pytest.param("shm", id="process")])
def test_kill_and_recover_byte_identical(scenario, reference, transport):
    fault = FaultPlan(agent=1, at_window=12)
    run = _run(scenario, transport, checkpoint_every=5, fault=fault)
    assert fault.fired
    assert len(run.recoveries) == 1
    rec = run.recoveries[0]
    assert rec.agent == 1
    assert rec.failed_window >= 12
    assert rec.restored_from_window < rec.failed_window
    assert (sorted(run.results.trace.entries)
            == sorted(reference.trace.entries))
    assert run.results.fcts_ps() == reference.fcts_ps()


def test_recovery_replays_missed_windows_and_records(scenario, reference):
    """A sparse checkpoint cadence forces a long replay: the restored
    agent re-executes every window since the snapshot and re-ingests
    the peer batches logged in between."""
    fault = FaultPlan(agent=0, at_window=60)
    run = _run(scenario, "local", checkpoint_every=25, fault=fault)
    rec = run.recoveries[0]
    assert rec.windows_replayed > 0
    assert (sorted(run.results.trace.entries)
            == sorted(reference.trace.entries))


def test_fault_free_checkpointing_is_invisible(scenario, reference):
    """Taking periodic snapshots without any failure must not perturb
    the simulation."""
    run = _run(scenario, "local", checkpoint_every=10)
    assert run.recoveries == []
    assert run.bus.counters["cluster.checkpoints"] > 1
    assert (sorted(run.results.trace.entries)
            == sorted(reference.trace.entries))


def test_fault_without_checkpoints_recovers_from_initial_snapshot(scenario,
                                                                  reference):
    """With a fault plan but no cadence, the only snapshot is the one
    taken at build time — recovery replays the whole prefix."""
    fault = FaultPlan(agent=1, at_window=8)
    run = _run(scenario, "local", fault=fault)
    rec = run.recoveries[0]
    assert rec.restored_from_window == -1
    assert rec.windows_replayed > 0
    assert (sorted(run.results.trace.entries)
            == sorted(reference.trace.entries))


@pytest.mark.parametrize(
    "transport", ["local", pytest.param("shm", id="process")])
def test_recovery_keeps_telemetry_spans(scenario, reference, transport):
    """A kill must not drop the dead agent's telemetry: spans recorded
    before the snapshot ride the checkpoint (bus state is captured when
    telemetry is on) and the replay re-records the windows since, so the
    merged timeline has no holes."""
    fault = FaultPlan(agent=1, at_window=12)
    run = _run(scenario, transport, checkpoint_every=5, fault=fault,
               telemetry=True)
    assert fault.fired and len(run.recoveries) == 1

    def window_indices(tag):
        return {span[4]["index"] for span in run.bus.spans
                if span[2] == f"{tag}:window" and span[3] == "window"
                and span[4]}

    survivor, killed = window_indices("a0"), window_indices("a1")
    assert survivor and killed
    # The restored agent's timeline covers every window the survivor
    # ran — nothing recorded before the kill was lost.
    assert survivor <= killed
    # Its metric samples survived too (summed into the cluster registry
    # from both agents, including the pre-kill checkpointed counts).
    hist = run.bus.metrics.histograms["port.queue_depth_bytes"]
    assert hist.count > 0
    # And telemetry never costs fidelity: the recovered trace still
    # matches the fault-free single-machine reference.
    assert (sorted(run.results.trace.entries)
            == sorted(reference.trace.entries))


@pytest.mark.parametrize(
    "transport", ["local", pytest.param("shm", id="process")])
def test_migration_with_fault_tolerance_equals_serial(scenario, reference,
                                                      transport):
    """A phase boundary and a rollback share one path: the migrated
    snapshot becomes the latest snapshot, so an agent killed after the
    boundary is restored under the new partition, and the merged trace
    and FCTs equal the single machine's."""
    topo = scenario.topology
    first = contiguous_partition(topo, 2)
    second = random_partition(topo, 2, seed=5)
    specs = [AgentSpec(a, scenario, first, TraceLevel.FULL)
             for a in range(2)]
    fault = FaultPlan(agent=1, at_window=40)
    engine = ClusterEngine(specs, transport=transport, checkpoint_every=7,
                           fault=fault, schedule=[(20, second)])
    merged = EngineRunner(engine).run()
    assert len(engine.migrations) == 1 and fault.fired
    assert engine.migrations[0].nodes_moved > 0
    (rec,) = engine.recoveries
    assert rec.restored_from_window < rec.failed_window
    assert engine.specs[1].partition == second
    assert sorted(merged.trace.entries) == sorted(reference.trace.entries)
    assert merged.fcts_ps() == reference.fcts_ps()


def test_each_recovery_records_one_replay_span(scenario):
    """The coordinator times every rollback: one ``replay`` span in the
    ``transport`` category per recovery, naming the dead agent, the
    window it died in and the snapshot window it restarted from."""
    fault = FaultPlan(agent=1, at_window=12)
    run = _run(scenario, "local", checkpoint_every=5, fault=fault,
               telemetry=True)
    replays = [span for span in run.bus.spans
               if (span[2], span[3]) == ("replay", "transport")]
    assert len(run.recoveries) == len(replays) == 1
    t0, t1, _name, _cat, attrs = replays[0]
    rec = run.recoveries[0]
    assert 0.0 <= t0 <= t1
    assert attrs == {"agent": rec.agent, "window": rec.failed_window,
                     "from_window": rec.restored_from_window}
