"""Cluster-wide checkpoint/resume (§8 multi-machine fault tolerance)."""

import pytest

import dataclasses

from repro.cluster.agent import AgentSpec
from repro.cluster.checkpoint import resume_cluster, take_cluster_checkpoint
from repro.cluster import ClusterEngine
from repro.core.checkpoint import FORMAT as ENGINE_FORMAT
from repro.core.engine import run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import contiguous_partition, random_partition
from repro.errors import CheckpointError, ClusterError, SimulationError
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.4), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=29, max_flows=40)
    return make_scenario(topo, flows, buffer_bytes=60_000)


@pytest.fixture(scope="module")
def reference(scenario):
    return run_dons(scenario, TraceLevel.FULL)


def _cluster(scenario, partition, schedule=None):
    specs = [AgentSpec(a, scenario, partition, TraceLevel.FULL)
             for a in range(partition.num_parts)]
    return ClusterEngine(specs, schedule=schedule)


def _run_until(scenario, partition, windows, schedule=None):
    engine = _cluster(scenario, partition, schedule)
    engine.build()
    for _ in range(windows):
        if not engine.advance():
            break
    return engine, engine._cursor


@pytest.mark.parametrize("stop_after", [3, 25])
def test_cluster_resume_reproduces_trace(scenario, reference, stop_after):
    part = contiguous_partition(scenario.topology, 3)
    whole = _cluster(scenario, part)
    EngineRunner(whole).run()
    engine, current = _run_until(scenario, part, stop_after)
    ckpt = take_cluster_checkpoint(engine, current)
    # The "cluster crash": everything is discarded.
    del engine
    merged, fresh = resume_cluster(scenario, ckpt, TraceLevel.FULL)
    assert (sorted(merged.trace.entries)
            == sorted(reference.trace.entries))
    assert merged.fcts_ps() == reference.fcts_ps()
    # The resumed run accounts the traffic and windows before the
    # checkpoint too: it reports what the uninterrupted run reports.
    assert fresh.stats == whole.stats  # egress_bytes included
    assert fresh.progress()["windows"] == whole.progress()["windows"]


def test_checkpoint_preserves_pending_migrations(scenario, reference):
    topo = scenario.topology
    part = contiguous_partition(topo, 3)
    later = random_partition(topo, 3, seed=4)
    # Stop before the migration boundary; it must survive the checkpoint.
    engine, current = _run_until(scenario, part, 5,
                                     schedule=[(100, later)])
    ckpt = take_cluster_checkpoint(engine, current)
    assert ckpt.schedule, "pending migration lost"
    merged, fresh = resume_cluster(scenario, ckpt, TraceLevel.FULL)
    assert fresh.migrations, "migration never executed after resume"
    assert (sorted(merged.trace.entries)
            == sorted(reference.trace.entries))


def test_scenario_mismatch_rejected(scenario):
    part = contiguous_partition(scenario.topology, 2)
    engine, current = _run_until(scenario, part, 2)
    ckpt = take_cluster_checkpoint(engine, current)
    other = dataclasses.replace(scenario, name="something-else")
    with pytest.raises(ClusterError):
        resume_cluster(other, ckpt)


def _retagged(ckpt, fmt):
    """``ckpt`` with every agent checkpoint inside tagged ``fmt``."""
    return dataclasses.replace(ckpt, snapshot=[
        dataclasses.replace(snap, format=fmt) for snap in ckpt.snapshot])


def test_bad_format_rejected(scenario):
    """The one format tag is the engine checkpoints' own."""
    part = contiguous_partition(scenario.topology, 2)
    engine, current = _run_until(scenario, part, 2)
    ckpt = take_cluster_checkpoint(engine, current)
    assert not hasattr(ckpt, "format")
    assert {snap.format for snap in ckpt.snapshot} == {ENGINE_FORMAT}
    assert ENGINE_FORMAT == "dons-checkpoint-v7"
    for stale in ("v0", "dons-checkpoint-v5", "dons-checkpoint-v6"):
        with pytest.raises(ClusterError, match=stale):
            resume_cluster(scenario, _retagged(ckpt, stale))


def test_v4_checkpoint_refused_before_any_agent_starts(scenario,
                                                       monkeypatch):
    """v6 agents held a record for every flow, which the results merge
    no longer expects: the agent checkpoints are refused by name, both
    formats in the message, before a cluster is made (so before any
    worker could launch)."""
    part = contiguous_partition(scenario.topology, 2)
    engine, current = _run_until(scenario, part, 2)
    v6 = _retagged(take_cluster_checkpoint(engine, current),
                   "dons-checkpoint-v6")

    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built for a refused checkpoint")
    monkeypatch.setattr("repro.cluster.checkpoint.ClusterEngine", no_cluster)
    with pytest.raises(CheckpointError) as refused:
        resume_cluster(scenario, v6)
    assert "dons-checkpoint-v6" in str(refused.value)
    assert "dons-checkpoint-v7" in str(refused.value)


def test_process_cluster_checkpoint_refused(scenario):
    """Process agents run ahead of the coordinator's cursor, so a
    ``ProcessTransport`` cluster is not checkpointed to disk."""
    part = contiguous_partition(scenario.topology, 2)
    specs = [AgentSpec(a, scenario, part) for a in range(2)]
    engine = ClusterEngine(specs, transport="shm")
    engine.build()
    try:
        assert engine.advance()
        with pytest.raises(ClusterError, match="in-process engines"):
            take_cluster_checkpoint(engine, engine._cursor)
    finally:
        engine.finalize()


@pytest.mark.parametrize("damage", ["format", "scenario"])
def test_stale_agent_snapshot_refused(scenario, damage):
    """The cluster envelope stores whole engine checkpoints, so an agent
    snapshot of another engine format or scenario is refused by the
    engine's own check instead of being re-tagged as current."""
    part = contiguous_partition(scenario.topology, 2)
    engine, current = _run_until(scenario, part, 2)
    ckpt = take_cluster_checkpoint(engine, current)
    agents = ckpt.snapshot
    assert all(snap.format == ENGINE_FORMAT
               and snap.scenario_name == scenario.name
               for snap in agents)
    if damage == "format":
        agents[1].format = "dons-checkpoint-v2"
    else:
        agents[1].scenario_name = "something-else"
    with pytest.raises(SimulationError, match=damage):
        resume_cluster(scenario, ckpt)
