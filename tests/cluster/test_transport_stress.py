"""Transport stress suite for the agent-to-agent shared-memory protocol.

Escalations, each pinned to the LocalTransport reference:

* **Fan-out** — 2, 3 and 4 agents on FatTree4 under dynamic mesh
  traffic, so every directed agent pair exchanges batches; the merged
  trace, flow completion times, RTT samples and channel accounting must
  be byte-identical across {local, process}.
* **Large batches** — a 10k-record batch through a 4 KiB-slot ring (the
  blob path), and a whole run with 4 KiB slots.  The snapshots taken
  mid-run — in process from the LocalTransport, over the control pipes
  from the workers — must restore to engines with equal
  ``window_signature()``.
* **Back-to-back kill/restore** — two faults on the same agent in one
  run, each answered by a coordinated rollback, trace-identical to the
  same faults under the LocalTransport.

Plus a hypothesis property of the pair ring: however publishes and
consumes interleave, frames arrive intact and in order, and the reader
cursor keeps the writer off every slot that is still unread.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    AgentSpec, ClusterEngine, FaultPlan, LocalTransport, ProcessTransport,
)
from repro.cluster import shm
from repro.cluster.agent import Horizon
from repro.cluster.shm import (
    ShmRing, consume_batch, publish_batch,
)
from repro.core import EngineRunner
from repro.core.checkpoint import restore_checkpoint
from repro.des.partition_types import contiguous_partition
from repro.errors import ClusterError, ReproError
from repro.metrics import TraceLevel
from repro.protocols.packet import ROW_FIELDS
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import TINY, Flow, Transport, full_mesh_dynamic
from repro.units import GBPS, ms, us
from shm_leaks import leaked_segments


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.3), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=11, max_flows=30)
    return make_scenario(topo, flows, buffer_bytes=50_000)


def _run(scenario, transport, partition):
    engine = ClusterEngine([AgentSpec(a, scenario, partition, TraceLevel.FULL)
                            for a in range(partition.num_parts)],
                           transport=transport)
    EngineRunner(engine).run()
    return engine


@pytest.mark.parametrize("agents", [2, 3, 4])
def test_fanout_byte_identical(scenario, agents):
    """Every pair exchanging records: the process transport's merged
    results and channel accounting are indistinguishable from the
    in-process reference."""
    part = contiguous_partition(scenario.topology, agents)
    local = _run(scenario, "local", part)
    proc = _run(scenario, "shm", part)
    assert local.results.trace.entries == proc.results.trace.entries
    assert local.results.fcts_ps() == proc.results.fcts_ps()
    assert local.results.rtt_samples == proc.results.rtt_samples
    assert local.stats == proc.stats
    windows = proc.stats.windows
    assert proc.stats.finish_signals == windows * agents * (agents - 1)
    assert proc.bus.counters["transport.shm_frames"] \
        == proc.stats.finish_signals


ROW_WIDTH = len(ROW_FIELDS)


def _records(count):
    return [(10_000 + k, k % 36, tuple((k + f) % 251 for f in range(ROW_WIDTH)))
            for k in range(count)]


class TestLargeBatches:
    """Batches that overflow a ring slot travel as blob segments."""

    def test_10k_record_batch_through_the_blob_path(self, monkeypatch):
        monkeypatch.setattr(shm, "DEFAULT_SLOT_BYTES", 4096)
        ring = ShmRing.create("blob")
        reader = ShmRing.attach(ring.name)
        try:
            big, small = _records(10_000), _records(3)
            assert publish_batch(ring, 7, 9, big) is True
            assert publish_batch(ring, 8, None, small) is False
            assert reader.ready()
            assert consume_batch(reader) == (7, 9, big)
            assert consume_batch(reader) == (8, None, small)
            assert not reader.ready()
            # the reader consumed (and unlinked) the one-off blob
            assert leaked_segments() == [ring.name]
        finally:
            reader.close()
            ring.unlink()
            ring.close()

    def test_run_with_4k_slots_byte_identical(self, monkeypatch):
        """Wide windows (8 us of lookahead) carry ~80 records a batch —
        more than a 4 KiB slot's 46 — so most frames go through a blob."""
        topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(8))
        hosts = topo.hosts
        flows = [Flow(i, hosts[i], hosts[(i + 8) % 16], 120_000, 0,
                      Transport.UDP) for i in range(16)]
        scenario = make_scenario(topo, flows, buffer_bytes=200_000)
        part = contiguous_partition(topo, 2)
        local = _run(scenario, "local", part)
        monkeypatch.setattr(shm, "DEFAULT_SLOT_BYTES", 4096)
        blob = _run(scenario, "shm", part)
        assert blob.bus.counters.get("transport.shm_blobs", 0) > 0
        assert local.results.trace.entries == blob.results.trace.entries
        assert local.stats == blob.stats

    def _snapshot_after(self, specs, transport, windows):
        transport.launch(specs)
        try:
            transport.build_all()
            transport.grant(Horizon(max_windows=windows))
            while transport.next_window() is not None:
                pass
            assert not transport.done
            return transport.cursor, transport.snapshot_all(transport.cursor)
        finally:
            transport.close()

    def test_both_transports_snapshot_the_same_state(self, scenario):
        part = contiguous_partition(scenario.topology, 2)
        specs = [AgentSpec(a, scenario, part, TraceLevel.FULL)
                 for a in range(2)]
        cursor, local_ckpts = self._snapshot_after(
            specs, LocalTransport(), 12)
        cursor_p, proc_ckpts = self._snapshot_after(
            specs, ProcessTransport(), 12)
        assert cursor == cursor_p
        traffic = ("cluster.finish_frames", "cluster.rpc_messages",
                   "cluster.rpc_records")
        for agent_id in range(2):
            # One checkpoint format on both transports, the same state,
            # the agent's traffic counters included.
            sigs, counts = [], []
            for ckpt in (local_ckpts[agent_id], proc_ckpts[agent_id]):
                engine = specs[agent_id].make()
                engine.build()
                assert restore_checkpoint(engine, ckpt) == cursor
                sigs.append(engine.window_signature())
                counts.append([engine.bus.counters.get(n, 0)
                               for n in traffic])
            assert sigs[0] == sigs[1], f"agent {agent_id} state diverged"
            assert counts[0] == counts[1] and counts[0][0] == 12

    @pytest.mark.parametrize("damage", ["scenario", "format"])
    @pytest.mark.parametrize("transport_cls",
                             [LocalTransport, ProcessTransport])
    def test_foreign_snapshot_is_refused(self, scenario, transport_cls,
                                         damage):
        """``restore_all`` refuses a snapshot of another scenario, and
        one with another format tag, on either transport."""
        part = contiguous_partition(scenario.topology, 2)
        other = make_scenario(scenario.topology, scenario.flows[:5],
                              buffer_bytes=50_000)
        assert other.name != scenario.name
        source = other if damage == "scenario" else scenario
        _cursor, checkpoints = self._snapshot_after(
            [AgentSpec(a, source, part) for a in range(2)],
            LocalTransport(), 4)
        if damage == "format":
            for ckpt in checkpoints:
                ckpt.format = "dons-checkpoint-v2"  # the previous one
        specs = [AgentSpec(a, scenario, part) for a in range(2)]
        transport = transport_cls()
        transport.launch(specs)
        try:
            transport.build_all()
            with pytest.raises(ReproError, match=damage):
                transport.restore_all(specs, checkpoints, 4)
        finally:
            transport.close()


def _run_with_faults(scenario, transport, kill_windows):
    """Two faults on agent 1, recovered from periodic snapshots."""
    part = contiguous_partition(scenario.topology, 2)
    specs = [AgentSpec(a, scenario, part, TraceLevel.FULL) for a in range(2)]
    engine = ClusterEngine(
        specs, transport=transport, checkpoint_every=2,
        fault=FaultPlan(agent=1, at_window=kill_windows[0]))
    engine.build()
    pending = list(kill_windows[1:])
    while engine.advance():
        if pending and engine.fault.fired and engine._cursor >= pending[0]:
            engine.fault = FaultPlan(agent=1, at_window=pending.pop(0))
    results = engine.finalize()
    return results.trace.entries, len(engine.recoveries)


def test_back_to_back_kill_restore(scenario):
    """Two kill/rollback cycles on the same agent: the process transport
    respawns the dead worker, swaps every pair ring for a fresh segment,
    restores everyone from the snapshot — twice — and the
    merged trace still matches the LocalTransport running the same
    fault schedule."""
    kills = (3, 6)
    ref, ref_recoveries = _run_with_faults(scenario, "local", kills)
    got, proc_recoveries = _run_with_faults(scenario, "shm", kills)
    assert ref_recoveries == proc_recoveries == len(kills)
    assert ref == got


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_randomized_publish_consume_interleavings_keep_frame_order(data):
    """Property: no interleaving of publishes and consumes can reorder,
    drop or tear a frame.  The writer may publish whenever the reader
    cursor leaves it a slot (``can_write``); a publish beyond that is a
    protocol violation and raises instead of overwriting."""
    n_slots = data.draw(st.integers(2, 4), label="slots")
    with mock.patch.multiple(shm, DEFAULT_SLOT_BYTES=4096,
                             DEFAULT_SLOTS=n_slots):
        ring = ShmRing.create("hyp")
    reader = ShmRing.attach(ring.name)
    try:
        sent, delivered = [], []
        for _ in range(data.draw(st.integers(10, 80), label="steps")):
            if data.draw(st.booleans(), label="publish"):
                window = len(sent)
                records = _records(data.draw(st.integers(0, 3), label="n"))
                in_flight = len(sent) - len(delivered)
                assert ring.can_write() == (in_flight < n_slots)
                if in_flight < n_slots:
                    publish_batch(ring, window, window + 1, records)
                    sent.append((window, window + 1, records))
                else:
                    with pytest.raises(ClusterError, match="frames behind"):
                        publish_batch(ring, window, window + 1, records)
            elif reader.ready():
                delivered.append(consume_batch(reader))
            else:
                assert len(delivered) == len(sent)
        while reader.ready():  # drain what is still in flight
            delivered.append(consume_batch(reader))
        assert delivered == sent
    finally:
        reader.close()
        ring.unlink()
        ring.close()
