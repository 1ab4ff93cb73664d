"""Shared-memory segment lifecycle: created once, unlinked exactly once.

The process transport's failure modes are all lifecycle bugs: a segment
unlinked twice (resource_tracker KeyError noise), a segment never
unlinked (``/dev/shm`` fills until the machine wedges), or the old
timeline's rings surviving a rollback.  This suite pins the
contract at three levels: the :class:`ShmRing`/blob primitives, the
transport's kill/restore segment turnover, and a full run in a fresh
interpreter whose stderr must stay free of tracker warnings.  A segment
belongs to the pid in its name: the reaper spares a live owner's, and a
run whose names vanish under it still finishes and shuts down cleanly.
"""

import multiprocessing
import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

import repro
from repro.cluster import AgentSpec, ClusterEngine, ProcessTransport
from repro.cluster.agent import AgentEngine, Horizon
from repro.cluster import shm as shm_mod
from repro.cluster.shm import (
    SEGMENT_PREFIX, ProgressBoard, ShmRing, list_orphans, read_blob,
    reap_orphans, write_blob,
)
from repro.core import EngineRunner
from repro.core.engine import run_dons
from repro.des.partition_types import contiguous_partition, random_partition
from repro.errors import ClusterError
from repro.metrics import TraceLevel
from shm_leaks import leaked_segments


def _live_segments():
    return set(leaked_segments())


class TestRingLifecycle:
    def test_create_unlink_exactly_once(self):
        ring = ShmRing.create("life")
        assert ring.name in _live_segments()
        reader = ShmRing.attach(ring.name)
        # An attacher never owns the segment: its unlink is a no-op.
        reader.unlink()
        assert ring.name in _live_segments()
        ring.unlink()
        assert ring.name not in _live_segments()
        assert ring.unlinked
        ring.unlink()  # idempotent: the second call must not raise
        reader.close()
        ring.close()
        ring.close()  # close is idempotent too

    def test_attach_sees_creator_geometry(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "DEFAULT_SLOT_BYTES", 8192)
        monkeypatch.setattr(shm_mod, "DEFAULT_SLOTS", 3)
        ring = ShmRing.create("geom")
        try:
            reader = ShmRing.attach(ring.name)
            assert reader.slot_bytes == 8192
            assert reader.n_slots == 3
            assert reader.frame_capacity == ring.frame_capacity
            reader.close()
        finally:
            ring.unlink()
            ring.close()

    def test_reader_cursor_frees_slots(self, monkeypatch):
        """Slot reuse is explicit: the reader's cursor word in the ring
        header, not anything inferred from a reply order."""
        monkeypatch.setattr(shm_mod, "DEFAULT_SLOTS", 2)
        ring = ShmRing.create("cursor")
        reader = ShmRing.attach(ring.name)
        try:
            assert ring.write_frame(1, 0, [b"a"]) == 1
            assert ring.write_frame(1, 0, [b"b"]) == 2
            assert not ring.can_write()
            reader.mark_consumed(1)   # written by the reader's mapping
            assert ring.can_write()   # ... seen by the writer's
            assert ring.write_frame(1, 0, [b"c"]) == 3
            reader.mark_consumed(1)   # the cursor never moves backwards
            assert not ring.can_write()
        finally:
            reader.close()
            ring.unlink()
            ring.close()

    def test_progress_board_round_trip(self):
        board = ProgressBoard.create("board-test", 2)
        agent = ProgressBoard.attach(board.name)
        try:
            assert board.status(1) == [0, 0, 0, 0, -1]
            agent.publish(1, 17, 0.25, 0.5, 99)
            assert board.status(1)[:2] == [1, 99]
            assert board.entry(1, 0) == (17, 0.25, 0.5)
            assert board.status(0)[0] == 0   # regions are per agent
            agent.end_grant(1, 4, 1, 23)
            assert board.status(1)[2:] == [4, 1, 23]
            # an agent may run LOG_SLOTS windows ahead of the reader
            for k in range(1, ProgressBoard.LOG_SLOTS):
                assert agent.room(1)
                agent.publish(1, 17 + k, 0.0, 0.0, 99)
            assert not agent.room(1)
            board.consume(1)
            assert agent.room(1)
            agent.reset(1, 5)
            assert board.status(1) == [0, 5, 0, 0, -1]
        finally:
            agent.close()
            board.unlink()
            board.close()
        assert board.name not in _live_segments()

    def test_blob_round_trip_unlinks_on_read(self):
        data = b"header" + bytes(range(200)) + b"tail"
        name, nbytes = write_blob("blob-test", data)
        assert name in _live_segments()
        assert read_blob(name, nbytes) == data
        # The reader unlinks the one-shot blob as it consumes it.
        assert name not in _live_segments()

    def test_reap_orphans_unlinks_stranded_segments(self):
        # Simulate a crashed worker: a prefixed segment nobody owns.
        seg = shared_memory.SharedMemory(
            name=f"{SEGMENT_PREFIX}stranded-test", create=True, size=128)
        shm_mod._disown_segment(seg)
        seg.close()
        assert f"{SEGMENT_PREFIX}stranded-test" in _live_segments()
        reaped = reap_orphans()
        assert f"{SEGMENT_PREFIX}stranded-test" in reaped
        assert f"{SEGMENT_PREFIX}stranded-test" not in _live_segments()
        assert reap_orphans() == []  # nothing left to reap

    def test_reap_orphans_spares_a_live_childs_ring(self):
        """The reaper reads the owner pid in a segment's name: a ring
        whose creator is still running survives it."""
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_hold_a_ring, args=(child,))
        proc.start()
        child.close()
        try:
            name = parent.recv()
            assert name.startswith(f"{SEGMENT_PREFIX}{proc.pid}-")
            assert name not in reap_orphans()
            assert name in list_orphans()
        finally:
            parent.send("done")
            proc.join(timeout=10)
        assert proc.exitcode == 0
        assert name not in list_orphans()

    @pytest.mark.parametrize("attach", [
        ShmRing.attach, ProgressBoard.attach,
        lambda name: read_blob(name, 8),
    ], ids=["ring", "board", "blob"])
    def test_attaching_a_removed_name_names_it(self, attach):
        ring = ShmRing.create("gone")
        ring.unlink()
        ring.close()
        with pytest.raises(ClusterError, match=ring.name):
            attach(ring.name)


def _hold_a_ring(conn):
    ring = ShmRing.create("child")
    conn.send(ring.name)
    conn.recv()
    ring.unlink()
    ring.close()


class TestTransportSegmentTurnover:
    def test_rollback_mints_fresh_pair_rings(self, fattree4_scenario):
        """One ring per directed agent pair plus the progress board;
        kill() leaves the segments alone; restore_all() replaces every
        pair ring by a fresh segment (no frame of the old timeline can
        be read) and respawns the dead worker; close() leaves nothing
        behind."""
        part = contiguous_partition(fattree4_scenario.topology, 3)
        specs = [AgentSpec(a, fattree4_scenario, part, TraceLevel.FULL)
                 for a in range(3)]
        transport = ProcessTransport()
        try:
            transport.launch(specs)
            transport.build_all()
            assert sorted(transport._rings) == [
                (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
            old = {ring.name for ring in transport._rings.values()}
            board = transport._board.name
            assert old | {board} == _live_segments()
            snapshot = transport.snapshot_all(-1)

            transport.kill(1)
            assert old | {board} == _live_segments()

            old_pid = transport._workers[1].process.pid
            transport.restore_all(specs, snapshot, -1)
            fresh = {ring.name for ring in transport._rings.values()}
            assert not (fresh & old), "rollback must mint fresh segments"
            assert fresh | {board} == _live_segments(), \
                "rollback must unlink the old timeline's rings"
            assert transport._workers[1].process.pid != old_pid
            # The restored cluster runs over its new rings.
            transport.grant(Horizon(max_windows=3))
            assert transport.next_window() is not None
        finally:
            transport.close()
        assert _live_segments() == set()


class TestFailedBuildLeavesNothing:
    """A cluster that fails before it runs must not strand agent
    processes or shared segments: ``EngineRunner.run`` finalizes only a
    built engine, so a failed build has to close its own transport."""

    @staticmethod
    def _agents():
        return [p.name for p in multiprocessing.active_children()
                if p.name.startswith("dons-agent-")]

    def test_agent_build_failure_closes_transport(self, dumbbell_scenario,
                                                  monkeypatch):
        # Every worker (forked: it inherits the patch) fails building its
        # engine, after the board segment exists and both processes were
        # spawned.
        def broken_build(engine):
            raise RuntimeError("agent build failed")

        monkeypatch.setattr(AgentEngine, "build", broken_build)
        part = contiguous_partition(dumbbell_scenario.topology, 2)
        specs = [AgentSpec(a, dumbbell_scenario, part) for a in range(2)]
        before = _live_segments()
        with pytest.raises(ClusterError):
            EngineRunner(ClusterEngine(specs, transport="shm")).run()
        assert self._agents() == []
        assert _live_segments() == before


def test_scheduled_migration_on_shm_equals_serial(fattree4_scenario):
    """A phase boundary on the process transport is a coordinated
    snapshot, rewritten and restored over fresh rings into workers that
    remade their engines under the new partition: the merged trace
    equals the serial one, and no agent or segment outlives the run."""
    topo = fattree4_scenario.topology
    first = contiguous_partition(topo, 2)
    second = random_partition(topo, 2, seed=3)
    specs = [AgentSpec(a, fattree4_scenario, first, TraceLevel.FULL)
             for a in range(2)]
    engine = ClusterEngine(specs, transport="shm", schedule=[(20, second)])
    merged = EngineRunner(engine).run()
    assert len(engine.migrations) == 1
    assert engine.migrations[0].nodes_moved > 0
    assert engine.specs[0].partition == second
    reference = run_dons(fattree4_scenario, TraceLevel.FULL)
    assert merged.trace.digest() == reference.trace.digest()
    assert merged.fcts_ps() == reference.fcts_ps()
    assert TestFailedBuildLeavesNothing._agents() == []
    assert _live_segments() == set()


def test_run_survives_its_segment_names_vanishing(fattree4_scenario):
    """Removing every ``dons-shm-<pid>-*`` name of a running 2-agent
    cluster (the mappings stay valid) neither stops the run nor breaks
    its shutdown: ``finalize()`` raises nothing and the merged trace is
    the serial one."""
    part = contiguous_partition(fattree4_scenario.topology, 2)
    specs = [AgentSpec(a, fattree4_scenario, part, TraceLevel.FULL)
             for a in range(2)]
    engine = ClusterEngine(specs, transport="shm")
    engine.build()
    try:
        for _ in range(5):
            assert engine.advance()
        mine = f"{SEGMENT_PREFIX}{os.getpid()}-"
        gone = [name for name in list_orphans() if name.startswith(mine)]
        assert gone
        for name in gone:
            os.unlink(f"/dev/shm/{name}")
        while engine.advance():
            pass
    finally:
        merged = engine.finalize()
    reference = run_dons(fattree4_scenario, TraceLevel.FULL)
    assert merged.trace.digest() == reference.trace.digest()


def test_full_run_leaves_clean_interpreter_and_shm():
    """End-to-end process cluster run in a fresh interpreter: exit 0, no
    resource_tracker warnings or leak notices on stderr (Python prints
    both at interpreter shutdown, which in-process tests cannot see),
    and no segments left in /dev/shm."""
    code = (
        "from repro.cluster import AgentSpec, ClusterEngine\n"
        "from repro.core import EngineRunner\n"
        "from repro.des.partition_types import contiguous_partition\n"
        "from repro.metrics import TraceLevel\n"
        "from repro.scenario import make_scenario\n"
        "from repro.topology import dumbbell\n"
        "from repro.traffic import Flow, Transport\n"
        "from repro.units import GBPS\n"
        "topo = dumbbell(4, edge_rate_bps=10 * GBPS,\n"
        "                bottleneck_rate_bps=10 * GBPS)\n"
        "flows = [Flow(i, i, 4 + i, 60_000, 0, Transport.DCTCP)\n"
        "         for i in range(4)]\n"
        "sc = make_scenario(topo, flows)\n"
        "part = contiguous_partition(topo, 2)\n"
        "specs = [AgentSpec(a, sc, part, TraceLevel.FULL) for a in range(2)]\n"
        "results = EngineRunner(ClusterEngine(specs, transport='shm')).run()\n"
        "print(len(results.trace.entries))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 0
    for symptom in ("resource_tracker", "leaked shared_memory",
                    "Traceback"):
        assert symptom not in proc.stderr, proc.stderr
    assert _live_segments() == set()
