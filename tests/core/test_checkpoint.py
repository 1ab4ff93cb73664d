"""Checkpointing (§8): pause/resume is observationally transparent."""

import pickle
from dataclasses import replace

import pytest

from repro.core.checkpoint import (
    Checkpoint, CheckpointingEngine, CheckpointStore, FORMAT,
    restore_checkpoint, take_checkpoint,
)
from repro.core.engine import DodEngine, run_dons
from repro.errors import SimulationError
from repro.metrics import TraceLevel
from repro.schedulers import SchedulerKind


def run_interrupted(scenario, stop_after_windows):
    """Run to window N, checkpoint, resume in a FRESH engine."""
    eng = DodEngine(scenario, TraceLevel.FULL)
    eng.build()
    current = -1
    done = 0
    while done < stop_after_windows:
        nxt = eng._next_window(current)
        if nxt is None:
            break
        current = nxt
        eng.process_window(current)
        done += 1
    ckpt = take_checkpoint(eng, current)
    # The "crash": the original engine is discarded entirely.
    del eng
    fresh = CheckpointingEngine(scenario, TraceLevel.FULL)
    return fresh.resume_from(ckpt)


@pytest.mark.parametrize("stop_after", [1, 7, 40])
def test_resume_reproduces_uninterrupted_trace(dumbbell_scenario, stop_after):
    reference = run_dons(dumbbell_scenario, TraceLevel.FULL)
    resumed = run_interrupted(dumbbell_scenario, stop_after)
    assert resumed.trace.sorted_entries() == reference.trace.sorted_entries()
    assert resumed.fcts_ps() == reference.fcts_ps()
    assert resumed.rtt_samples == reference.rtt_samples


def test_snapshot_resumes_mid_drr_round(dumbbell_scenario):
    """The DRR round is three columns of the egress rows: a snapshot
    carries it like any other port state."""
    egress = replace(dumbbell_scenario.switch_egress,
                     scheduler=SchedulerKind.DRR, num_classes=2)
    dumbbell_scenario = replace(dumbbell_scenario, switch_egress=egress)
    reference = run_dons(dumbbell_scenario, TraceLevel.FULL)
    resumed = run_interrupted(dumbbell_scenario, 40)
    assert resumed.trace.digest() == reference.trace.digest()
    assert resumed.fcts_ps() == reference.fcts_ps()


def test_resume_fattree_with_ecmp(fattree4_scenario):
    reference = run_dons(fattree4_scenario, TraceLevel.FULL)
    resumed = run_interrupted(fattree4_scenario, 15)
    assert resumed.trace.digest() == reference.trace.digest()


def test_checkpoint_rejects_wrong_scenario(dumbbell_scenario,
                                           fattree4_scenario):
    eng = DodEngine(dumbbell_scenario)
    eng.build()
    ckpt = take_checkpoint(eng, 0)
    other = DodEngine(fattree4_scenario)
    other.build()
    with pytest.raises(SimulationError):
        restore_checkpoint(other, ckpt)


def test_checkpoint_rejects_bad_format(dumbbell_scenario):
    eng = DodEngine(dumbbell_scenario)
    eng.build()
    ckpt = take_checkpoint(eng, 0)
    bad = Checkpoint("v999", ckpt.scenario_name, 0, ckpt.payload)
    with pytest.raises(SimulationError):
        restore_checkpoint(eng, bad)


class TestStore:
    def test_replicated_save_and_load(self, tmp_path, dumbbell_scenario):
        locations = [str(tmp_path / f"replica{i}") for i in range(3)]
        store = CheckpointStore(locations)
        eng = DodEngine(dumbbell_scenario)
        eng.build()
        ckpt = take_checkpoint(eng, 0)
        paths = store.save("run1", ckpt)
        assert len(paths) == 3
        loaded = store.load("run1")
        assert loaded.digest() == ckpt.digest()

    def test_survives_replica_loss(self, tmp_path, dumbbell_scenario):
        locations = [str(tmp_path / f"replica{i}") for i in range(3)]
        store = CheckpointStore(locations)
        eng = DodEngine(dumbbell_scenario)
        eng.build()
        ckpt = take_checkpoint(eng, 0)
        paths = store.save("run1", ckpt)
        # First two replicas corrupted / lost.
        import os
        os.remove(paths[0])
        with open(paths[1], "wb") as fh:
            fh.write(b"garbage")
        loaded = store.load("run1")
        assert loaded.digest() == ckpt.digest()

    @pytest.mark.parametrize("damage", [
        b"",                                   # truncated to nothing
        pickle.dumps({"format": FORMAT}),      # a pickle, not a Checkpoint
        b"\x80\x05garbage",                     # undecodable bytes
    ], ids=["empty", "foreign-pickle", "garbage"])
    def test_damaged_first_replica_falls_through(self, tmp_path,
                                                 dumbbell_scenario, damage):
        store = CheckpointStore([str(tmp_path / "a"), str(tmp_path / "b")])
        eng = DodEngine(dumbbell_scenario)
        eng.build()
        ckpt = take_checkpoint(eng, 0)
        first, second = store.save("run1", ckpt)
        with open(first, "wb") as fh:
            fh.write(damage)
        assert store.load("run1").digest() == ckpt.digest()
        # ... and with no healthy replica left, the typed error.
        with open(second, "wb") as fh:
            fh.write(damage)
        with pytest.raises(SimulationError, match="no replica"):
            store.load("run1")

    def test_all_replicas_lost(self, tmp_path):
        store = CheckpointStore([str(tmp_path / "only")])
        with pytest.raises(SimulationError):
            store.load("missing")

    def test_empty_locations_rejected(self):
        with pytest.raises(SimulationError):
            CheckpointStore([])


def test_periodic_checkpointing_transparent(tmp_path, dumbbell_scenario):
    reference = run_dons(dumbbell_scenario, TraceLevel.FULL)
    store = CheckpointStore([str(tmp_path / "a"), str(tmp_path / "b")])
    eng = CheckpointingEngine(dumbbell_scenario, TraceLevel.FULL,
                              store=store, every_windows=10)
    res = eng.run()
    assert eng.checkpoints_taken > 0
    assert res.trace.sorted_entries() == reference.trace.sorted_entries()
    # The last snapshot is resumable.
    loaded = store.load("run")
    fresh = CheckpointingEngine(dumbbell_scenario, TraceLevel.FULL)
    resumed = fresh.resume_from(loaded)
    assert resumed.trace.sorted_entries() == reference.trace.sorted_entries()
