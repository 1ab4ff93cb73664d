"""Checkpointing and fault tolerance (paper §8, Discussion).

"DONS utilizes checkpointing to periodically preserve the run-time state
of the simulation ... the internal state of the simulator, including the
current simulation time, object positions and attributes, and other
necessary variables and data structures", with replication across
multiple locations against single-point failures.

A checkpoint captures everything the batch engine needs to resume —
the window cursor, the columnar pending-event store (columns plus its
window-occupancy index), the component tables (every egress port's
queue/line state is a row of ``world.egress``), accumulated results,
the bus's window rows and counters — as one pickled blob.
Restoring into a fresh engine and continuing produces *exactly* the
trace the uninterrupted run would have produced (asserted in
tests/core/test_checkpoint.py), because the engine state between two
windows is a pure function of the windows executed so far; it also
reports the uninterrupted run's window count and window rows.

There is one snapshot format (:data:`FORMAT`), used by the checkpoint
store and by both cluster transports.  The state holds list columns and
plain Python scalars only.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .engine import DodEngine
from ..errors import CheckpointError, SimulationError

#: Format tag so stale checkpoints fail loudly instead of misloading.
#: v2: the scalar ``calendar``/``win_heap``/``win_queued`` triplet was
#: replaced by the single columnar ``events`` store (EventColumns).
#: v3: no ``ports`` object graph — egress state is ``world.egress`` rows.
#: v4: the bus state is always carried, its window rows hold event counts.
#: v5: sender/receiver rows hold no flow-table column; no gap is ``None``.
#: v6: egress rows hold no per-port queue-sample list.
#: v7: an agent's results hold only the flows whose destination it owns
#: (a v6 agent held a record for every flow).  A cluster checkpoint
#: carries one of these per agent and no tag of its own.
FORMAT = "dons-checkpoint-v7"


@dataclass
class Checkpoint:
    """A resumable snapshot of a paused engine."""

    format: str
    scenario_name: str
    current_window: int
    payload: bytes  # pickled engine state

    def digest(self) -> str:
        return hashlib.blake2b(self.payload, digest_size=16).hexdigest()


def _engine_state(engine: DodEngine, current_window: int) -> dict:
    return {
        "current_window": current_window,
        "events": engine.events,
        "active_ports": engine.active_ports,
        "world": engine.world,
        "results": engine.results,
        "trace": engine.trace,
        "bus_state": engine.bus.export_state(),
        "tx_prev": engine._tx_prev,
    }


def take_checkpoint(engine: DodEngine, current_window: int) -> Checkpoint:
    """Snapshot a paused engine (between windows)."""
    return Checkpoint(
        format=FORMAT,
        scenario_name=engine.scenario.name,
        current_window=current_window,
        payload=pickle.dumps(_engine_state(engine, current_window),
                             protocol=pickle.HIGHEST_PROTOCOL),
    )


def check_checkpoint(checkpoint: Checkpoint, scenario_name: str) -> None:
    """Refuse a checkpoint of another format or scenario, naming both."""
    if checkpoint.format != FORMAT:
        raise CheckpointError(f"checkpoint format {checkpoint.format!r} "
                              f"is not {FORMAT!r}")
    if checkpoint.scenario_name != scenario_name:
        raise CheckpointError(
            f"checkpoint is for scenario {checkpoint.scenario_name!r}, "
            f"the run is {scenario_name!r}"
        )


def restore_checkpoint(engine: DodEngine, checkpoint: Checkpoint) -> int:
    """Load a checkpoint into a *built* engine for the same scenario.

    Returns the window cursor to resume from.
    """
    check_checkpoint(checkpoint, engine.scenario.name)
    state = pickle.loads(checkpoint.payload)
    engine.events = state["events"]
    engine.active_ports = state["active_ports"]
    engine.world = state["world"]
    engine.results = state["results"]
    engine.attach_trace(state["trace"])
    engine._running_window = state["current_window"]
    engine._cursor = state["current_window"]
    engine.bus.adopt_state(state["bus_state"])
    engine._tx_prev = state["tx_prev"]
    # The memoization cache is never serialized (its deltas are cheap to
    # re-capture); invalidate instead so a restored engine can't apply a
    # delta captured on the pre-restore state timeline.
    memo = getattr(engine, "_memo", None)
    if memo is not None:
        memo.clear()
    return state["current_window"]


class CheckpointStore:
    """Replicated persistent storage for checkpoints (§8: "replicate
    checkpoints across multiple locations to mitigate the risks of
    single-point failures")."""

    def __init__(self, locations: Sequence[str]) -> None:
        if not locations:
            raise SimulationError("need at least one checkpoint location")
        self.locations = list(locations)
        for loc in self.locations:
            os.makedirs(loc, exist_ok=True)

    def _path(self, location: str, name: str) -> str:
        return os.path.join(location, f"{name}.ckpt")

    def save(self, name: str, checkpoint: Checkpoint) -> List[str]:
        """Write the checkpoint to every replica location."""
        blob = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        paths = []
        for loc in self.locations:
            path = self._path(loc, name)
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)  # atomic publish
            paths.append(path)
        return paths

    def load(self, name: str) -> Checkpoint:
        """Read from the first healthy replica."""
        last_error: Optional[Exception] = None
        for loc in self.locations:
            try:
                with open(self._path(loc, name), "rb") as fh:
                    ckpt = pickle.loads(fh.read())
            except Exception as exc:
                # Unpickling a truncated, overwritten or foreign file
                # can raise nearly anything (EOFError, AttributeError,
                # ImportError, ...): whatever it is, this replica is
                # unreadable and the next one gets its turn.
                last_error = exc
                continue
            if isinstance(ckpt, Checkpoint) and ckpt.format == FORMAT:
                return ckpt
            last_error = SimulationError(
                f"{loc!r} holds no {FORMAT} checkpoint")
        raise SimulationError(
            f"no replica of {name!r} is readable: {last_error!r}"
        )


class CheckpointingEngine(DodEngine):
    """A DodEngine that snapshots itself every N windows (at the first
    engine step that reaches or passes each multiple of N).

    ``run()`` behaves exactly like the base engine (checkpointing is
    observationally transparent); ``resume_from`` continues a previous
    run from its latest stored snapshot.
    """

    def __init__(self, *args, store: Optional[CheckpointStore] = None,
                 every_windows: int = 100, name: str = "run",
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.store = store
        self.every_windows = max(1, every_windows)
        self.checkpoint_name = name
        self.checkpoints_taken = 0

    def advance(self) -> bool:
        """One engine step, then a snapshot whenever the windows it
        advanced — executed, fast-forwarded by the memo, or skipped by a
        cycle jump, as the bus counts them — cross a multiple of
        ``every_windows``."""
        before = self.bus.counters.get("windows", 0)
        more = super().advance()
        every = self.every_windows
        if self.store is not None and \
                self.bus.counters["windows"] // every > before // every:
            self.store.save(self.checkpoint_name,
                            take_checkpoint(self, self._cursor))
            self.checkpoints_taken += 1
        return more

    def resume_from(self, checkpoint: Checkpoint):
        """Restore state and run the remainder of the simulation."""
        if not self._built:
            self.build()
        restore_checkpoint(self, checkpoint)
        from .runner import EngineRunner
        return EngineRunner(self).run()
