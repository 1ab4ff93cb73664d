"""Checkpointing and fault tolerance (paper §8, Discussion).

"DONS utilizes checkpointing to periodically preserve the run-time state
of the simulation ... the internal state of the simulator, including the
current simulation time, object positions and attributes, and other
necessary variables and data structures", with replication across
multiple locations against single-point failures.

A checkpoint captures everything the batch engine needs to resume —
the window cursor, the columnar pending-event store (columns plus its
window-occupancy index), every egress port's queue/line state, the
component tables, accumulated results — as one pickled blob.
Restoring into a fresh engine and continuing produces *exactly* the
trace the uninterrupted run would have produced (asserted in
tests/core/test_checkpoint.py), because the engine state between two
windows is a pure function of the windows executed so far.
"""

from __future__ import annotations

import copy
import hashlib
import io
import os
import pickle
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .engine import DodEngine
from ..errors import SimulationError

#: Format tag so stale checkpoints fail loudly instead of misloading.
#: v2: the scalar ``calendar``/``win_heap``/``win_queued`` triplet was
#: replaced by the single columnar ``events`` store (EventColumns).
FORMAT = "dons-checkpoint-v2"


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
    state = {
        "current_window": current_window,
        "events": engine.events,
        "active_ports": engine.active_ports,
        "ports": engine.ports,
        "world": engine.world,
        "results": engine.results,
        "trace": engine.trace,
    }
    if engine.bus.telemetry:
        # Telemetry buffers (spans, histograms, counters) must survive a
        # kill: a restored agent re-runs only the windows since the
        # snapshot, so everything recorded before it would otherwise be
        # dropped and recovered runs would report holey timelines.
        # Gated on the telemetry switch so untelemetered checkpoints
        # stay byte-for-byte what they were.
        state["bus_state"] = engine.bus.export_state()
        state["tx_prev"] = engine._tx_prev
    return state


def take_checkpoint(engine: DodEngine, current_window: int) -> Checkpoint:
    """Snapshot a paused engine (between windows)."""
    state = copy.deepcopy(_engine_state(engine, current_window))
    return Checkpoint(
        format=FORMAT,
        scenario_name=engine.scenario.name,
        current_window=current_window,
        payload=pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
    )


def _install_state(engine: DodEngine, state: dict) -> int:
    """Adopt a deserialized state dict into a *built* engine; returns
    the window cursor to resume from."""
    engine.events = state["events"]
    engine.active_ports = state["active_ports"]
    engine.ports = state["ports"]
    engine.world = state["world"]
    engine.results = state["results"]
    engine.attach_trace(state["trace"])
    engine._running_window = state["current_window"]
    engine._cursor = state["current_window"]
    bus_state = state.get("bus_state")
    if bus_state is not None:
        engine.bus.adopt_state(bus_state)
        engine._tx_prev = state.get("tx_prev", {})
    # The memoization cache is never serialized (its deltas are cheap to
    # re-capture); invalidate instead so a restored engine can't apply a
    # delta captured on the pre-restore state timeline.
    memo = getattr(engine, "_memo", None)
    if memo is not None:
        memo.clear()
    return state["current_window"]


def restore_checkpoint(engine: DodEngine, checkpoint: Checkpoint) -> int:
    """Load a checkpoint into a *built* engine for the same scenario.

    Returns the window cursor to resume from.
    """
    if checkpoint.format != FORMAT:
        raise SimulationError(f"unknown checkpoint format {checkpoint.format!r}")
    if checkpoint.scenario_name != engine.scenario.name:
        raise SimulationError(
            f"checkpoint is for scenario {checkpoint.scenario_name!r}, "
            f"engine runs {engine.scenario.name!r}"
        )
    return _install_state(engine, pickle.loads(checkpoint.payload))


# --- zero-copy (out-of-band) snapshot container -----------------------------
#
# The shared-memory transport moves checkpoint payloads as one-off shm
# segments.  Pickling the engine state at protocol 5 with a
# ``buffer_callback`` exports every columnar buffer (NumpyTable columns,
# event-store arrays) as a raw out-of-band block: the container is then
# the small object-graph pickle plus a length-prefixed run of raw
# buffers, and the only copy each column pays is the memcpy into the
# segment.  The classic in-band pickle remains the format everywhere
# else; ``restore_snapshot`` dispatches on the magic prefix.

OOB_MAGIC = b"DONS-SNP5\x00"
_OOB_HEAD = struct.Struct("<qq")    # current_window, body_len
_OOB_COUNT = struct.Struct("<q")


def state_oob_parts(engine: DodEngine, current_window: int) -> List:
    """Snapshot as a list of bytes-like parts (concatenation = payload).

    The raw-buffer parts *alias live engine arrays* — the caller must
    copy them out (e.g. into a shared segment) before the engine runs
    another window.
    """
    buffers: List[pickle.PickleBuffer] = []
    body = pickle.dumps(_engine_state(engine, current_window), protocol=5,
                        buffer_callback=buffers.append)
    parts = [OOB_MAGIC, _OOB_HEAD.pack(current_window, len(body)), body,
             _OOB_COUNT.pack(len(buffers))]
    for buf in buffers:
        raw = buf.raw()
        parts.append(_OOB_COUNT.pack(raw.nbytes))
        parts.append(raw)
    return parts


def is_oob_payload(payload) -> bool:
    """True if ``payload`` is an out-of-band snapshot container."""
    return bytes(payload[:len(OOB_MAGIC)]) == OOB_MAGIC


def loads_oob_state(payload) -> Tuple[int, dict]:
    """Decode an out-of-band container: ``(current_window, state dict)``.

    Buffers are materialized as ``bytearray`` copies so the rebuilt
    arrays are writable (a ``bytes`` buffer would make them readonly).
    """
    view = memoryview(payload)
    off = len(OOB_MAGIC)
    window, body_len = _OOB_HEAD.unpack_from(view, off)
    off += _OOB_HEAD.size
    body = view[off:off + body_len]
    off += body_len
    (n_bufs,) = _OOB_COUNT.unpack_from(view, off)
    off += _OOB_COUNT.size
    buffers = []
    for _ in range(n_bufs):
        (nbytes,) = _OOB_COUNT.unpack_from(view, off)
        off += _OOB_COUNT.size
        buffers.append(bytearray(view[off:off + nbytes]))
        off += nbytes
    return window, pickle.loads(body, buffers=buffers)


def restore_snapshot(engine: DodEngine, payload: bytes, window: int,
                     scenario_name: str) -> int:
    """Restore a raw snapshot payload of either format into a *built*
    engine — the transport-facing twin of :func:`restore_checkpoint`."""
    if is_oob_payload(payload):
        _window, state = loads_oob_state(payload)
        return _install_state(engine, state)
    return restore_checkpoint(
        engine, Checkpoint(FORMAT, scenario_name, window, payload))


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
            path = self._path(loc, name)
            try:
                with open(path, "rb") as fh:
                    ckpt = pickle.loads(fh.read())
                if ckpt.format != FORMAT:
                    raise SimulationError("bad checkpoint format")
                return ckpt
            except (OSError, pickle.UnpicklingError, SimulationError) as exc:
                last_error = exc
        raise SimulationError(
            f"no replica of {name!r} is readable: {last_error}"
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
        cycle jump — cross a multiple of ``every_windows``."""
        before = self._windows_run
        more = super().advance()
        every = self.every_windows
        if self.store is not None \
                and self._windows_run // every > before // every:
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
