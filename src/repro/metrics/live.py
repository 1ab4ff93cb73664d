"""Live observability plane: stream a run while it executes.

Everything :mod:`repro.metrics.timeline` exports is post-mortem — it
reads the bus after ``finalize()``.  This module is the in-flight
counterpart, two pieces reading the same
:class:`~repro.core.instrument.InstrumentationBus` /
:class:`~repro.core.telemetry.MetricsRegistry` without perturbing the
simulation (the trace digest is byte-identical with the plane on or
off):

* :class:`LivePlane` — a wall-clock-throttled sampler hung off
  :class:`~repro.core.runner.EngineRunner`'s per-window ``on_step``
  hook.  Every :data:`INTERVAL_MS` it emits one NDJSON progress record
  — :func:`repro.metrics.timeline.run_record` stamped with the schema
  version, kind and wall clock — to a file, or to stderr for ``-``.
  ``python -m repro profile --live FILE`` is the CLI front end.
  On a crash, a fault-injection recovery, or ``SIGUSR1`` it writes the
  flight dump, :func:`repro.metrics.timeline.write_flight`: the bus's
  spans of the last 64 windows as a validated Chrome trace.  Spans only
  exist when telemetry is on, so the plane dumps only then.
* :class:`ClusterWatchdog` — coordinator-side stall/slowness detection
  for :class:`~repro.cluster.runtime.ClusterEngine`.  It folds every
  window's measured per-agent reply times into per-agent baselines,
  flags agents whose current window exceeds the learned threshold, and
  emits ``watchdog.*`` counters and NDJSON events into the live stream.

Every record's ``v`` is
:data:`~repro.metrics.timeline.TELEMETRY_SCHEMA_VERSION`, the one
version stamp of the telemetry artifacts; every progress record carries
the full :data:`LIVE_RECORD_KEYS` set with ``null`` for not-applicable
fields, so consumers never branch on key presence.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from .timeline import TELEMETRY_SCHEMA_VERSION, run_record, write_flight

__all__ = ["LIVE_RECORD_KEYS", "LivePlane", "ClusterWatchdog"]

#: Every NDJSON record carries exactly this key set (``null`` marks a
#: field the run cannot measure — e.g. agent series on a serial engine).
LIVE_RECORD_KEYS = (
    "v", "kind", "wall_s", "windows", "sim_ps", "events", "events_per_s",
    "done", "memo_hit_rate", "memo_jump_windows", "shm_frames", "shm_bytes",
    "agents_busy_s", "agents_wait_s",
)

#: Sampler throttle (wall-clock milliseconds between NDJSON records),
#: read when a plane is constructed.
INTERVAL_MS = 500.0

#: The watchdog: a window longer than ``SLOW_FACTOR`` x an agent's
#: learned mean (and ``MIN_SLOW_S``) is ``slow``, one longer than
#: ``STALL_FACTOR`` x the mean (and ``MIN_STALL_S``) ``stalled``; flags
#: start after ``WARMUP`` healthy windows, the mean is an EWMA with
#: weight ``EWMA_ALPHA``, and at most ``MAX_EVENTS`` undrained events
#: are queued.
SLOW_FACTOR = 4.0
STALL_FACTOR = 20.0
MIN_SLOW_S = 1e-3
MIN_STALL_S = 0.05
WARMUP = 3
EWMA_ALPHA = 0.2
MAX_EVENTS = 256


class ClusterWatchdog:
    """Coordinator-side stall/slowness detection over window reply times.

    Fed by :meth:`ClusterEngine.advance` with the transport's measured
    per-agent ``window_times``, the per-window busy CPU seconds whose sums
    are the ``a<i>:busy_s`` gauges (the measured T_a).  Per agent it
    keeps an EWMA of normal window cost; once :data:`WARMUP` windows are
    seen, a window exceeding
    :data:`SLOW_FACTOR` × the learned mean is flagged ``slow`` and one
    exceeding :data:`STALL_FACTOR` × the mean (and the
    :data:`MIN_STALL_S` floor) is flagged ``stalled``.  Flagged samples do not update the
    baseline, so a stall cannot poison the threshold that caught it.

    Emissions: ``watchdog.checks`` / ``watchdog.slow`` /
    ``watchdog.stalled`` counters on the cluster bus, plus event dicts
    the live plane drains into the NDJSON stream via
    :meth:`pop_events`.  Busy / barrier-wait totals are not kept here:
    the engine adds the same window times into its bus's ``a<i>:busy_s``
    / ``a<i>:barrier_wait_s`` gauges on every run, watched or not.
    """

    def __init__(self, num_agents: int) -> None:
        self.flags = [0] * num_agents
        self._mean = [0.0] * num_agents
        self._seen = [0] * num_agents
        self._events: deque = deque(maxlen=MAX_EVENTS)

    def observe(self, window: int, times: List[float],
                bus: Any = None) -> List[Dict[str, Any]]:
        """Fold one window's per-agent reply times in; returns (and
        queues) the events this window raised."""
        if not times:
            return []
        raised: List[Dict[str, Any]] = []
        for agent, t in enumerate(times):
            seen, mean = self._seen[agent], self._mean[agent]
            kind = None
            if seen >= WARMUP:
                stall_thr = max(MIN_STALL_S, STALL_FACTOR * mean)
                slow_thr = max(MIN_SLOW_S, SLOW_FACTOR * mean)
                if t > stall_thr:
                    kind, threshold = "stalled", stall_thr
                elif t > slow_thr:
                    kind, threshold = "slow", slow_thr
            if kind is not None:
                event = {"event": kind, "agent": agent, "window": window,
                         "window_s": round(t, 6),
                         "threshold_s": round(threshold, 6)}
                self._events.append(event)
                raised.append(event)
                self.flags[agent] += 1
                if bus is not None:
                    bus.count(f"watchdog.{kind}")
            else:
                # Healthy sample: update the learned baseline.
                self._seen[agent] = seen + 1
                self._mean[agent] = (
                    t if seen == 0
                    else (1.0 - EWMA_ALPHA) * mean + EWMA_ALPHA * t
                )
        if bus is not None:
            bus.count("watchdog.checks")
        return raised

    def pop_events(self) -> List[Dict[str, Any]]:
        """Drain queued events (the live plane's NDJSON feed)."""
        out = list(self._events)
        self._events.clear()
        return out


class LivePlane:
    """The in-flight sampler: one object wiring all live outputs.

    Attach with ``EngineRunner(engine, on_step=plane.on_step)`` (or
    chain it next to the ``--progress`` meter with
    :func:`repro.core.runner.chain_hooks`).  Use as a context manager:
    ``__exit__`` emits a final record, writes the flight dump on an
    exception, and releases the stream.  The plane dumps if and only if
    the bus is telemetered: the dump is a view of the bus's spans.

    The sampler only *reads* engine state — ``progress()``, the bus
    counters and gauges (a cluster's busy / wait totals) — and never toggles
    telemetry, installs a sink, or touches the event calendar,
    which is how the trace-digest neutrality invariant holds by
    construction.

    Records go to ``path`` (``"-"``: stderr; ``None``: nowhere), the
    flight dump to ``<path>.flight.json`` (``repro-flight.json`` when
    the records have no file of their own).
    """

    def __init__(self, engine: Any, path: Optional[str] = None) -> None:
        self.engine = engine
        self.interval_s = INTERVAL_MS / 1e3
        self._owns_stream = path not in (None, "-")
        self._stream = (open(path, "w") if self._owns_stream
                        else sys.stderr if path == "-" else None)
        self.flight = engine.bus.telemetry
        self.flight_path = (f"{path}.flight.json"
                            if self._owns_stream and path != os.devnull
                            else "repro-flight.json")
        self.records_emitted = 0
        self._t0 = time.perf_counter()
        self._last = 0.0  # first on_step always samples
        self._recoveries_seen = 0
        self._old_sigusr1: Any = None
        self._closed = False
        if (self.flight and hasattr(signal, "SIGUSR1")
                and threading.current_thread() is threading.main_thread()):
            self._old_sigusr1 = signal.signal(signal.SIGUSR1, self._on_sigusr1)

    # --- sampling ---------------------------------------------------------

    def on_step(self, steps: int) -> None:
        """Per-window hook: throttled emission."""
        now = time.perf_counter()
        if now - self._last < self.interval_s:
            return
        self._last = now
        self.sample(now=now)

    def _record(self, kind: str, now: float) -> Dict[str, Any]:
        wall = now - self._t0
        return {"v": TELEMETRY_SCHEMA_VERSION, "kind": kind,
                "wall_s": round(wall, 6),
                **run_record(self.engine.bus, self.engine, wall)}

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._stream is not None:
            self._stream.write(json.dumps(record, separators=(",", ":"))
                               + "\n")
            self._stream.flush()
        self.records_emitted += 1

    def sample(self, kind: str = "progress",
               now: Optional[float] = None) -> Dict[str, Any]:
        """Emit one NDJSON record (plus queued watchdog events);
        returns the record."""
        if now is None:
            now = time.perf_counter()
        engine = self.engine
        record = self._record(kind, now)
        watchdog = getattr(engine, "watchdog", None)
        if watchdog is not None:
            for event in watchdog.pop_events():
                self._emit({"v": TELEMETRY_SCHEMA_VERSION, "kind": "watchdog",
                            "wall_s": record["wall_s"], **event})
        recoveries = getattr(engine, "recoveries", None)
        if recoveries is not None and len(recoveries) > self._recoveries_seen:
            self._recoveries_seen = len(recoveries)
            dumped = self.dump_flight()
            if dumped:
                self._emit({"v": TELEMETRY_SCHEMA_VERSION, "kind": "flight",
                            "wall_s": record["wall_s"], "path": dumped,
                            "trigger": "fault-recovery"})
        self._emit(record)
        return record

    # --- flight dump triggers ---------------------------------------------

    def dump_flight(self) -> Optional[str]:
        if not self.flight:
            return None
        return write_flight(self.engine.bus, self.flight_path)

    def _on_sigusr1(self, _signum: int, _frame: Any) -> None:
        dumped = self.dump_flight()
        if dumped:
            self._emit({"v": TELEMETRY_SCHEMA_VERSION, "kind": "flight",
                        "wall_s": round(time.perf_counter() - self._t0, 6),
                        "path": dumped, "trigger": "sigusr1"})

    # --- lifecycle --------------------------------------------------------

    def close(self, final: bool = True) -> None:
        """Emit the final record and release every resource (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            if final:
                self.sample(kind="final")
        finally:
            if self._old_sigusr1 is not None:
                signal.signal(signal.SIGUSR1, self._old_sigusr1)
                self._old_sigusr1 = None
            if self._owns_stream:
                self._stream.close()

    def __enter__(self) -> "LivePlane":
        return self

    def __exit__(self, exc_type: Any, _exc: Any, _tb: Any) -> bool:
        if exc_type is not None:
            # Crash: preserve the black box before releasing anything.
            try:
                self.dump_flight()
            except Exception:  # the dump must never mask the real error
                pass
            self.close(final=False)
        else:
            self.close()
        return False
