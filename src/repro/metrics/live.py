"""Live observability plane: stream a run while it executes.

Everything :mod:`repro.metrics.timeline` exports is post-mortem — it
reads the bus after ``finalize()``.  This module is the in-flight
counterpart, four pieces reading the same
:class:`~repro.core.instrument.InstrumentationBus` /
:class:`~repro.core.telemetry.MetricsRegistry` without perturbing the
simulation (the trace digest is byte-identical with the plane on or
off):

* :class:`LivePlane` — a wall-clock-throttled sampler hung off
  :class:`~repro.core.runner.EngineRunner`'s per-window ``on_step``
  hook.  Every ``$REPRO_LIVE_INTERVAL_MS`` (default 500) it emits one
  NDJSON progress record — sim time, windows done, events committed,
  events/s, memo hit rate, shm transport counters, per-agent busy /
  barrier-wait — to a file or stream, and republishes the same snapshot
  to the metrics endpoint.  ``python -m repro profile --live FILE`` and
  ``python -m repro stats --watch`` are the CLI front ends.
* :class:`MetricsServer` — a localhost HTTP listener (port 0 picks an
  ephemeral port) serving the latest snapshot at ``/metrics`` in
  OpenMetrics text exposition format, scrapeable by Prometheus.  The
  serving thread only ever reads an immutable published string — it
  never touches live engine state.
* :class:`FlightRecorder` — a bounded ring buffer over the bus's span
  stream holding the last N windows.  On a crash, a fault-injection
  kill, or ``SIGUSR1`` it dumps a Chrome-trace-compatible artifact
  (validated by :func:`repro.metrics.timeline.validate_chrome_trace`,
  the same gate CI runs on full timelines).  Spans only exist when
  telemetry is on, so the recorder arms itself only then.
* :class:`ClusterWatchdog` — coordinator-side stall/slowness detection
  for :class:`~repro.cluster.runtime.ClusterEngine`.  It folds every
  window's measured per-agent reply times into per-agent baselines,
  flags agents whose current window exceeds the learned threshold,
  emits ``watchdog.*`` counters and NDJSON events into the live stream,
  and accumulates the per-agent busy seconds that
  :func:`repro.partition.refit_cluster_spec` consumes as
  ``measured_times``.

The NDJSON record schema is pinned by ``LIVE_SCHEMA_VERSION`` (and by
``tests/metrics/test_live.py``); every record carries the full key set
with ``null`` for not-applicable fields, so consumers never branch on
key presence.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "LIVE_SCHEMA_VERSION", "LIVE_RECORD_KEYS",
    "LivePlane", "MetricsServer", "FlightRecorder", "ClusterWatchdog",
    "openmetrics_text", "validate_openmetrics",
]

#: Version stamp of the NDJSON progress-record schema (the ``v`` field).
#: v2: ``memo_jump_windows`` — windows skipped by cycle jumps so far, so
#: a reader can tell a burst in ``windows`` from execution speed.
#: v3: the shm fallback count dropped — nothing ever counted one.
LIVE_SCHEMA_VERSION = 3

#: Every NDJSON record carries exactly this key set (``null`` marks a
#: field the run cannot measure — e.g. agent series on a serial engine).
LIVE_RECORD_KEYS = (
    "v", "kind", "wall_s", "windows", "sim_ps", "events", "events_per_s",
    "done", "memo_hit_rate", "memo_jump_windows", "shm_frames", "shm_bytes",
    "agents_busy_s", "agents_wait_s",
)

#: Sampler throttle (wall-clock milliseconds between NDJSON records).
DEFAULT_INTERVAL_MS = 500.0
ENV_INTERVAL = "REPRO_LIVE_INTERVAL_MS"

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_AGENT_RE = re.compile(r"^a(\d+):(.+)$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\+?Inf|NaN))$"
)


def _metric_name(name: str) -> Tuple[str, str]:
    """Map one bus metric name to ``(family, labels)``.

    ``a<i>:rest`` names (the cluster merge's per-agent tag) become one
    shared ``repro_agent_<rest>`` family with an ``agent="<i>"`` label;
    everything else is sanitized under the ``repro_`` prefix.
    """
    match = _AGENT_RE.match(name)
    if match:
        rest = _NAME_RE.sub("_", match.group(2))
        return f"repro_agent_{rest}", f'agent="{match.group(1)}"'
    return "repro_" + _NAME_RE.sub("_", name), ""


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


#: Progress-record fields republished as gauges on the endpoint.
_LIVE_GAUGES = (
    ("windows", "repro_windows_done", "lookahead windows executed"),
    ("sim_ps", "repro_sim_time_picoseconds", "simulated time reached"),
    ("events", "repro_events_committed", "simulation events committed"),
    ("events_per_s", "repro_events_per_second", "throughput (cumulative)"),
    ("wall_s", "repro_wall_clock_seconds", "wall-clock since attach"),
    ("done", "repro_run_completion_ratio", "fraction of the duration cut"),
    ("memo_hit_rate", "repro_memo_hit_rate", "window-memo hit fraction"),
)


def openmetrics_text(record: Dict[str, Any],
                     counters: Optional[Dict[str, int]] = None,
                     metrics: Optional[Dict[str, Any]] = None) -> str:
    """Render one live snapshot as OpenMetrics text exposition format.

    ``record`` is an NDJSON progress record (its numeric fields become
    gauges), ``counters`` the bus's counter dict (families suffixed
    ``_total``), ``metrics`` a
    :meth:`~repro.core.telemetry.MetricsRegistry.snapshot` (gauges pass
    through, histograms are emitted with the cumulative bucket counts
    and ``+Inf`` bound the format requires).  Ends with the mandatory
    ``# EOF`` terminator.
    """
    lines: List[str] = []
    for key, family, help_text in _LIVE_GAUGES:
        value = record.get(key)
        if value is None:
            continue
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"{family} {_fmt(value)}")
    for name in sorted(counters or ()):
        family, labels = _metric_name(name)
        lines.append(f"# TYPE {family} counter")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{family}_total{suffix} {_fmt(counters[name])}")
    metrics = metrics or {}
    # Agent-tagged gauges share one family; group before emitting so the
    # TYPE line appears exactly once per family.
    families: Dict[str, List[str]] = {}
    for name in sorted(metrics.get("counters", ())):
        family, labels = _metric_name(name)
        suffix = f"{{{labels}}}" if labels else ""
        families.setdefault(family + " counter", []).append(
            f"{family}_total{suffix} {_fmt(metrics['counters'][name])}")
    for name in sorted(metrics.get("gauges", ())):
        family, labels = _metric_name(name)
        suffix = f"{{{labels}}}" if labels else ""
        families.setdefault(family + " gauge", []).append(
            f"{family}{suffix} {_fmt(metrics['gauges'][name])}")
    for key in sorted(families):
        family, kind = key.rsplit(" ", 1)
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(families[key])
    for name in sorted(metrics.get("histograms", ())):
        snap = metrics["histograms"][name]
        family, _labels = _metric_name(name)
        lines.append(f"# TYPE {family} histogram")
        cum = 0
        for bound, count in zip(snap["buckets"], snap["counts"]):
            cum += count
            lines.append(f'{family}_bucket{{le="{_fmt(bound)}"}} {cum}')
        lines.append(f'{family}_bucket{{le="+Inf"}} {snap["count"]}')
        lines.append(f"{family}_count {snap['count']}")
        lines.append(f"{family}_sum {_fmt(snap['sum'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> List[Tuple[str, str, float]]:
    """Check one exposition payload against the subset we emit.

    Verifies the ``# EOF`` terminator, that every sample belongs to a
    ``# TYPE``-declared family (with the ``_total`` suffix on counters
    and cumulative, ``+Inf``-terminated buckets on histograms), and that
    sample lines parse.  Raises :class:`ReproError` on the first
    violation; returns the parsed ``(name, labels, value)`` samples.
    """
    if not text.endswith("# EOF\n"):
        raise ReproError("openmetrics: missing '# EOF' terminator")
    types: Dict[str, str] = {}
    samples: List[Tuple[str, str, float]] = []
    hist_state: Dict[str, Dict[str, Any]] = {}
    for i, line in enumerate(text.splitlines()):
        if not line:
            raise ReproError(f"openmetrics: blank line {i}")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if parts[1] == "EOF":
                continue
            if parts[1] not in ("TYPE", "HELP", "UNIT"):
                raise ReproError(f"openmetrics: bad comment line {i}: "
                                 f"{line!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "info", "unknown"):
                    raise ReproError(
                        f"openmetrics: bad TYPE line {i}: {line!r}")
                if parts[2] in types:
                    raise ReproError(
                        f"openmetrics: duplicate TYPE for {parts[2]!r}")
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ReproError(f"openmetrics: unparsable sample line {i}: "
                             f"{line!r}")
        name, labels = match.group("name"), match.group("labels") or ""
        value = float(match.group("value").replace("Inf", "inf"))
        family = name
        for suffix in ("_total", "_bucket", "_count", "_sum"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and base in types:
                family = base
                break
        kind = types.get(family)
        if kind is None:
            raise ReproError(
                f"openmetrics: sample {name!r} has no TYPE metadata")
        if kind == "counter" and not name.endswith("_total"):
            raise ReproError(
                f"openmetrics: counter sample {name!r} lacks _total")
        if kind == "histogram" and name.endswith("_bucket"):
            le = dict(
                pair.split("=", 1) for pair in labels.split(",") if pair
            ).get("le", "").strip('"')
            state = hist_state.setdefault(
                family, {"last_le": None, "last_cum": None})
            bound = float(le.replace("Inf", "inf"))
            if state["last_le"] is not None and bound <= state["last_le"]:
                raise ReproError(
                    f"openmetrics: {family} buckets not sorted at {le}")
            if (state["last_cum"] is not None
                    and value < state["last_cum"]):
                raise ReproError(
                    f"openmetrics: {family} buckets not cumulative at {le}")
            state["last_le"], state["last_cum"] = bound, value
            if bound == float("inf"):
                state["inf"] = value
        if kind == "histogram" and name.endswith("_count"):
            inf = hist_state.get(family, {}).get("inf")
            if inf is not None and inf != value:
                raise ReproError(
                    f"openmetrics: {family} +Inf bucket {inf} != "
                    f"count {value}")
        samples.append((name, labels, value))
    return samples


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path.rstrip("/") not in ("", "/metrics"):
            self.send_error(404)
            return
        payload = self.server.payload  # type: ignore[attr-defined]
        body = payload.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args: Any) -> None:
        """Scrapes must not spam the run's stderr."""


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._lock = threading.Lock()
        self._payload = "# EOF\n"

    @property
    def payload(self) -> str:
        with self._lock:
            return self._payload

    @payload.setter
    def payload(self, text: str) -> None:
        with self._lock:
            self._payload = text


class MetricsServer:
    """Localhost OpenMetrics endpoint serving the last published snapshot.

    The sampler thread *pushes* rendered text with :meth:`publish`; the
    HTTP thread only ever reads that immutable string, so a Prometheus
    scrape can never observe (or block on) live engine state.
    """

    def __init__(self, port: Optional[int] = None) -> None:
        """``port`` ``None`` or 0 binds an ephemeral port."""
        self._http = _Server(("127.0.0.1", port or 0), _MetricsHandler)
        self.port: int = self._http.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}/metrics"
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-metrics",
            daemon=True)
        self._thread.start()

    def publish(self, text: str) -> None:
        self._http.payload = text

    def close(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        self._thread.join(timeout=5)


class FlightRecorder:
    """Bounded ring over the bus's span stream: the last N windows.

    :meth:`poll` (called per window by the live plane) absorbs spans the
    bus appended since the previous poll and evicts whole windows beyond
    ``max_windows``, so a multi-hour run holds a constant-size black
    box.  :meth:`dump` renders the ring through the same
    :func:`~repro.metrics.timeline.chrome_trace_events` /
    :func:`~repro.metrics.timeline.validate_chrome_trace` pair CI runs
    on full timelines — a flight dump is always loadable in Perfetto.
    """

    def __init__(self, bus: Any, max_windows: int = 64) -> None:
        self.bus = bus
        self.max_windows = max(1, max_windows)
        self._taken = 0
        self._ring: deque = deque()
        self._window_t0: deque = deque()

    def poll(self) -> None:
        """Absorb new spans; evict windows beyond the ring bound."""
        spans = self.bus.spans
        n = len(spans)
        if n == self._taken:
            return
        for span in spans[self._taken:n]:
            self._ring.append(span)
            if span[2] == "window":
                self._window_t0.append(span[0])
        self._taken = n
        while len(self._window_t0) > self.max_windows:
            self._window_t0.popleft()
            horizon = self._window_t0[0]
            # Span-buffer order is span *end* order; drop everything
            # that finished before the oldest kept window began.
            ring = self._ring
            while ring and ring[0][1] <= horizon:
                ring.popleft()

    @property
    def windows(self) -> int:
        return len(self._window_t0)

    def dump(self, path: str) -> Optional[str]:
        """Write the ring as a validated Chrome-trace artifact.

        Returns the path, or ``None`` when the ring is empty (telemetry
        off: there is nothing to record, and an empty artifact would
        read as a successful dump).
        """
        from .timeline import (
            TELEMETRY_SCHEMA_VERSION, chrome_trace_events,
            validate_chrome_trace,
        )
        self.poll()
        if not self._ring:
            return None
        events = chrome_trace_events(SimpleNamespace(spans=list(self._ring)))
        validate_chrome_trace(events)
        data = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "format": "chrome-trace-events",
                "schema_version": TELEMETRY_SCHEMA_VERSION,
                "flight_recorder": {"windows": self.windows,
                                    "max_windows": self.max_windows},
            },
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        return path


class ClusterWatchdog:
    """Coordinator-side stall/slowness detection over window reply times.

    Fed by :meth:`ClusterEngine.advance` with the transport's measured
    per-agent ``window_times`` (the same series the barrier-wait gauges
    are built from).  Per agent it keeps an EWMA of normal window cost;
    once ``warmup`` windows are seen, a window exceeding
    ``slow_factor`` × the learned mean is flagged ``slow`` and one
    exceeding ``stall_factor`` × the mean (and the ``min_stall_s``
    floor) is flagged ``stalled``.  Flagged samples do not update the
    baseline, so a stall cannot poison the threshold that caught it.

    Emissions: ``watchdog.checks`` / ``watchdog.slow`` /
    ``watchdog.stalled`` counters on the cluster bus, plus event dicts
    the live plane drains into the NDJSON stream via
    :meth:`pop_events`.  The accumulated per-agent busy seconds
    (:meth:`measured_times`) are the ``measured_times`` sequence
    :func:`repro.partition.refit_cluster_spec` consumes — the watchdog
    keeps the measure → repartition loop closed even when full
    telemetry is off.
    """

    def __init__(self, num_agents: int, slow_factor: float = 4.0,
                 stall_factor: float = 20.0, min_slow_s: float = 1e-3,
                 min_stall_s: float = 0.05, warmup: int = 3,
                 ewma_alpha: float = 0.2, max_events: int = 256) -> None:
        self.slow_factor = slow_factor
        self.stall_factor = stall_factor
        self.min_slow_s = min_slow_s
        self.min_stall_s = min_stall_s
        self.warmup = max(1, warmup)
        self.ewma_alpha = ewma_alpha
        self.busy_s = [0.0] * num_agents
        self.wait_s = [0.0] * num_agents
        self.last_reply_wall = [0.0] * num_agents
        self.flags = [0] * num_agents
        self._mean = [0.0] * num_agents
        self._seen = [0] * num_agents
        self._events: deque = deque(maxlen=max_events)

    def observe(self, window: int, times: List[float],
                bus: Any = None) -> List[Dict[str, Any]]:
        """Fold one window's per-agent reply times in; returns (and
        queues) the events this window raised."""
        if not times:
            return []
        raised: List[Dict[str, Any]] = []
        t_max = max(times)
        now = time.time()
        for agent, t in enumerate(times):
            self.busy_s[agent] += t
            self.wait_s[agent] += t_max - t
            self.last_reply_wall[agent] = now
            seen, mean = self._seen[agent], self._mean[agent]
            kind = None
            if seen >= self.warmup:
                stall_thr = max(self.min_stall_s, self.stall_factor * mean)
                slow_thr = max(self.min_slow_s, self.slow_factor * mean)
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
                    else (1.0 - self.ewma_alpha) * mean + self.ewma_alpha * t
                )
        if bus is not None:
            bus.count("watchdog.checks")
        return raised

    def pop_events(self) -> List[Dict[str, Any]]:
        """Drain queued events (the live plane's NDJSON feed)."""
        out = list(self._events)
        self._events.clear()
        return out

    def measured_times(self) -> List[float]:
        """Cumulative per-agent busy seconds — the shape
        ``refit_cluster_spec`` takes as ``measured_times``."""
        return list(self.busy_s)


class LivePlane:
    """The in-flight sampler: one object wiring all live outputs.

    Attach with ``EngineRunner(engine, on_step=plane.on_step)`` (or
    chain it next to the ``--progress`` meter with
    :func:`repro.core.runner.chain_hooks`).  Use as a context manager:
    ``__exit__`` emits a final record, dumps the flight recorder on an
    exception, and releases the HTTP listener and stream.

    The sampler only *reads* engine state — counters, the results event
    totals, the window cursor — and never toggles telemetry, installs
    subscribers, or touches the event calendar, which is how the
    trace-digest neutrality invariant holds by construction.
    """

    def __init__(self, engine: Any, path: Optional[str] = None,
                 stream: Any = None, interval_ms: Optional[float] = None,
                 metrics_port: Optional[int] = None,
                 flight: Any = "auto", flight_path: Optional[str] = None,
                 flight_windows: int = 64) -> None:
        self.engine = engine
        bus = engine.bus
        if interval_ms is None:
            interval_ms = float(os.environ.get(ENV_INTERVAL)
                                or DEFAULT_INTERVAL_MS)
        self.interval_s = max(0.0, interval_ms) / 1e3
        self._stream = stream
        self._owns_stream = False
        if stream is None and path is not None:
            self._stream = open(path, "w")
            self._owns_stream = True
        self.server: Optional[MetricsServer] = None
        if metrics_port is not None:
            self.server = MetricsServer(metrics_port)
        if flight == "auto":
            flight = bool(getattr(bus, "telemetry", False))
        self.recorder: Optional[FlightRecorder] = None
        if flight:
            self.recorder = FlightRecorder(bus, flight_windows)
        if flight_path is None:
            flight_path = (f"{path}.flight.json"
                           if path and path != os.devnull
                           else "repro-flight.json")
        self.flight_path = flight_path
        self.records_emitted = 0
        self._t0 = time.perf_counter()
        self._last = 0.0  # first on_step always samples
        self._steps = 0
        self._recoveries_seen = 0
        self._old_sigusr1: Any = None
        self._closed = False
        if (self.recorder is not None and hasattr(signal, "SIGUSR1")
                and threading.current_thread() is threading.main_thread()):
            self._old_sigusr1 = signal.signal(signal.SIGUSR1, self._on_sigusr1)

    # --- sampling ---------------------------------------------------------

    def on_step(self, steps: int) -> None:
        """Per-window hook: cheap bookkeeping, throttled emission."""
        self._steps = steps
        if self.recorder is not None:
            self.recorder.poll()
        now = time.perf_counter()
        if now - self._last < self.interval_s:
            return
        self._last = now
        self.sample(now=now)

    def _record(self, kind: str, now: float) -> Dict[str, Any]:
        engine = self.engine
        prog = getattr(engine, "progress", None)
        p = prog() if callable(prog) else {}
        counters = engine.bus.counters
        wall = now - self._t0
        events = p.get("events", 0)
        hits = counters.get("memo.hit", 0)
        lookups = hits + counters.get("memo.miss", 0)
        watchdog = getattr(engine, "watchdog", None)
        busy = wait = None
        if watchdog is not None:
            busy = [round(s, 6) for s in watchdog.busy_s]
            wait = [round(s, 6) for s in watchdog.wait_s]
        elif getattr(engine, "_busy_s", None):
            busy = [round(s, 6) for s in engine._busy_s]
            wait = [round(s, 6) for s in engine._wait_s]
        return {
            "v": LIVE_SCHEMA_VERSION,
            "kind": kind,
            "wall_s": round(wall, 6),
            "windows": p.get("windows", self._steps),
            "sim_ps": p.get("sim_ps", 0),
            "events": events,
            "events_per_s": round(events / wall, 3) if wall > 0 else 0.0,
            "done": p.get("done"),
            "memo_hit_rate": round(hits / lookups, 6) if lookups else None,
            "memo_jump_windows": counters.get("memo.jump_windows", 0),
            "shm_frames": counters.get("transport.shm_frames", 0),
            "shm_bytes": counters.get("transport.shm_bytes", 0),
            "agents_busy_s": busy,
            "agents_wait_s": wait,
        }

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._stream is not None:
            self._stream.write(json.dumps(record, separators=(",", ":"))
                               + "\n")
            self._stream.flush()
        self.records_emitted += 1

    def sample(self, kind: str = "progress",
               now: Optional[float] = None) -> Dict[str, Any]:
        """Emit one NDJSON record (plus queued watchdog events) and
        republish the OpenMetrics snapshot.  Returns the record."""
        if now is None:
            now = time.perf_counter()
        engine = self.engine
        record = self._record(kind, now)
        watchdog = getattr(engine, "watchdog", None)
        if watchdog is not None:
            for event in watchdog.pop_events():
                self._emit({"v": LIVE_SCHEMA_VERSION, "kind": "watchdog",
                            "wall_s": record["wall_s"], **event})
        recoveries = getattr(engine, "recoveries", None)
        if recoveries is not None and len(recoveries) > self._recoveries_seen:
            self._recoveries_seen = len(recoveries)
            dumped = self.dump_flight()
            if dumped:
                self._emit({"v": LIVE_SCHEMA_VERSION, "kind": "flight",
                            "wall_s": record["wall_s"], "path": dumped,
                            "trigger": "fault-recovery"})
        self._emit(record)
        if self.server is not None:
            bus = engine.bus
            self.server.publish(openmetrics_text(
                record, dict(bus.counters), bus.metrics.snapshot()))
        return record

    # --- flight recorder triggers -----------------------------------------

    def dump_flight(self) -> Optional[str]:
        if self.recorder is None:
            return None
        return self.recorder.dump(self.flight_path)

    def _on_sigusr1(self, _signum: int, _frame: Any) -> None:
        dumped = self.dump_flight()
        if dumped:
            self._emit({"v": LIVE_SCHEMA_VERSION, "kind": "flight",
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
            if self.server is not None:
                self.server.close()
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
