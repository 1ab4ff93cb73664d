"""Telemetry exporters: Perfetto timelines, metric dumps, run manifests.

Three ways out of an :class:`~repro.core.instrument.InstrumentationBus`:

* :func:`chrome_trace_events` / :func:`write_timeline` — the bus's span
  buffer as Chrome trace event format JSON (load in Perfetto or
  ``about://tracing``).  Span names tagged ``a<id>:`` by the cluster
  merge land on that agent's process track (pid ``id + 1``); the
  coordinator's own per-agent slices (category ``"cluster"``, e.g.
  barrier-wait) go on a second thread row of the same process so they
  never interleave with the agent's own run/window/system spans.
  Begin/end records are emitted as matched ``B``/``E`` pairs with
  strictly nested, monotone timestamps — :func:`validate_chrome_trace`
  checks exactly that and is what CI runs against every exported file.
  :func:`write_flight` writes the flight dump, the same format over the
  spans of the last :data:`FLIGHT_WINDOWS` windows only.
* :func:`run_report` — the one report of an observed run (``python -m
  repro profile --json`` / ``--out FILE``): the :func:`run_record`
  keys, the bus counters, the metrics registry snapshot, per-system
  totals, the per-window rows and the window memo's reasons.  On a
  cluster run its ``agents_busy_s`` is the series
  :func:`repro.partition.refit_cluster_spec` takes as
  ``measured_times``, closing the measure → repartition loop.
* :func:`run_manifest` / :func:`write_manifest` — a small provenance
  record (seed, transport, git revision, schema version)
  written next to every artifact as ``<artifact>.manifest.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

__all__ = [
    "TELEMETRY_SCHEMA_VERSION", "TIMELINE_FORMAT", "MANIFEST_FORMAT",
    "chrome_trace_events", "write_timeline", "FLIGHT_WINDOWS",
    "flight_spans", "write_flight",
    "validate_chrome_trace", "validate_timeline_file",
    "run_record", "run_report", "memo_line",
    "run_manifest", "write_manifest",
]

#: Version stamp shared by every telemetry artifact this layer writes.
#: v2: the counter set gained the memo.* family with the memo.apply_ms
#: histogram.
#: v3: stats reports grew the derived ``memo`` (hit/miss/hit_rate) and
#: ``transport_shm`` (frames/bytes/fallbacks) sections, and the live
#: observability plane (repro.metrics.live) started stamping its flight
#: dumps with this version.
#: v4: the ``memo`` section says why: ``jump`` / ``jump_windows`` and
#: one ``ineligible.<reason>`` / ``uncacheable.<reason>`` /
#: ``jump_refused.<reason>`` / ``disabled.<gate>`` field per reason that
#: occurred.
#: v5: ``transport_shm`` lost ``fallbacks`` — nothing ever counted it.
#: v6: the per-system ``totals`` lost ``items`` / ``tasks``, and the
#: ``pool.tasks`` / ``pool.items`` counters are gone — nothing counts
#: task batches any more.
#: v7: the ``metrics`` snapshot lost ``counters``: the ``port.*``
#: rollups are bus counters, next to the agents' new ``cluster.rpc_*``
#: / ``cluster.finish_frames`` traffic counters.
#: v8: a flight dump's ``otherData`` says ``flight: {windows}`` (was
#: ``flight_recorder: {windows, max_windows}``): it is always the last
#: ``FLIGHT_WINDOWS`` windows.
#: v9: one report per run (``run_report``): the ``run_record`` keys at
#: the top level, plus ``rows``; the ``memo`` section lost ``hit_rate``
#: / ``jump_windows`` (``memo_hit_rate`` / ``memo_jump_windows``), and
#: the ``transport_shm`` / ``agent_*`` sections are gone (``shm_*`` /
#: ``agents_*``).  Live NDJSON records carry this version as ``v``.
#: v10: the separate per-agent CPU gauge is gone; ``a<i>:busy_s`` and
#: ``agents_busy_s`` are CPU seconds (``time.thread_time()`` outside
#: barrier waits), no longer wall seconds.
TELEMETRY_SCHEMA_VERSION = 10
TIMELINE_FORMAT = "chrome-trace-events"
MANIFEST_FORMAT = "repro-run-manifest-v1"


def _split_track(name: str, cat: str) -> Tuple[int, int, str]:
    """Map one span to its (pid, tid, display-name) track.

    ``a<id>:`` prefixes select the agent's process; coordinator-recorded
    slices about an agent (category ``"cluster"``) take thread 1 so they
    cannot break the nesting of the agent's own spans on thread 0.
    """
    tag, sep, rest = name.partition(":")
    if sep and len(tag) > 1 and tag[0] == "a" and tag[1:].isdigit():
        return int(tag[1:]) + 1, (1 if cat == "cluster" else 0), rest
    return 0, 0, name


def chrome_trace_events(
    bus: Any,
    process_names: Optional[Dict[int, str]] = None,
) -> List[Dict[str, Any]]:
    """Render the bus's span buffer as Chrome trace events.

    Per (pid, tid) track, spans are emitted as properly nested matched
    B/E pairs: children are clamped into their parent when clock jitter
    makes them overhang, so a schema validator (and Perfetto) always
    sees a well-formed stack.  Timestamps are microseconds, shifted so
    the earliest span starts at 0.
    """
    tracks: Dict[Tuple[int, int], List[Tuple[float, float, str, str, Any]]] = {}
    for t0, t1, name, cat, attrs in bus.spans:
        pid, tid, display = _split_track(name, cat)
        tracks.setdefault((pid, tid), []).append(
            (t0, t1, display, cat, attrs)
        )
    if not tracks:
        return []
    base = min(s[0] for spans in tracks.values() for s in spans)

    def us(t: float) -> float:
        return round((t - base) * 1e6, 3)

    events: List[Dict[str, Any]] = []
    names = process_names or {}
    for pid in sorted({pid for pid, _tid in tracks}):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0,
            "args": {"name": names.get(
                pid, "run" if pid == 0 else f"agent {pid - 1}")},
        })
    body: List[Dict[str, Any]] = []
    for (pid, tid), spans in sorted(tracks.items()):
        # Outermost-first order; the stack then yields matched nesting.
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: List[Tuple[float, str, str]] = []  # (end, name, cat)

        def pop() -> None:
            end, name, cat = stack.pop()
            body.append({"ph": "E", "name": name, "cat": cat,
                         "pid": pid, "tid": tid, "ts": us(end)})

        for t0, t1, name, cat, attrs in spans:
            while stack and stack[-1][0] <= t0:
                pop()
            if stack and t1 > stack[-1][0]:
                t1 = stack[-1][0]
            if t1 < t0:
                t1 = t0
            event: Dict[str, Any] = {"ph": "B", "name": name, "cat": cat,
                                     "pid": pid, "tid": tid, "ts": us(t0)}
            if attrs:
                event["args"] = dict(attrs)
            body.append(event)
            stack.append((t1, name, cat))
        while stack:
            pop()
    body.sort(key=lambda e: e["ts"])
    return events + body


def _write_chrome_trace(events: List[Dict[str, Any]], path: str,
                        **other: Any) -> None:
    data = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": TIMELINE_FORMAT,
                      "schema_version": TELEMETRY_SCHEMA_VERSION, **other},
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def write_timeline(bus: Any, path: str,
                   process_names: Optional[Dict[int, str]] = None,
                   manifest: Optional[Dict[str, Any]] = None) -> str:
    """Write the bus's spans as a Chrome trace JSON file (plus a
    ``<path>.manifest.json`` provenance record when ``manifest`` is
    given) and return the timeline path."""
    _write_chrome_trace(chrome_trace_events(bus, process_names), path)
    if manifest is not None:
        write_manifest(path, **manifest)
    return path


#: Windows a flight dump covers, counted back from the last one.
FLIGHT_WINDOWS = 64


def flight_spans(spans: Sequence[tuple]) -> List[tuple]:
    """The spans of the last :data:`FLIGHT_WINDOWS` ``window`` spans:
    every span that ends after the earliest of them starts.  The bus
    appends a span when it ends, so this is a suffix of ``spans``."""
    starts = [span[0] for span in spans if span[2] == "window"]
    if len(starts) <= FLIGHT_WINDOWS:
        return list(spans)
    horizon = starts[-FLIGHT_WINDOWS]
    return [span for span in spans if span[1] > horizon]


def write_flight(bus: Any, path: str) -> Optional[str]:
    """Write the flight dump — the bus's last :data:`FLIGHT_WINDOWS`
    windows as a validated Chrome trace — and return its path, or
    ``None`` without writing when the bus holds no span (telemetry off:
    an empty file would read as a successful dump)."""
    spans = flight_spans(bus.spans)
    if not spans:
        return None
    events = chrome_trace_events(SimpleNamespace(spans=spans))
    validate_chrome_trace(events)
    windows = sum(1 for span in spans if span[2] == "window")
    _write_chrome_trace(events, path, flight={"windows": windows})
    return path


def validate_chrome_trace(data: Any) -> List[Dict[str, Any]]:
    """Check a timeline against the Chrome trace event schema subset we
    emit: required keys per event, monotone non-decreasing ``ts``, and
    per-track matched B/E pairs.  Raises :class:`ReproError` on the
    first violation; returns the event list for further inspection."""
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            raise ReproError("timeline: missing traceEvents list")
    elif isinstance(data, list):
        events = data
    else:
        raise ReproError("timeline: expected an object or an array")
    last_ts = None
    stacks: Dict[Tuple[Any, Any], List[str]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ReproError(f"timeline: event {i} is not an object")
        for key in ("ph", "ts", "pid", "tid"):
            if key not in event:
                raise ReproError(f"timeline: event {i} lacks {key!r}")
        ph = event["ph"]
        if ph == "M":
            continue
        if ph not in ("B", "E"):
            raise ReproError(f"timeline: event {i} has unexpected "
                             f"phase {ph!r}")
        if "name" not in event:
            raise ReproError(f"timeline: event {i} ({ph}) lacks 'name'")
        ts = event["ts"]
        if not isinstance(ts, (int, float)):
            raise ReproError(f"timeline: event {i} ts is not numeric")
        if last_ts is not None and ts < last_ts:
            raise ReproError(
                f"timeline: ts not monotone at event {i} "
                f"({ts} < {last_ts})")
        last_ts = ts
        stack = stacks.setdefault((event["pid"], event["tid"]), [])
        if ph == "B":
            stack.append(event["name"])
        else:
            if not stack:
                raise ReproError(
                    f"timeline: unmatched E {event['name']!r} at event {i}")
            begun = stack.pop()
            if begun != event["name"]:
                raise ReproError(
                    f"timeline: E {event['name']!r} closes B {begun!r} "
                    f"at event {i}")
    for (pid, tid), stack in stacks.items():
        if stack:
            raise ReproError(
                f"timeline: unclosed spans {stack} on pid {pid} tid {tid}")
    return events


def validate_timeline_file(path: str) -> List[Dict[str, Any]]:
    """Load and validate one exported timeline file."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))


# --- metric dumps ----------------------------------------------------------

def _agent_series(gauges: Dict[str, float], suffix: str) -> Optional[List[float]]:
    """Collect ``a<id>:<suffix>`` gauges into a dense per-agent list."""
    found: Dict[int, float] = {}
    for name, value in gauges.items():
        tag, sep, rest = name.partition(":")
        if (sep and rest == suffix and len(tag) > 1 and tag[0] == "a"
                and tag[1:].isdigit()):
            found[int(tag[1:])] = value
    if not found:
        return None
    return [found.get(i, 0.0) for i in range(max(found) + 1)]


def run_record(bus: Any, engine: Any = None,
               wall_s: float = 0.0) -> Dict[str, Any]:
    """The run record: every derived number a view of a run shows,
    computed here and nowhere else.

    ``engine.progress()`` gives windows / sim time / events / completion
    (absent after the fact, when only the bus is at hand), the bus
    counters give the memo hit rate, jump windows and shm frame / byte
    totals, and the bus gauges give the per-agent busy CPU / barrier-wait
    seconds: the ``a<i>:busy_s`` / ``a<i>:barrier_wait_s`` gauges
    :class:`~repro.cluster.runtime.ClusterEngine` adds every window
    into, mid-run and after the fact alike (``None`` on a serial run).
    ``agents_busy_s`` is the measured T_a, the series
    :func:`repro.partition.refit_cluster_spec` takes as
    ``measured_times``.  The live NDJSON record, :func:`run_report` and
    the CLI's ``--progress`` line are three views of this dict, so they
    cannot disagree.
    """
    counters = bus.counters
    p = engine.progress() if engine is not None else {}
    events = p.get("events", 0)
    hits = counters.get("memo.hit", 0)
    lookups = hits + counters.get("memo.miss", 0)
    gauges = bus.metrics.gauges
    return {
        "windows": p.get("windows", 0),
        "sim_ps": p.get("sim_ps", 0),
        "events": events,
        "events_per_s": events / wall_s if wall_s > 0 else 0.0,
        "done": p.get("done"),
        "memo_hit_rate": hits / lookups if lookups else None,
        "memo_jump_windows": counters.get("memo.jump_windows", 0),
        "shm_frames": counters.get("transport.shm_frames", 0),
        "shm_bytes": counters.get("transport.shm_bytes", 0),
        "agents_busy_s": _agent_series(gauges, "busy_s"),
        "agents_wait_s": _agent_series(gauges, "barrier_wait_s"),
    }


#: Counter families of ``core/memo.py`` that end in a reason name.
_MEMO_REASONS = ("memo.disabled.", "memo.ineligible.", "memo.uncacheable.",
                 "memo.jump_refused.")


def run_report(bus: Any, engine: Any = None,
               wall_s: float = 0.0) -> Dict[str, Any]:
    """The one JSON-ready report of an observed run: the schema version,
    every :func:`run_record` key, the bus counters, the metrics registry
    snapshot, per-system totals, the per-window profile rows and the
    span count.  When the window memo ran, the ``memo`` section says
    what it did and why it did not: hits, misses, cycle jumps, and
    every bail-out — the static gate that kept the cache from being
    built included — counted by reason (flat ``<family>.<reason>``
    fields, present when non-zero)."""
    counters = bus.counters
    report: Dict[str, Any] = {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        **run_record(bus, engine, wall_s),
        "counters": dict(counters),
        "metrics": bus.metrics.snapshot(),
        "totals": {
            name: {"elapsed_s": prof.elapsed_s}
            for name, prof in sorted(bus.totals.items())
        },
        "rows": bus.profile_rows(),
        "spans": len(bus.spans),
    }
    if any(k.startswith("memo.") for k in counters):
        memo = {name: counters.get("memo." + name, 0)
                for name in ("hit", "miss", "ineligible", "uncacheable",
                             "validate_fail", "jump")}
        memo.update((k[len("memo."):], n) for k, n in counters.items()
                    if k.startswith(_MEMO_REASONS))
        report["memo"] = memo
    return report


def memo_line(report: Dict[str, Any]) -> Optional[str]:
    """The report's memo section as the one line ``python -m repro
    profile`` prints: did it fire, how far did it jump, and if not, why
    not."""
    memo = report.get("memo")
    if memo is None:
        return None
    reasons = " ".join(f"{k}={n}" for k, n in sorted(memo.items())
                       if "." in k)
    return (f"memo: hit={memo['hit']} miss={memo['miss']} "
            f"ineligible={memo['ineligible']} "
            f"jumped={report['memo_jump_windows']} windows in "
            f"{memo['jump']} jumps"
            + (f" | {reasons}" if reasons else ""))


# --- run manifests ---------------------------------------------------------

def _git_rev() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_manifest(**fields: Any) -> Dict[str, Any]:
    """Provenance of one run: schema version, git revision, creation
    time, plus whatever the caller knows (seed, transport, scenario).  ``None`` values are dropped."""
    manifest: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "created_unix": round(time.time(), 3),
        "git_rev": _git_rev(),
    }
    manifest.update({k: v for k, v in fields.items() if v is not None})
    return manifest


def write_manifest(artifact_path: str, **fields: Any) -> str:
    """Write ``<artifact>.manifest.json`` next to an artifact."""
    path = artifact_path + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(run_manifest(**fields), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
