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
* :func:`stats_dict` / :func:`write_stats` — counters, gauges,
  histograms, per-system totals as JSON.  For cluster buses the
  coordinator's per-agent busy / barrier-wait gauges are also flattened
  into ``agent_busy_s`` / ``agent_barrier_wait_s`` lists — the exact
  shape :func:`repro.partition.refit_cluster_spec` takes as
  ``measured_times``, closing the measure → repartition loop.  The
  derived numbers in it come from :func:`run_record`, the one snapshot
  the live NDJSON stream and the ``--progress`` line also read.
* :func:`run_manifest` / :func:`write_manifest` — a small provenance
  record (seed, transport, git revision, schema version)
  written next to every artifact as ``<artifact>.manifest.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

__all__ = [
    "TELEMETRY_SCHEMA_VERSION", "TIMELINE_FORMAT", "MANIFEST_FORMAT",
    "chrome_trace_events", "write_timeline",
    "validate_chrome_trace", "validate_timeline_file",
    "run_record", "stats_dict", "write_stats", "memo_line",
    "run_manifest", "write_manifest",
]

#: Version stamp shared by every telemetry artifact this layer writes.
#: v2: the counter set gained the memo.* family with the memo.apply_ms
#: histogram.
#: v3: stats reports grew the derived ``memo`` (hit/miss/hit_rate) and
#: ``transport_shm`` (frames/bytes/fallbacks) sections, and the live
#: observability plane (repro.metrics.live) started stamping its flight
#: recorder dumps with this version.
#: v4: the ``memo`` section says why: ``jump`` / ``jump_windows`` and
#: one ``ineligible.<reason>`` / ``uncacheable.<reason>`` /
#: ``jump_refused.<reason>`` / ``disabled.<gate>`` field per reason that
#: occurred.
#: v5: ``transport_shm`` lost ``fallbacks`` — nothing ever counted it.
#: v6: the per-system ``totals`` lost ``items`` / ``tasks``, and the
#: ``pool.tasks`` / ``pool.items`` counters are gone — nothing counts
#: task batches any more.
TELEMETRY_SCHEMA_VERSION = 6
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


def write_timeline(bus: Any, path: str,
                   process_names: Optional[Dict[int, str]] = None,
                   manifest: Optional[Dict[str, Any]] = None) -> str:
    """Write the bus's spans as a Chrome trace JSON file (plus a
    ``<path>.manifest.json`` provenance record when ``manifest`` is
    given) and return the timeline path."""
    data = {
        "traceEvents": chrome_trace_events(bus, process_names),
        "displayTimeUnit": "ms",
        "otherData": {"format": TIMELINE_FORMAT,
                      "schema_version": TELEMETRY_SCHEMA_VERSION},
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    if manifest is not None:
        write_manifest(path, **manifest)
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
    totals, and the per-agent busy / barrier-wait seconds are
    :class:`~repro.cluster.runtime.ClusterEngine`'s accumulator — read
    off the engine while it runs, off the ``a<i>:busy_s`` /
    ``a<i>:barrier_wait_s`` gauges its ``finalize()`` exports from it
    otherwise (``None`` on a serial run).  The live NDJSON record, the
    ``memo`` / ``transport_shm`` / ``agent_*`` sections of
    :func:`stats_dict` and the CLI's ``--progress`` line are three views
    of this dict, so they cannot disagree.
    """
    counters = bus.counters
    p = engine.progress() if engine is not None else {}
    events = p.get("events", 0)
    hits = counters.get("memo.hit", 0)
    lookups = hits + counters.get("memo.miss", 0)
    if hasattr(engine, "busy_s"):
        busy, wait = list(engine.busy_s), list(engine.wait_s)
    else:
        gauges = bus.metrics.gauges
        busy = _agent_series(gauges, "busy_s")
        wait = _agent_series(gauges, "barrier_wait_s")
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
        "agents_busy_s": busy,
        "agents_wait_s": wait,
    }


def stats_dict(bus: Any) -> Dict[str, Any]:
    """One JSON-ready report of everything the bus measured: counters,
    the metrics registry snapshot, per-system totals, and (for cluster
    buses) the per-agent busy / barrier-wait series in the shape
    ``refit_cluster_spec`` consumes as ``measured_times``."""
    out: Dict[str, Any] = {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "counters": dict(bus.counters),
        "metrics": bus.metrics.snapshot(),
        "totals": {
            name: {"elapsed_s": prof.elapsed_s}
            for name, prof in sorted(bus.totals.items())
        },
        "spans": len(bus.spans),
    }
    record = run_record(bus)
    if record["agents_busy_s"] is not None:
        out["agent_busy_s"] = record["agents_busy_s"]
        out["agent_barrier_wait_s"] = record["agents_wait_s"]
    counters = bus.counters
    memo = _memo_section(counters, record)
    if memo is not None:
        out["memo"] = memo
    if any(k.startswith("transport.shm_") for k in counters):
        out["transport_shm"] = {
            "frames": record["shm_frames"],
            "bytes": record["shm_bytes"],
        }
    return out


#: Counter families of ``core/memo.py`` that end in a reason name.
_MEMO_REASONS = ("memo.disabled.", "memo.ineligible.", "memo.uncacheable.",
                 "memo.jump_refused.")


def _memo_section(counters: Dict[str, int],
                  record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """What the window memo did and why it did not: hits, misses, cycle
    jumps, and every bail-out — the static gate that kept the cache
    from being built included — counted by reason (flat
    ``<family>.<reason>`` fields, present when non-zero)."""
    if not any(k.startswith("memo.") for k in counters):
        return None
    section: Dict[str, Any] = {
        "hit": counters.get("memo.hit", 0),
        "miss": counters.get("memo.miss", 0),
        "ineligible": counters.get("memo.ineligible", 0),
        "uncacheable": counters.get("memo.uncacheable", 0),
        "validate_fail": counters.get("memo.validate_fail", 0),
        "hit_rate": record["memo_hit_rate"] or 0.0,
        "jump": counters.get("memo.jump", 0),
        "jump_windows": record["memo_jump_windows"],
    }
    section.update((k[len("memo."):], n) for k, n in counters.items()
                   if k.startswith(_MEMO_REASONS))
    return section


def memo_line(bus: Any) -> Optional[str]:
    """The memo section as the one line ``python -m repro profile``
    prints: did it fire, how far did it jump, and if not, why not."""
    memo = _memo_section(bus.counters, run_record(bus))
    if memo is None:
        return None
    reasons = " ".join(f"{k}={n}" for k, n in sorted(memo.items())
                       if "." in k)
    return (f"memo: hit={memo['hit']} miss={memo['miss']} "
            f"ineligible={memo['ineligible']} "
            f"jumped={memo['jump_windows']} windows in {memo['jump']} jumps"
            + (f" | {reasons}" if reasons else ""))


def write_stats(bus: Any, path: str,
                manifest: Optional[Dict[str, Any]] = None) -> str:
    """Write :func:`stats_dict` as JSON (plus the provenance manifest
    when ``manifest`` is given) and return the path."""
    with open(path, "w") as fh:
        json.dump(stats_dict(bus), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if manifest is not None:
        write_manifest(path, **manifest)
    return path


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
