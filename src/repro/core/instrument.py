"""Instrumentation bus: one structured observation channel per engine.

Every engine owns an :class:`InstrumentationBus` and publishes three
kinds of observations to it; everything that used to be hand-wired
(``op_hook`` threading through constructors, direct ``TraceRecorder``
calls inside the systems) is a *subscriber* instead:

* **op stream** — ``bus.op(code, location, uid)``, one call per
  processed operation in batched processing order.  The machine model's
  access recorders (:mod:`repro.machine.access`) subscribe with
  :meth:`InstrumentationBus.subscribe_ops` and turn the stream into
  address traces for the cache simulator.
* **trace stream** — the packet-visible events of §6.1's fidelity claim
  (enqueue, drop, service start, delivery, flow completion).  A
  :class:`~repro.metrics.TraceRecorder` subscribes with
  :meth:`subscribe_trace`; the bus forwards synchronously, so entry
  order — and therefore the trace digest — is byte-identical to the
  direct wiring it replaces.
* **counters and timers** — named counters and per-window/per-system
  wall-clock from :meth:`window_times`.  ``python -m repro profile``
  renders these; the cost model consumes the event counts as before.

Telemetry (PR 5) adds two more observation kinds behind one master
switch, ``bus.telemetry``:

* **spans** — begin/end wall-clock intervals (run → window → system →
  kernel/commit phases, plus transport-level serialize / send /
  barrier-wait slices recorded by the cluster stack).  ``bus.span(name,
  **attrs)`` is the context-manager API; hot paths that already hold
  ``perf_counter`` readings call :meth:`span_add` directly.  Span
  timestamps are seconds relative to the bus *epoch*; the paired
  ``epoch_wall`` (wall-clock at bus creation) is what lets a cluster bus
  normalize child-agent spans recorded on another machine's clock.
* **metrics** — a :class:`~repro.core.telemetry.MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms (queue depths, link
  utilization, FCTs, barrier waits) whose ``snapshot()``/``merge()``
  rides the same transport report path as the counters.

The hot-path contract: with no subscribers, every publish degrades to a
guarded no-op (``bus.has_ops`` / ``bus.trace_level`` / ``bus.telemetry``
checks), so an uninstrumented run pays one attribute test per publish
site, the same price the old ``if self.op_hook:`` / ``if trace.level:``
guards paid.  With telemetry disabled ``span()`` returns one shared
no-op context manager — zero allocation, zero records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .telemetry import MetricsRegistry

#: Machine-model op codes carried on the op stream — the one table
#: both engines publish and ``repro.machine.access`` decodes.
OP_SEND = 0
OP_FORWARD = 1
OP_SERVICE = 2
OP_HOST_RX = 3
OP_WINDOW = 9  # DOD engine only: a new lookahead window begins

#: An op-stream subscriber: ``hook(op_code, location, packet_uid)``.
OpSubscriber = Callable[[int, int, int], None]

#: One recorded span: ``(t0_s, t1_s, name, category, attrs-or-None)``.
#: Times are seconds relative to the owning bus's epoch; ``category``
#: groups spans for the timeline exporter ("run", "window", "system",
#: "transport", "cluster").
SpanRecord = tuple


class _NoopSpan:
    """Shared do-nothing context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: records ``(t0, t1, name, cat, attrs)`` on exit."""

    __slots__ = ("_bus", "_name", "_cat", "_attrs", "_t0")

    def __init__(self, bus: "InstrumentationBus", name: str, cat: str,
                 attrs: Optional[Dict[str, Any]]) -> None:
        self._bus = bus
        self._name = name
        self._cat = cat
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._t0 = self._bus.now()
        return self

    def __exit__(self, *exc: Any) -> bool:
        bus = self._bus
        bus.spans.append(
            (self._t0, bus.now(), self._name, self._cat, self._attrs)
        )
        return False


@dataclass
class SystemProfile:
    """One system's wall-clock inside one window (or in aggregate)."""

    elapsed_s: float = 0.0

    #: Always 0: nothing counts tasks or items any more.  Kept only
    #: because ``benchmarks/perf/layers.py`` still reads them; they go
    #: when that directory next changes (ROADMAP item 1).
    items = 0
    tasks = 0

    def add(self, other: "SystemProfile") -> None:
        self.elapsed_s += other.elapsed_s


@dataclass
class WindowProfile:
    """Per-system accounting of one lookahead window."""

    index: int
    start_ps: int
    systems: Dict[str, SystemProfile] = field(default_factory=dict)

    def system(self, name: str) -> SystemProfile:
        prof = self.systems.get(name)
        if prof is None:
            prof = self.systems[name] = SystemProfile()
        return prof


#: The four systems of a window, in :meth:`window_times` argument order.
SYSTEMS = ("ack", "send", "forward", "transmit")


class InstrumentationBus:
    """Counters, timers, and op/trace streams with pluggable subscribers."""

    def __init__(self, keep_window_profiles: bool = True) -> None:
        self.counters: Dict[str, int] = {}
        self.keep_window_profiles = keep_window_profiles
        #: one raw row per executed window: ``(index, start_ps, ack_s,
        #: send_s, forward_s, transmit_s)``.  :attr:`windows` builds the
        #: profiles from these; an agent's report ships them as they are.
        self.window_rows: List[tuple] = []
        #: ``(tag, rows)`` per child bus merged in, rows as above.
        self._child_rows: List[Tuple[str, Sequence[tuple]]] = []
        #: whole-run aggregate per system.
        self.totals: Dict[str, SystemProfile] = {}
        self._system_totals: Optional[List[SystemProfile]] = None
        self._op_subs: List[OpSubscriber] = []
        self.has_ops = False
        self._trace_subs: List[Any] = []
        self.trace_level = 0
        #: Master telemetry switch: spans + metric sampling.  Off by
        #: default; every telemetry publish site guards on it.
        self.telemetry = False
        self.spans: List[SpanRecord] = []
        self.metrics = MetricsRegistry()
        # Clock anchors: span timestamps are perf_counter seconds
        # relative to _epoch_perf; epoch_wall locates that zero on the
        # wall clock so buses from different processes can be aligned.
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()

    # --- counters ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # --- telemetry: spans -------------------------------------------------

    def enable_telemetry(self, on: bool = True) -> None:
        """Turn span recording and metric sampling on (or off)."""
        self.telemetry = on

    def now(self) -> float:
        """Seconds since the bus epoch (the span timebase)."""
        return time.perf_counter() - self._epoch_perf

    def span(self, name: str, cat: str = "span", **attrs: Any):
        """Context manager recording one span; a shared no-op when
        telemetry is disabled (zero allocation on the cold path)."""
        if not self.telemetry:
            return _NOOP_SPAN
        return _Span(self, name, cat, attrs or None)

    def span_add(self, name: str, t0: float, t1: float, cat: str = "span",
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record a finished span from explicit epoch-relative times —
        the hot path uses this to reuse ``perf_counter`` readings it
        already took.  Callers guard with ``bus.telemetry``."""
        self.spans.append((t0, t1, name, cat, attrs))

    def rel(self, perf_t: float) -> float:
        """Convert a raw ``time.perf_counter()`` reading to span time."""
        return perf_t - self._epoch_perf

    # --- op stream --------------------------------------------------------

    def subscribe_ops(self, hook: OpSubscriber) -> OpSubscriber:
        """Register a machine-model probe; returns it for chaining."""
        self._op_subs.append(hook)
        self.has_ops = True
        return hook

    def op(self, code: int, location: int, uid: int) -> None:
        """Publish one operation (callers guard with ``bus.has_ops``)."""
        for sub in self._op_subs:
            sub(code, location, uid)

    # --- trace stream -----------------------------------------------------

    def subscribe_trace(self, recorder: Any) -> Any:
        """Register a TraceRecorder-shaped subscriber (``enq``/``drop``/
        ``deq``/``deliver``/``flow_done`` methods plus a ``level``)."""
        self._trace_subs.append(recorder)
        self.trace_level = max(self.trace_level,
                               int(getattr(recorder, "level", 0)))
        return recorder

    def unsubscribe_trace(self, old: Any) -> None:
        """Remove one trace subscriber and recompute the trace level
        (memoization teardown; inverse of :meth:`subscribe_trace`)."""
        self._trace_subs = [s for s in self._trace_subs if s is not old]
        self.trace_level = max(
            (int(getattr(s, "level", 0)) for s in self._trace_subs),
            default=0,
        )

    def replace_trace(self, old: Any, new: Any) -> Any:
        """Swap one trace subscriber for another (checkpoint restore)."""
        self._trace_subs = [s for s in self._trace_subs if s is not old]
        self.trace_level = max(
            (int(getattr(s, "level", 0)) for s in self._trace_subs),
            default=0,
        )
        return self.subscribe_trace(new)

    def enq(self, t: int, iface: int, flow: int, is_ack: int, seq: int,
            marked: int) -> None:
        for sub in self._trace_subs:
            sub.enq(t, iface, flow, is_ack, seq, marked)

    def drop(self, t: int, iface: int, flow: int, is_ack: int, seq: int) -> None:
        for sub in self._trace_subs:
            sub.drop(t, iface, flow, is_ack, seq)

    def deq(self, t: int, iface: int, flow: int, is_ack: int, seq: int) -> None:
        for sub in self._trace_subs:
            sub.deq(t, iface, flow, is_ack, seq)

    def deliver(self, t: int, node: int, flow: int, is_ack: int, seq: int) -> None:
        for sub in self._trace_subs:
            sub.deliver(t, node, flow, is_ack, seq)

    def flow_done(self, t: int, node: int, flow: int) -> None:
        for sub in self._trace_subs:
            sub.flow_done(t, node, flow)

    # --- trace canonicalization -------------------------------------------

    def trace_entries(self) -> List[tuple]:
        """Raw trace entries from the first recording subscriber.

        Subscribers expose their buffered entries either as an
        ``entries`` attribute (:class:`~repro.metrics.TraceRecorder`) or
        via an ``entries()``/``sorted_entries()`` accessor; forwarding
        shims without a buffer (e.g. cluster agent relays) are skipped.
        """
        for sub in self._trace_subs:
            entries = getattr(sub, "entries", None)
            if callable(entries):
                entries = entries()
            if entries is not None:
                return list(entries)
        return []

    def canonical_trace(self) -> List[tuple]:
        """The canonical (sorted) trace — the unit of the §6.1 fidelity
        claim.  Two runs are conformant iff these lists are equal."""
        return sorted(self.trace_entries())

    def trace_digest(self) -> str:
        """Hex digest of the canonical trace (order-independent)."""
        import hashlib
        h = hashlib.sha256()
        for entry in self.canonical_trace():
            h.update(repr(entry).encode())
        return h.hexdigest()

    # --- timers -----------------------------------------------------------

    def window_times(self, index: int, start_ps: int, ack_s: float,
                     send_s: float, forward_s: float,
                     transmit_s: float) -> None:
        """One executed lookahead window and its four system times.

        The engine's only per-window bus call: it counts the window,
        adds the times to the per-system totals and keeps one raw row;
        :attr:`windows` turns the rows into profiles when a report asks.
        """
        counters = self.counters
        counters["windows"] = counters.get("windows", 0) + 1
        totals = self._system_totals
        if totals is None:
            totals = self._system_totals = [
                self.totals.setdefault(name, SystemProfile())
                for name in SYSTEMS]
        totals[0].elapsed_s += ack_s
        totals[1].elapsed_s += send_s
        totals[2].elapsed_s += forward_s
        totals[3].elapsed_s += transmit_s
        if self.keep_window_profiles:
            self.window_rows.append((index, start_ps, ack_s, send_s,
                                     forward_s, transmit_s))

    @property
    def windows(self) -> List[WindowProfile]:
        """Per-window profiles, built on demand (the profiler CLI, the
        cluster report merge and Fig. 13-style breakdowns read these):
        this bus's own windows plus merged children's, tagged
        ``<tag>:<system>``, by window index.  A window one bus ran twice
        (a rollback re-run) counts its last row; a child merged twice
        sums."""
        by_index: Dict[int, WindowProfile] = {}
        for tag, rows in [(None, self.window_rows), *self._child_rows]:
            names = SYSTEMS if tag is None else [f"{tag}:{n}" for n in SYSTEMS]
            for index, start_ps, *times in {r[0]: r for r in rows}.values():
                win = by_index.get(index)
                if win is None:
                    win = by_index[index] = WindowProfile(index, start_ps)
                for name, dt in zip(names, times):
                    win.system(name).elapsed_s += dt
        return sorted(by_index.values(), key=lambda w: w.index)

    # --- cluster aggregation ----------------------------------------------

    def merge_child(
        self,
        tag: str,
        counters: Dict[str, int],
        totals: Dict[str, SystemProfile],
        windows: Sequence[tuple],
        spans: Optional[Sequence[SpanRecord]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        epoch_wall: Optional[float] = None,
    ) -> None:
        """Fold one child engine's bus into this aggregate bus.

        The cluster runtime calls this once per agent at ``finalize``
        with the agent's :class:`AgentReport` streams: counters are
        *summed* (cluster totals), while whole-run system profiles are
        *tagged* ``<tag>:<system>`` so per-agent timings stay
        distinguishable — ``python -m repro profile --cluster`` and
        :func:`repro.partition.measured_machine_times` read them.
        ``windows`` are the child's raw :attr:`window_rows`, kept under
        the tag; :attr:`windows` profiles them on demand.

        Telemetry streams ride the same call: ``spans`` are renamed
        ``<tag>:<name>`` and shifted from the child's clock into this
        bus's timebase via the wall-clock offset (``epoch_wall`` is the
        child bus's epoch on the shared wall clock); ``metrics`` is the
        child registry's snapshot — counters/histograms summed
        cluster-wide, gauges prefixed ``<tag>:``.
        """
        for name, n in counters.items():
            self.count(name, n)
        if spans:
            offset = ((epoch_wall - self.epoch_wall)
                      if epoch_wall is not None else 0.0)
            for t0, t1, name, cat, attrs in spans:
                self.spans.append(
                    (t0 + offset, t1 + offset, f"{tag}:{name}", cat, attrs)
                )
        if metrics:
            self.metrics.merge(metrics, prefix=f"{tag}:")
        for system, prof in totals.items():
            name = f"{tag}:{system}"
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = SystemProfile()
            total.add(prof)
        if self.keep_window_profiles and windows:
            self._child_rows.append((tag, windows))

    # --- checkpoint support -----------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Everything a checkpoint must carry so a restored engine's
        telemetry resumes where the dead engine's left off (spans and
        histograms recorded before the snapshot must survive the kill —
        the fault-recovery timeline-completeness guarantee)."""
        return {
            "counters": dict(self.counters),
            "totals": self.totals,
            "window_rows": list(self.window_rows),
            "spans": list(self.spans),
            "metrics": self.metrics.snapshot(),
            "epoch_wall": self.epoch_wall,
            "telemetry": self.telemetry,
        }

    def adopt_state(self, state: Dict[str, Any]) -> None:
        """Install a checkpointed bus state (restore path).  Restored
        span timestamps are rebased from the dead bus's epoch into this
        bus's timebase, so spans recorded before the crash and spans
        recorded after the restore share one clock."""
        import copy
        self.counters = dict(state["counters"])
        self.totals = copy.deepcopy(state["totals"])
        self._system_totals = None
        self.window_rows = list(state["window_rows"])
        offset = state["epoch_wall"] - self.epoch_wall
        self.spans = [
            (t0 + offset, t1 + offset, name, cat, attrs)
            for t0, t1, name, cat, attrs in state["spans"]
        ]
        self.metrics = MetricsRegistry()
        self.metrics.merge(state["metrics"])
        self.telemetry = bool(state.get("telemetry", self.telemetry))

    # --- reporting --------------------------------------------------------

    def profile_rows(self) -> List[Dict[str, Any]]:
        """Flat per-window/per-system rows for reports and JSON dumps."""
        rows = []
        for win in self.windows:
            for name, prof in sorted(win.systems.items()):
                rows.append({
                    "window": win.index,
                    "start_ps": win.start_ps,
                    "system": name,
                    "elapsed_s": prof.elapsed_s,
                })
        return rows
