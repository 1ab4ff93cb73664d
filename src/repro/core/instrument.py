"""Instrumentation bus: one structured observation channel per engine.

Every engine owns an :class:`InstrumentationBus` and publishes three
kinds of observations to it:

* **op stream** — one call ``bus.ops(code, location, uid)`` per
  processed operation, in batched processing order.  The bus holds one
  op sink, ``bus.ops``: ``None``, or a callable such as one of the
  machine model's access recorders (:mod:`repro.machine.access`), which
  turn the stream into address traces for the cache simulator.  It is
  set by plain assignment (a second assignment replaces the first), and
  a publish site calls it directly behind a ``bus.ops is not None``
  check.
* **trace stream** — the packet-visible events of §6.1's fidelity claim
  (enqueue, drop, service start, delivery, flow completion).  The bus
  holds one sink, ``bus.trace``: the engine's
  :class:`~repro.metrics.TraceRecorder`, or any object with its five
  methods (``enq`` / ``drop`` / ``deq`` / ``deliver`` / ``flow_done``)
  and a ``level``, installed with :meth:`InstrumentationBus.set_trace`.
  A publish site checks ``bus.trace_level`` (the sink's level) and calls
  the sink directly, so entries land in processing order.
* **counters and window rows** — named counters and one row per window
  the engine completes (its four system times and four event counts),
  written and counted by :meth:`window_row` / :meth:`window_rows_add`
  alone.  Per-system totals (:attr:`totals`), the flat per-window rows
  (:meth:`profile_rows`) and ``SimResults.window_breakdown`` are views
  of the rows; ``python -m repro profile`` renders them.

Telemetry (PR 5) adds two more observation kinds behind one master
switch, ``bus.telemetry``:

* **spans** — begin/end wall-clock intervals (run → window → system →
  kernel/commit phases, plus transport-level serialize / send /
  barrier-wait slices recorded by the cluster stack).  A publish site
  reads :meth:`now` around the work and records the interval with
  :meth:`span_add`, guarded by ``bus.telemetry``.  Span
  timestamps are seconds relative to the bus *epoch*; the paired
  ``epoch_wall`` (wall-clock at bus creation) is what lets a cluster bus
  normalize child-agent spans recorded on another machine's clock.
* **metrics** — a :class:`~repro.core.telemetry.MetricsRegistry` of
  gauges and fixed-bucket histograms (queue depths, link utilization,
  FCTs, barrier waits) whose ``snapshot()`` rides in
  :meth:`InstrumentationBus.export_state` with the counters.  Counters
  live on the bus alone.

The hot-path contract: with no op sink and trace level 0, every
publish degrades to a guarded no-op (``bus.ops`` /
``bus.trace_level`` / ``bus.telemetry`` checks), so an uninstrumented
run pays one attribute test per publish site, the same price the old
``if self.op_hook:`` / ``if trace.level:`` guards paid.  With telemetry
disabled no span is recorded and no clock is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .telemetry import MetricsRegistry

#: Machine-model op codes carried on the op stream — the one table
#: both engines publish and ``repro.machine.access`` decodes.
OP_SEND = 0
OP_FORWARD = 1
OP_SERVICE = 2
OP_HOST_RX = 3
OP_WINDOW = 9  # DOD engine only: a new lookahead window begins

#: An op sink: ``sink(op_code, location, packet_uid)``.
OpSink = Callable[[int, int, int], None]

#: One recorded span: ``(t0_s, t1_s, name, category, attrs-or-None)``.
#: Times are seconds relative to the owning bus's epoch; ``category``
#: groups spans for the timeline exporter ("run", "window", "system",
#: "transport", "cluster").
SpanRecord = tuple


@dataclass
class SystemProfile:
    """One system's whole-run wall-clock, as :attr:`InstrumentationBus.totals`
    reports it."""

    elapsed_s: float = 0.0

    #: Always 0: nothing counts tasks or items any more.  Kept only
    #: because ``benchmarks/perf/layers.py`` still reads them; they go
    #: when that directory next changes (ROADMAP item 1).
    items = 0
    tasks = 0


#: The four systems of a window, in :meth:`window_row` argument order.
SYSTEMS = ("ack", "send", "forward", "transmit")


class InstrumentationBus:
    """Counters, timers, the one op sink and the one trace sink."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        #: one row per completed window: ``(index, start_ps, ack_s,
        #: send_s, forward_s, transmit_s, ack, send, forward,
        #: transmit)``, 0.0 s for a memo-served window.  Every per-window
        #: view reads these; an agent's report ships them as they are.
        self.window_rows: List[tuple] = []
        #: ``(tag, rows)`` per child bus merged in, rows as above.
        self._child_rows: List[Tuple[str, Sequence[tuple]]] = []
        #: The op sink, called once per processed operation; ``None``
        #: keeps every op publish site from calling.
        self.ops: Optional[OpSink] = None
        #: The trace sink (see :meth:`set_trace`); ``None`` until one is
        #: set, which trace level 0 keeps every publish site from calling.
        self.trace: Any = None
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

    def now(self) -> float:
        """Seconds since the bus epoch (the span timebase)."""
        return time.perf_counter() - self._epoch_perf

    def span_add(self, name: str, t0: float, t1: float, cat: str = "span",
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record a finished span from explicit epoch-relative times —
        the hot path uses this to reuse ``perf_counter`` readings it
        already took.  Callers guard with ``bus.telemetry``."""
        self.spans.append((t0, t1, name, cat, attrs))

    def rel(self, perf_t: float) -> float:
        """Convert a raw ``time.perf_counter()`` reading to span time."""
        return perf_t - self._epoch_perf

    # --- trace stream -----------------------------------------------------

    def set_trace(self, sink: Any) -> Any:
        """Make ``sink`` the one trace sink, at its own ``level``;
        returns it."""
        self.trace = sink
        self.trace_level = int(sink.level)
        return sink

    # --- window rows ------------------------------------------------------

    def window_row(self, index: int, start_ps: int, ack_s: float,
                   send_s: float, forward_s: float, transmit_s: float,
                   ack: int, send: int, forward: int,
                   transmit: int) -> None:
        """One completed window's row — the engine's only per-window
        bus call."""
        counters = self.counters
        counters["windows"] = counters.get("windows", 0) + 1
        self.window_rows.append((index, start_ps, ack_s, send_s, forward_s,
                                 transmit_s, ack, send, forward, transmit))

    def window_rows_add(self, rows: Sequence[tuple]) -> None:
        """Several windows' rows at once, in window order (a cycle jump)."""
        counters = self.counters
        counters["windows"] = counters.get("windows", 0) + len(rows)
        self.window_rows.extend(rows)

    def _tagged_rows(self) -> Iterator[Tuple[Sequence[str], Sequence[tuple]]]:
        """``(system names, rows)``: this bus's own rows, then each
        merged child's under ``<tag>:<system>``, in merge order."""
        yield SYSTEMS, self.window_rows
        for tag, rows in self._child_rows:
            yield [f"{tag}:{name}" for name in SYSTEMS], rows

    @property
    def totals(self) -> Dict[str, SystemProfile]:
        """Whole-run wall-clock per system, summed from the window rows
        when read: this bus's own systems plus each merged child's,
        tagged ``<tag>:<system>``.  Every row counts, a window re-run
        after a rollback included; a system with no row is absent."""
        sums: Dict[str, float] = {}
        for names, rows in self._tagged_rows():
            for row in rows:
                for name, dt in zip(names, row[2:6]):
                    sums[name] = sums.get(name, 0.0) + dt
        return {name: SystemProfile(elapsed_s)
                for name, elapsed_s in sums.items()}

    # --- cluster aggregation ----------------------------------------------

    def merge_child(self, tag: str, state: Dict[str, Any]) -> None:
        """Fold one child engine's bus into this aggregate bus.

        ``state`` is the child's :meth:`export_state` — what an agent's
        :class:`AgentReport` carries as ``bus`` and an engine checkpoint
        as ``bus_state``.  The cluster runtime calls this once per agent
        at ``finalize``: counters are *summed* (cluster totals, the
        agents' ``cluster.rpc_*`` traffic included), while the child's
        raw window rows are kept under the tag, so :attr:`totals` and
        :meth:`profile_rows` report them as ``<tag>:<system>`` and
        per-agent timings stay distinguishable.  Spans are renamed
        ``<tag>:<name>`` and shifted from the child's clock into this
        bus's timebase via the wall-clock offset of the two epochs;
        histograms are summed cluster-wide and gauges prefixed
        ``<tag>:``.
        """
        for name, n in state["counters"].items():
            self.count(name, n)
        offset = state["epoch_wall"] - self.epoch_wall
        self.spans.extend(
            (t0 + offset, t1 + offset, f"{tag}:{name}", cat, attrs)
            for t0, t1, name, cat, attrs in state["spans"])
        self.metrics.merge(state["metrics"], prefix=f"{tag}:")
        if state["window_rows"]:
            self._child_rows.append((tag, state["window_rows"]))

    # --- checkpoint support -----------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Everything a checkpoint must carry so a restored engine's
        record resumes where the dead engine's left off: window rows,
        counters, and the spans and histograms recorded before the
        snapshot (the fault-recovery timeline-completeness guarantee)."""
        return {
            "counters": dict(self.counters),
            "window_rows": list(self.window_rows),
            "spans": list(self.spans),
            "metrics": self.metrics.snapshot(),
            "epoch_wall": self.epoch_wall,
        }

    def adopt_state(self, state: Dict[str, Any]) -> None:
        """Install a checkpointed bus state (restore path).  Restored
        span timestamps are rebased from the dead bus's epoch into this
        bus's timebase, so spans recorded before the crash and spans
        recorded after the restore share one clock.  The telemetry
        switch stays this bus's own."""
        self.counters = dict(state["counters"])
        self.window_rows = list(state["window_rows"])
        offset = state["epoch_wall"] - self.epoch_wall
        self.spans = [
            (t0 + offset, t1 + offset, name, cat, attrs)
            for t0, t1, name, cat, attrs in state["spans"]
        ]
        self.metrics = MetricsRegistry()
        self.metrics.merge(state["metrics"])

    # --- reporting --------------------------------------------------------

    def profile_rows(self) -> List[Dict[str, Any]]:
        """Flat per-window/per-system rows for reports and JSON dumps,
        built from the window rows: this bus's own systems plus merged
        children's, tagged ``<tag>:<system>``, by window index and then
        system name.  A memo-served window is listed at 0.0 s.  A window
        one bus ran twice (a rollback re-run) counts its last row; a
        child merged twice sums."""
        by_index: Dict[int, Tuple[int, Dict[str, float]]] = {}
        for names, rows in self._tagged_rows():
            for row in {r[0]: r for r in rows}.values():
                systems = by_index.setdefault(row[0], (row[1], {}))[1]
                for name, dt in zip(names, row[2:6]):
                    systems[name] = systems.get(name, 0.0) + dt
        return [
            {"window": index, "start_ps": start_ps, "system": name,
             "elapsed_s": elapsed_s}
            for index, (start_ps, systems) in sorted(by_index.items())
            for name, elapsed_s in sorted(systems.items())
        ]
