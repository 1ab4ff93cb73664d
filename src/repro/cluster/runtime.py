"""Cluster runtime: the distributed run as one :class:`Engine`.

PR 1 unified the single-machine engines behind ``build`` / ``advance``
/ ``finalize`` and one :class:`~repro.core.runner.EngineRunner` loop.
:class:`ClusterEngine` brings the distributed stack into the same shape:
one ``advance()`` executes one cluster-wide lookahead window end to end —

1. agree on the window (min over the agents' ``peek_next_window``, the
   conservative synchronization of §4.2),
2. run any scheduled live migration (Appendix A),
3. execute the window on every agent through the transport (a
   ``ProcessTransport`` overlaps the agents across cores),
4. flush outboxes as batched RPCs, drain them into their destinations,
   count the N*(N-1) FINISH signals,
5. optionally snapshot every agent for fault tolerance.

Because it is an :class:`~repro.core.runner.Engine`, ``EngineRunner``,
``python -m repro profile --cluster`` and checkpoint resume all drive a
distributed run through exactly the loop they drive a ``DodEngine``
through.

Observability: each agent owns its :class:`InstrumentationBus`; at
``finalize()`` the per-agent streams come back in the agents'
:class:`~repro.cluster.transport.AgentReport` and are merged into the
cluster-level bus — counters summed, per-window / per-system timers
tagged ``a<id>:<system>`` — so the profiler and the time-cost model
(:func:`repro.partition.measured_machine_times`) consume *measured*
per-agent window costs.

Fault tolerance: with ``checkpoint_every`` (or a ``fault``) set, the
runtime keeps the latest per-agent snapshots plus a log of every record
delivered since.  When the transport reports an
:class:`~repro.cluster.transport.AgentFailure`, ``_recover`` restores
the dead agent from its snapshot, replays the logged inbound batches,
re-runs the missed windows with outboxes discarded, and the merged trace
stays byte-identical to the fault-free run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .agent import AgentSpec
from .fault import FaultPlan, RecoveryStats
from .transport import (
    AgentFailure, AgentReport, LocalTransport, Record, Transport,
    make_transport,
)
from ..core.instrument import InstrumentationBus
from ..core.runtime import env_flag
from ..core.telemetry import WAIT_MS_BUCKETS
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import SimResults, TraceRecorder


class ClusterEngine:
    """N agents, one window per ``advance()``, any transport."""

    name = "dons-cluster"

    def __init__(
        self,
        specs: Sequence[AgentSpec],
        transport: Union[Transport, str, None] = None,
        schedule: Optional[List[Tuple[int, Partition]]] = None,
        checkpoint_every: Optional[int] = None,
        fault: Optional[FaultPlan] = None,
        watchdog: Union[bool, None, "object"] = None,
    ) -> None:
        if not specs:
            raise ClusterError("no agents")
        self.specs = list(specs)
        self.transport = make_transport(transport)
        self.schedule = sorted(schedule or [], key=lambda s: s[0])
        self.fault = fault
        self.checkpoint_every = checkpoint_every
        self._fault_tolerant = fault is not None or checkpoint_every is not None
        if self._fault_tolerant and self.schedule:
            raise ClusterError(
                "fault tolerance and live migration cannot be combined: "
                "a restored agent would resume under a stale partition"
            )

        self.bus = InstrumentationBus()
        # Telemetry on the cluster bus follows the agents: any spec with
        # it on (or the REPRO_TELEMETRY switch) lights up the
        # coordinator-side spans/metrics too, so one exported timeline
        # holds both the agent tracks and the barrier-wait slices.
        if (any(spec.telemetry for spec in self.specs)
                or env_flag("REPRO_TELEMETRY")):
            self.bus.enable_telemetry()
            self.bus.metrics.histogram("cluster.barrier_wait_ms",
                                       WAIT_MS_BUCKETS)
        self.transport.bus = self.bus
        #: Coordinator-observed per-agent busy / barrier-wait seconds,
        #: accumulated per window; exported as ``a<i>:busy_s`` /
        #: ``a<i>:barrier_wait_s`` gauges at finalize — the exact series
        #: :func:`repro.partition.refit_cluster_spec` takes as
        #: ``measured_times``.
        self._busy_s = [0.0] * len(self.specs)
        self._wait_s = [0.0] * len(self.specs)
        #: Stall/slowness detector over the same measured window times
        #: (:class:`repro.metrics.live.ClusterWatchdog`).  ``None`` off,
        #: ``True`` forced on, default (``None`` argument) arms it when
        #: the bus is telemetered or ``$REPRO_WATCHDOG`` is set; an
        #: instance is adopted as-is.  An armed watchdog makes the
        #: transport measure ``window_times`` even with telemetry off
        #: (``track_times``) — reply timing without span capture.
        self.watchdog = self._make_watchdog(watchdog)
        if self.watchdog is not None:
            self.transport.track_times = True
        self.results = SimResults(self.name, self.specs[0].scenario.name, 0)
        self.per_agent: List[SimResults] = []
        self.migrations: List = []
        self.recoveries: List[RecoveryStats] = []

        self._lookahead = self.specs[0].scenario.lookahead_ps
        self._cursor = -1
        self._built = False
        self._finalized = False

        # Fault-tolerance state: latest snapshots + deliveries since.
        self._snapshots: Optional[List[bytes]] = None
        self._snap_window = -1
        self._replay_log: Dict[int, List[Record]] = {}
        self._windows_since_snap: List[int] = []

    def _make_watchdog(self, arg: Union[bool, None, "object"]):
        if arg is False:
            return None
        if arg is None:
            if not (self.bus.telemetry or env_flag("REPRO_WATCHDOG")):
                return None
            arg = True
        if arg is True:
            from ..metrics.live import ClusterWatchdog
            return ClusterWatchdog(len(self.specs))
        return arg

    # --- convenience views ------------------------------------------------

    @property
    def built(self) -> bool:
        return self._built

    @property
    def stats(self):
        return self.transport.stats

    @property
    def channels(self):
        return self.transport.channels

    @property
    def agents(self):
        """The in-process engines (LocalTransport only) — migration and
        cluster checkpointing reach through this."""
        engines = getattr(self.transport, "engines", None)
        if engines is None:
            raise ClusterError(
                f"{type(self.transport).__name__} does not expose "
                "in-process engines"
            )
        return engines

    # --- Engine protocol --------------------------------------------------

    def build(self) -> None:
        """Launch and build every agent; verify cluster-wide agreement."""
        self._check_agreement()
        self.transport.launch(self.specs)
        if self.schedule and not isinstance(self.transport, LocalTransport):
            raise ClusterError(
                "live migration schedules require the LocalTransport "
                "(state moves between in-process engines)"
            )
        self.transport.build_all()
        if self._fault_tolerant:
            self._take_snapshots(self._cursor)
        self._built = True

    def _check_agreement(self) -> None:
        """Every agent must run the same scenario under the same plan —
        window agreement (§4.2) is meaningless otherwise.  The old
        controller silently trusted agent 0; mismatches now fail loudly
        at build time."""
        first = self.specs[0]
        for spec in self.specs[1:]:
            if spec.scenario.name != first.scenario.name:
                raise ClusterError(
                    f"agent {spec.agent_id} runs scenario "
                    f"{spec.scenario.name!r}, agent 0 runs "
                    f"{first.scenario.name!r}"
                )
            if spec.scenario.duration_ps != first.scenario.duration_ps:
                raise ClusterError(
                    f"agent {spec.agent_id} disagrees on duration_ps: "
                    f"{spec.scenario.duration_ps} vs "
                    f"{first.scenario.duration_ps}"
                )
            if spec.scenario.lookahead_ps != first.scenario.lookahead_ps:
                raise ClusterError(
                    f"agent {spec.agent_id} disagrees on the lookahead: "
                    f"{spec.scenario.lookahead_ps} vs "
                    f"{first.scenario.lookahead_ps}"
                )
            if spec.partition.assignment != first.partition.assignment:
                raise ClusterError(
                    f"agent {spec.agent_id} holds a different partition "
                    "than agent 0"
                )

    def advance(self) -> bool:
        """Execute one cluster-wide lookahead window; False when done."""
        transport = self.transport
        bus = self.bus
        telemetry = bus.telemetry
        _w0 = bus.now() if telemetry else 0.0
        peeks = transport.peek_all(self._cursor)
        if telemetry:
            bus.span_add("agree", _w0, bus.now(), "cluster")
        live = [w for w in peeks if w is not None]
        if not live:
            return False
        window = min(live)
        duration = self.specs[0].scenario.duration_ps
        if duration is not None and window * self._lookahead > duration:
            return False

        self._maybe_migrate(window)
        if (self.fault is not None and not self.fault.fired
                and window >= self.fault.at_window):
            self.fault.fired = True
            transport.kill(self.fault.agent)

        outboxes = transport.run_window_all(
            window, self._active_mask(peeks, window))
        for agent_id, out in enumerate(outboxes):
            if isinstance(out, AgentFailure):
                outboxes[agent_id] = self._recover(agent_id, window)
        if self.watchdog is not None:
            self.watchdog.observe(window, transport.window_times, bus)
        if telemetry:
            self._window_telemetry(window)
            _f0 = bus.now()

        for agent_id, out in enumerate(outboxes):
            for dst, records in sorted(out.items()):
                transport.send_batch(agent_id, dst, records)
        delivered = transport.deliver_pending()
        transport.barrier()
        self.bus.count("cluster.windows")
        if telemetry:
            now = bus.now()
            bus.span_add("flush", _f0, now, "cluster")
            bus.span_add("window", _w0, now, "cluster", {"index": window})
        self._cursor = window

        if self._fault_tolerant:
            for dst, records in delivered.items():
                self._replay_log.setdefault(dst, []).extend(records)
            self._windows_since_snap.append(window)
            if (self.checkpoint_every
                    and len(self._windows_since_snap) >= self.checkpoint_every):
                self._take_snapshots(window)
        return True

    def _active_mask(self, peeks: List[Optional[int]],
                     window: int) -> Optional[List[bool]]:
        """Which agents actually have work this window.

        An agent whose peek is beyond the agreed window has nothing
        scheduled — no pending entries, no busy ports — so running the
        window there is a provable no-op and the transport skips the
        command round-trip.  A dead agent must still be dispatched (the
        failure is what triggers recovery), and a pending migration
        rewrites agent state behind the peeks' back, so no skipping
        while one is scheduled.  ``None`` means everyone runs.
        """
        if self.schedule:
            return None
        transport = self.transport
        mask = [
            (peek is not None and peek <= window)
            or not transport.alive(agent_id)
            for agent_id, peek in enumerate(peeks)
        ]
        return None if all(mask) else mask

    def progress(self) -> Dict[str, object]:
        """In-flight progress snapshot, same shape as
        :meth:`repro.core.engine.DodEngine.progress`.

        Per-agent event counts only merge at ``finalize()``, so the
        ``events`` field stays 0 mid-run on a cluster engine — the live
        plane documents this and consumers fall back to window progress.
        """
        sim_ps = (self._cursor + 1) * self._lookahead if self._cursor >= 0 else 0
        duration = self.specs[0].scenario.duration_ps
        return {
            "windows": self.bus.counters.get("cluster.windows", 0),
            "sim_ps": sim_ps,
            "duration_ps": duration,
            "events": self.results.events.total,
            "done": min(1.0, sim_ps / duration) if duration else None,
        }

    def _window_telemetry(self, window: int) -> None:
        """Split the window the coordinator just ran into per-agent busy
        time and barrier wait (slowest agent waits zero), as both
        ``a<i>:barrier-wait`` timeline slices and accumulated seconds."""
        bus = self.bus
        times = self.transport.window_times
        if not times:
            return
        t_done = bus.now()
        t_max = max(times)
        for agent_id, busy in enumerate(times):
            wait = t_max - busy
            self._busy_s[agent_id] += busy
            self._wait_s[agent_id] += wait
            bus.metrics.record("cluster.barrier_wait_ms", wait * 1e3)
            if wait > 0.0:
                bus.span_add(f"a{agent_id}:barrier-wait",
                             t_done - wait, t_done, "cluster",
                             {"window": window})

    def finalize(self) -> SimResults:
        """Collect per-agent results and bus streams, merge, shut down."""
        if self._finalized:
            return self.results
        self._finalized = True
        try:
            reports = self.transport.finish_all()
            self.per_agent = [report.results for report in reports]
            self.results = merge_results(
                self.per_agent, self.specs[0].scenario.name
            )
            for report in reports:
                self.bus.merge_child(
                    f"a{report.agent_id}", report.counters,
                    report.totals, report.windows,
                    spans=report.spans, metrics=report.metrics,
                    epoch_wall=report.epoch_wall,
                )
            if self.bus.telemetry:
                for agent_id in range(len(self.specs)):
                    self.bus.metrics.gauge(f"a{agent_id}:busy_s",
                                           self._busy_s[agent_id])
                    self.bus.metrics.gauge(f"a{agent_id}:barrier_wait_s",
                                           self._wait_s[agent_id])
            elif self.watchdog is not None:
                # Telemetry off but the watchdog measured reply times:
                # export its accumulated busy/wait so the measure →
                # refit_cluster_spec loop still closes.
                for agent_id in range(len(self.specs)):
                    self.bus.metrics.gauge(f"a{agent_id}:busy_s",
                                           self.watchdog.busy_s[agent_id])
                    self.bus.metrics.gauge(f"a{agent_id}:barrier_wait_s",
                                           self.watchdog.wait_s[agent_id])
            self.transport.finalize_stats()
        finally:
            self.transport.close()
        return self.results

    def run(self) -> List[SimResults]:
        """Legacy convenience: run to completion, per-agent results."""
        return self.run_from(-1)

    def run_from(self, current: int) -> List[SimResults]:
        """Drive already-built (or checkpoint-restored) agents from the
        given window cursor to completion."""
        from ..core.runner import EngineRunner
        if not self._built:
            self.build()
        self._cursor = current
        EngineRunner(self).run()
        return self.per_agent

    # --- migration --------------------------------------------------------

    def _maybe_migrate(self, window: int) -> None:
        from .migration import migrate
        while self.schedule and self.schedule[0][0] <= window:
            _boundary, new_partition = self.schedule.pop(0)
            agents = self.agents
            old_partition = agents[0].partition
            if new_partition.assignment != old_partition.assignment:
                self.migrations.append(
                    migrate(agents, old_partition, new_partition)
                )

    # --- fault tolerance --------------------------------------------------

    def _take_snapshots(self, window: int) -> None:
        self._snapshots = self.transport.snapshot_all(window)
        self._snap_window = window
        self._replay_log = {}
        self._windows_since_snap = []
        self.bus.count("cluster.checkpoints")

    def _recover(self, agent_id: int, window: int) -> Dict[int, List[Record]]:
        """Restore a dead agent, replay its missed inputs, catch it up,
        and run the window it failed on.  Returns that window's outbox."""
        if self._snapshots is None:
            raise ClusterError(
                f"agent {agent_id} died at window {window} and no "
                "checkpoint exists (enable checkpoint_every)"
            )
        transport = self.transport
        with self.bus.span("replay", "transport", agent=agent_id,
                           window=window,
                           from_window=self._snap_window):
            transport.restore(agent_id, self._snapshots[agent_id],
                              self._snap_window)
            # Replay the batched RPCs peers delivered since the snapshot
            # — their channels accounted them once already, so they go
            # straight into the restored calendar.
            log = self._replay_log.get(agent_id, [])
            if log:
                transport.accept(agent_id, list(log))
            # Re-run the windows the cluster executed since the snapshot.
            # Outboxes are discarded: the peers received those batches in
            # the original timeline, and re-execution is deterministic.
            for past in self._windows_since_snap:
                transport.run_window(agent_id, past)
        stats = RecoveryStats(
            agent=agent_id,
            failed_window=window,
            restored_from_window=self._snap_window,
            windows_replayed=len(self._windows_since_snap),
            records_replayed=len(log),
        )
        self.recoveries.append(stats)
        self.bus.count("cluster.recoveries")
        return transport.run_window(agent_id, window)


def merge_results(per_agent: List[SimResults], scenario_name: str) -> SimResults:
    """Aggregate agent results the way the Cluster Controller reports."""
    merged = SimResults("dons-cluster", scenario_name, 0)
    merged.trace = TraceRecorder(
        per_agent[0].trace.level if per_agent[0].trace else 0
    )
    for res in per_agent:
        merged.end_time_ps = max(merged.end_time_ps, res.end_time_ps)
        merged.events.add(res.events)
        merged.drops += res.drops
        merged.marks += res.marks
        merged.tx_bytes += res.tx_bytes
        merged.rtt_samples.extend(res.rtt_samples)
        for node, count in res.node_events.items():
            merged.node_events[node] = merged.node_events.get(node, 0) + count
        for flow_id, fr in res.flows.items():
            have = merged.flows.get(flow_id)
            if have is None or (fr.complete_ps is not None
                                and have.complete_ps is None):
                merged.flows[flow_id] = fr
        if res.trace:
            merged.trace.entries.extend(res.trace.entries)
    merged.rtt_samples.sort()
    return merged
