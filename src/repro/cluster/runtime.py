"""Cluster runtime: the distributed run as one :class:`Engine`.

:class:`ClusterEngine` gives the distributed stack the shape of the
single-machine engines — ``build`` / ``advance`` / ``finalize`` — so one
:class:`~repro.core.runner.EngineRunner` drives it and returns the
merged results: one ``advance()`` reports one cluster-wide lookahead
window.  Every cluster is built from specs
(:class:`~repro.cluster.agent.AgentSpec`); the transport makes the agent
engines from them.

The runtime is the *control plane* only.  The window protocol — agree
on the window, run it, exchange batches, FINISH barrier — runs among
the agents, inside the transport (:mod:`repro.cluster.transport`).  The
runtime grants the agents a :class:`~repro.cluster.agent.Horizon` and
then takes finished windows off the transport one per ``advance()``:

* a plain run is one unlimited grant — under a ``ProcessTransport`` the
  agents run ahead of the coordinator, which sleeps when it has caught
  up;
* with ``checkpoint_every`` a grant covers the windows up to the next
  snapshot, so every agent is paused between windows when it is taken;
* with a ``fault`` plan a grant stops in front of the first agreed
  window >= ``fault.at_window``, where the runtime kills the agent;
* with a migration ``schedule`` a grant stops in front of the next
  phase boundary (Appendix A), where the runtime moves agent state.

The earliest stop wins.

Observability: each agent owns its :class:`InstrumentationBus`, the one
record of everything it measured, its traffic counters included; at
``finalize()`` each bus comes back whole in the agent's
:class:`~repro.cluster.transport.AgentReport` and is merged into the
cluster-level bus — counters summed, raw window rows kept under
``a<id>`` — so the profiler reports *measured* per-agent system times
``a<id>:<system>``, and the transport prices the agents'
``cluster.rpc_*`` counters into ``stats``.  Busy seconds (CPU time
outside barrier waits) and barrier-wait seconds (wall time) are measured
by the agents every window, on every transport, and added into the
``a<i>:busy_s`` / ``a<i>:barrier_wait_s`` gauges of the cluster bus,
their one home: the busy sums are the measured T_a the time-cost model
refits from (:func:`repro.partition.refit_cluster_spec`).

Fault tolerance is coordinated rollback: when the transport reports an
:class:`~repro.cluster.transport.AgentFailure`, ``_recover`` restores
*every* agent from the latest coordinated snapshot and the normal loop
re-runs from the snapshot window; windows already reported are consumed
silently, so ``advance()`` still returns ``True`` exactly once per
window and the merged trace stays byte-identical to the fault-free run.

A phase boundary moves state the same way, on either transport: a
coordinated snapshot is rewritten by
:func:`~repro.cluster.migration.migrate` and restored under the
repartitioned specs; under fault tolerance it becomes the latest
snapshot, so a rollback never crosses a boundary.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .agent import AgentSpec, Horizon
from .fault import FaultPlan, RecoveryStats
from .migration import MigrationStats, migrate
from .transport import AgentFailure, Transport, make_transport
from ..core.checkpoint import Checkpoint
from ..core.instrument import InstrumentationBus
from ..core.telemetry import WAIT_MS_BUCKETS
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import ClusterWatchdog, SimResults
from ..metrics.results import merge_results


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
    ) -> None:
        if not specs:
            raise ClusterError("no agents")
        self.specs = list(specs)
        self.schedule = sorted(schedule or [], key=lambda s: s[0])
        self._check_agreement()
        self.transport = make_transport(transport)
        self.fault = fault
        self.checkpoint_every = checkpoint_every
        self._fault_tolerant = fault is not None or checkpoint_every is not None

        self.bus = InstrumentationBus()
        # Telemetry on the cluster bus follows the agents: any spec with
        # it on lights up the coordinator-side spans/metrics too, so one
        # exported timeline holds both the agent tracks and the
        # barrier-wait slices.
        if any(spec.telemetry for spec in self.specs):
            self.bus.telemetry = True
            self.bus.metrics.histogram("cluster.barrier_wait_ms",
                                       WAIT_MS_BUCKETS)
        #: Agent-measured per-agent busy / barrier-wait seconds, added
        #: in every window: the ``a<i>:*`` gauges are the one
        #: accumulator, so the bus alone (``run_record(bus)``) gives the
        #: measured T_a that :func:`repro.partition.refit_cluster_spec`
        #: takes as ``measured_times``, mid-run or after the fact.
        self._series = [(f"a{a}:busy_s", f"a{a}:barrier_wait_s")
                        for a in range(len(self.specs))]
        for names in self._series:
            self.bus.metrics.gauges.update(dict.fromkeys(names, 0.0))
        #: Stall/slowness detector over the same measured window times,
        #: armed exactly when the bus is telemetered.
        self.watchdog = (ClusterWatchdog(len(self.specs))
                         if self.bus.telemetry else None)
        self.results = SimResults(self.name, self.specs[0].scenario.name, 0)
        self.per_agent: List[SimResults] = []
        self.migrations: List[MigrationStats] = []
        self.recoveries: List[RecoveryStats] = []

        self._lookahead = self.specs[0].scenario.lookahead_ps
        self._cursor = -1
        self._built = False
        self._finalized = False

        #: Whether the agents hold a grant (see the module doc).
        self._granted = False
        # Fault-tolerance state: the latest coordinated snapshot, how
        # many windows were reported since, and how many windows the
        # agents have executed since (fewer right after a rollback).
        self._snapshot: List[Checkpoint] = []
        self._snap_window = -1
        self._reported_since_snap = 0
        self._ran_since_snap = 0

    # --- convenience views ------------------------------------------------

    @property
    def built(self) -> bool:
        return self._built

    @property
    def stats(self):
        return self.transport.stats

    @property
    def partition(self) -> Partition:
        """The partition the agents run (end) under."""
        return self.specs[0].partition

    # --- Engine protocol --------------------------------------------------

    def build(self) -> None:
        """Launch and build every agent.  A failed build closes the
        transport (no agent process or shared segment outlives it) and
        re-raises."""
        try:
            self.transport.launch(self.specs)
            self.transport.build_all()
            if self._fault_tolerant:
                self._take_snapshots(self._cursor)
        except BaseException:
            self.transport.close()
            raise
        self._built = True

    def _check_agreement(self) -> None:
        """Every agent must run the same scenario under the same plan,
        one agent per part of a partition that covers the topology —
        window agreement (§4.2) is meaningless otherwise, and a spare
        part or agent would stall or idle.  Mismatches fail loudly at
        construction, before any agent is launched."""
        first = self.specs[0]
        nodes = first.scenario.topology.num_nodes
        for partition in [spec.partition for spec in self.specs] + [
                p for _w, p in self.schedule]:
            if partition.num_parts != len(self.specs):
                raise ClusterError(
                    f"{len(self.specs)} agents for a partition of "
                    f"{partition.num_parts} parts")
            if len(partition.assignment) != nodes:
                raise ClusterError(
                    f"partition assigns {len(partition.assignment)} nodes, "
                    f"the topology has {nodes}")
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
        """Report one cluster-wide lookahead window; False when done."""
        bus = self.bus
        telemetry = bus.telemetry
        _w0 = bus.now() if telemetry else 0.0
        window = self._next_window()
        if window is None:
            return False
        bus.count("cluster.windows")
        self._observe_window(window, _w0)
        self._cursor = window
        if self._fault_tolerant:
            self._reported_since_snap += 1
            if (self.checkpoint_every
                    and self._reported_since_snap >= self.checkpoint_every):
                self._take_snapshots(window)
        return True

    def _next_window(self) -> Optional[int]:
        """The next window not reported yet, granting horizons, firing
        the fault plan and rolling back on failures along the way."""
        transport = self.transport
        while True:
            try:
                if not self._granted:
                    self._grant()
                window = transport.next_window()
            except AgentFailure as failure:
                self._recover(failure)
                continue
            if window is None:
                if transport.done:
                    return None
                self._granted = False   # horizon reached: all paused
            else:
                self._ran_since_snap += 1
                if window > self._cursor:  # else: re-run after a rollback
                    return window

    def _grant(self) -> None:
        """Grant the next horizon, after migrating or killing the faulted
        agent when the last grant stopped in front of a boundary / fault."""
        transport, fault, schedule = self.transport, self.fault, self.schedule
        pending = transport.pending
        if pending is not None and schedule and schedule[0][0] <= pending:
            self._migrate(pending)
        stops = [schedule[0][0]] if schedule else []
        if fault is not None and not fault.fired:
            if pending is not None and pending >= fault.at_window:
                fault.fired = True
                transport.kill(fault.agent)  # the grant below will notice
            else:
                stops.append(fault.at_window)
        self._granted = True
        transport.grant(Horizon(
            self.checkpoint_every - self._ran_since_snap
            if self.checkpoint_every else None, min(stops, default=None)))

    def progress(self) -> Dict[str, object]:
        """In-flight progress snapshot, same shape as
        :meth:`repro.core.engine.DodEngine.progress`.  ``windows`` are
        the ``advance()`` calls that reported one; ``events`` is what
        the agents have committed so far — under a ``ProcessTransport``
        they may be a few windows ahead of ``windows``."""
        sim_ps = (self._cursor + 1) * self._lookahead if self._cursor >= 0 else 0
        duration = self.specs[0].scenario.duration_ps
        return {
            "windows": self.bus.counters.get("cluster.windows", 0),
            "sim_ps": sim_ps,
            "duration_ps": duration,
            "events": (self.results.events.total if self._finalized
                       else self.transport.events_so_far()),
            "done": min(1.0, sim_ps / duration) if duration else None,
        }

    def _observe_window(self, window: int, t_begin: float) -> None:
        """Add the agent-measured busy / barrier-wait seconds of the
        window just reported into the ``a<i>:*`` gauges, feed the
        watchdog and — telemetered — the ``a<i>:barrier-wait`` slices,
        the wait histogram and the coordinator's ``window`` span."""
        bus = self.bus
        transport = self.transport
        gauges = bus.metrics.gauges
        for (busy_name, wait_name), busy, wait in zip(
                self._series, transport.window_times,
                transport.window_waits):
            gauges[busy_name] += busy
            gauges[wait_name] += wait
        if self.watchdog is not None:
            self.watchdog.observe(window, transport.window_times, bus)
        if not bus.telemetry:
            return
        t_done = bus.now()
        for agent_id, wait in enumerate(transport.window_waits):
            bus.metrics.record("cluster.barrier_wait_ms", wait * 1e3)
            if wait > 0.0:
                bus.span_add(f"a{agent_id}:barrier-wait",
                             t_done - wait, t_done, "cluster",
                             {"window": window})
        bus.span_add("window", t_begin, t_done, "cluster", {"index": window})

    def finalize(self) -> SimResults:
        """Collect per-agent results and buses, merge, shut down."""
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
                self.bus.merge_child(f"a{report.agent_id}", report.bus)
            stats = self.transport.finalize_stats(reports)
            stats.windows = self.bus.counters.get("cluster.windows", 0)
        finally:
            self.transport.close()
        return self.results

    # --- migration --------------------------------------------------------

    def _migrate(self, pending: int) -> None:
        """Apply every boundary up to ``pending`` to one coordinated
        snapshot of the paused agents and restore it under the last
        partition (one that keeps the partition is free).  Nothing is
        committed before ``restore_all`` returns: a failure on the way
        rolls back and meets the boundary again."""
        transport = self.transport
        due = [part for boundary, part in self.schedule if boundary <= pending]
        window, snapshot, moves = transport.cursor, None, []
        partition = self.specs[0].partition
        for new in due:
            if new.assignment == partition.assignment:
                continue
            if snapshot is None:
                snapshot = transport.snapshot_all(window)
            snapshot, stats = migrate(snapshot, partition, new,
                                      self.specs[0].scenario)
            moves.append(stats)
            partition = new
        if snapshot is not None:
            specs = [replace(spec, partition=partition)
                     for spec in self.specs]
            transport.restore_all(specs, snapshot, window)
            self.specs = specs
            self.migrations.extend(moves)
            if self._fault_tolerant:
                self._take_snapshots(window, snapshot)
        del self.schedule[:len(due)]

    # --- fault tolerance --------------------------------------------------

    def _take_snapshots(self, window: int,
                        snapshot: Optional[List[Checkpoint]] = None) -> None:
        self._snapshot = snapshot or self.transport.snapshot_all(window)
        self._snap_window = window
        self._reported_since_snap = 0
        self._ran_since_snap = 0
        self.bus.count("cluster.checkpoints")

    def _recover(self, failure: AgentFailure) -> None:
        """Coordinated rollback: every agent back to the latest
        snapshot (dead ones replaced); the caller's loop re-runs from
        there and skips the windows already reported."""
        if not self._snapshot:
            raise ClusterError(
                f"agent {failure.agent_id} died at window {failure.window} "
                "and no checkpoint exists (enable checkpoint_every)"
            ) from failure
        bus = self.bus
        t0 = bus.now() if bus.telemetry else 0.0
        self.transport.restore_all(self.specs, self._snapshot,
                                   self._snap_window)
        if bus.telemetry:
            bus.span_add("replay", t0, bus.now(), "transport",
                         {"agent": failure.agent_id, "window": failure.window,
                          "from_window": self._snap_window})
        self._granted = False
        self._ran_since_snap = 0
        self.recoveries.append(RecoveryStats(
            agent=failure.agent_id,
            failed_window=failure.window,
            restored_from_window=self._snap_window,
            windows_replayed=self._reported_since_snap,
        ))
        self.bus.count("cluster.recoveries")

