"""Transport layer: where agents live and how window batches move.

The cluster runtime (:mod:`repro.cluster.runtime`) never talks to an
:class:`~repro.cluster.agent.AgentEngine` directly; it talks to a
*transport*, which hosts the agents and runs the window protocol of
DONS section 4.2 among them.  The runtime only *grants* a horizon
(:meth:`Transport.grant`) and then collects finished windows one at a
time (:meth:`Transport.next_window`).  Two implementations of one
protocol:

* :class:`LocalTransport` — every agent is an in-process engine and a
  batch is a mailbox hand-off.  Serial, deterministic, zero
  serialization cost; the default, and the reference the equivalence
  tests compare against.
* :class:`ProcessTransport` — every agent runs in its own
  ``multiprocessing`` worker, and the workers talk *to each other*: the
  coordinator is on no window's critical path.

**The window protocol.**  Every agent runs the agreed window (or skips
it when it provably has nothing scheduled), then hands every peer
exactly one frame ``(window, offer, records...)`` — empty batches
included.  That frame is the FINISH signal: an agent may start the next
window once it holds one frame from every peer, and it installs the
batches in ascending source order.  The next window is
:func:`~repro.cluster.agent.agreed_window` over the offers the frames
carried, which every agent computes identically — no agreement round
trip.  Between two agents of a ``ProcessTransport`` a frame travels
through the pair's :class:`~repro.cluster.shm.ShmRing` and the barrier
is a bounded spin on its commit word, then ``sched_yield``, then naps
that poll the control pipe.

**The control plane** of a ``ProcessTransport`` is the pipe to each
worker, carrying ``build`` / ``run`` / ``snapshot`` / ``restore`` /
``finish`` / ``exit`` and nothing per window.  ``run`` grants a
:class:`~repro.cluster.agent.Horizon`; inside it the agents never wait
for the coordinator, which follows their
:class:`~repro.cluster.shm.ProgressBoard` records and sleeps when it has
caught up.  Busy and barrier-wait seconds are measured by the agents
themselves (run time versus wait time).

**Failure handling** is coordinated rollback (:mod:`repro.cluster.fault`):
a dead agent surfaces as :class:`AgentFailure`, and
:meth:`Transport.restore_all` puts *every* agent back on the latest
coordinated snapshot over fresh pair rings.  A waiting worker that
exhausts its spin budget polls its pipe: a pending command
(``restore``, ``exit``) makes it leave the window loop, EOF (the
coordinator died) makes it exit; nobody waits unboundedly on a dead peer.

Both transports account every batch in a
:class:`~repro.cluster.channel.ChannelMap` on the sending side, so
:class:`~repro.cluster.channel.ClusterTrafficStats` cannot tell them
apart.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .agent import AgentEngine, AgentSpec, Horizon, agreed_window, spec_of
from .channel import ChannelMap, ClusterTrafficStats
from .shm import (
    DONE, FAILED, PAUSED, RECORD_BYTES, ProgressBoard, SequenceError,
    ShmRing, consume_batch, publish_batch, read_blob, write_blob,
)
from ..core.checkpoint import (
    Checkpoint, restore_checkpoint, take_checkpoint,
)
from ..core.instrument import SystemProfile
from ..errors import ClusterError
from ..metrics import SimResults

#: Test hook for the watchdog drill: when set, called as
#: ``stall_injector(agent_id, window)`` just before a LocalTransport
#: agent executes a window — a test makes it sleep for a chosen agent to
#: simulate a stalled machine and assert the watchdog flags it.  Always
#: ``None`` in production.
stall_injector = None


class AgentFailure(ClusterError):
    """An agent died (or was killed) and cannot serve requests."""

    def __init__(self, agent_id: int, window: int = -1) -> None:
        super().__init__(f"agent {agent_id} failed at window {window}")
        self.agent_id = agent_id
        self.window = window


@dataclass
class AgentReport:
    """What one finished agent hands back across the transport."""

    agent_id: int
    results: SimResults
    counters: Dict[str, int]
    totals: Dict[str, SystemProfile]
    #: The agent bus's raw window rows (``InstrumentationBus.window_rows``).
    windows: List[tuple]
    #: Telemetry streams (PR 5): the agent bus's span buffer, its metric
    #: registry snapshot, and the wall-clock position of its span epoch
    #: — the cluster bus uses the latter to normalize child clocks
    #: before merging the spans under the ``a<id>:`` namespace.
    spans: List[tuple] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    epoch_wall: float = 0.0
    #: A worker's own channel accounting (:meth:`ChannelMap.export`).
    channels: tuple = field(default_factory=lambda: (0, {}))


class Transport:
    """Base transport: the hosting API and the shared accounting.

    Subclasses implement ``launch`` / ``build_all`` / ``grant`` /
    ``next_window`` / ``events_so_far`` / ``snapshot_all`` / ``kill`` /
    ``restore_all`` / ``finish_all`` / ``close``.
    """

    def __init__(self) -> None:
        self.specs: List[AgentSpec] = []
        #: Sender-side accounting of every batch and FINISH frame.
        self.channels = ChannelMap()
        self.stats = ClusterTrafficStats()
        #: Cluster bus; the runtime wires it at construction.
        self.bus = None
        #: Of the window :meth:`next_window` returned last: per-agent
        #: busy and barrier-wait seconds (filled only when timed) and
        #: the records all agents sent in it.
        self.window_times: List[float] = []
        self.window_waits: List[float] = []
        self.window_records = 0
        #: Force the time measurement even with telemetry off — set by
        #: the runtime when a cluster watchdog is armed.
        self.track_times = False
        #: Last window :meth:`next_window` returned.
        self.cursor = -1
        #: The agreed window the last grant stopped in front of.
        self.pending: Optional[int] = None
        #: The agents agreed that nothing is left to run.
        self.done = False

    def _timed(self) -> bool:
        """Whether ``window_times`` / ``window_waits`` are filled."""
        return self.track_times or (self.bus is not None
                                    and self.bus.telemetry)

    def _failed_at(self) -> int:
        return self.cursor if self.pending is None else self.pending

    def finalize_stats(self) -> ClusterTrafficStats:
        """Aggregate the per-channel accounting into the run totals;
        FINISH signals are the frames the agents actually published."""
        channels = list(self.channels.values())
        self.stats.finish_signals = self.channels.frames
        self.stats.rpc_messages = sum(c.messages for c in channels)
        self.stats.rpc_records = sum(c.records for c in channels)
        self.stats.rpc_bytes = sum(c.bytes_sent for c in channels)
        self.stats.egress_bytes = [
            sum(c.bytes_sent for c in channels if c.src == a)
            for a in range(len(self.specs))
        ]
        return self.stats

    # --- hosting API (subclass responsibility) ----------------------------

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        raise NotImplementedError

    def build_all(self) -> None:
        raise NotImplementedError

    def grant(self, horizon: Horizon) -> None:
        """Let every agent run windows until the horizon is reached."""
        raise NotImplementedError

    def next_window(self) -> Optional[int]:
        """The next window every agent has completed, in execution
        order; ``None`` once the grant is used up (``done`` tells
        whether the run is over, ``pending`` which window comes next).
        Raises :class:`AgentFailure` when an agent is dead."""
        raise NotImplementedError

    def events_so_far(self) -> int:
        """Simulated events committed by all agents up to now."""
        raise NotImplementedError

    def snapshot_all(self, window: int) -> Any:
        """A coordinated snapshot (agents paused between windows): one
        engine :class:`~repro.core.checkpoint.Checkpoint` per agent plus
        the channel accounting, for :meth:`restore_all`."""
        raise NotImplementedError

    def kill(self, agent_id: int) -> None:
        raise NotImplementedError

    def restore_all(self, snapshot: Any, window: int) -> None:
        """Roll every agent back to ``snapshot`` (taken at ``window``),
        replacing dead ones; the next grant re-runs from there.  A
        checkpoint of another scenario or format is refused."""
        raise NotImplementedError

    def finish_all(self) -> List[AgentReport]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


def _report_of(engine: AgentEngine) -> AgentReport:
    bus = engine.bus
    return AgentReport(
        agent_id=engine.agent_id,
        results=engine.results,
        counters=dict(bus.counters),
        totals=dict(bus.totals),
        windows=bus.window_rows,
        spans=list(bus.spans),
        metrics=bus.metrics.snapshot() if bus.metrics else {},
        epoch_wall=bus.epoch_wall,
    )


class LocalTransport(Transport):
    """All agents in this process; a batch is a mailbox hand-off.

    ``engines`` may be supplied pre-constructed
    (``ClusterEngine.from_agents`` — checkpoint resume); otherwise
    :meth:`launch` builds them from the specs.  A killed agent's engine
    is dropped on the floor — the crash loses its memory, exactly what
    recovery must survive.
    """

    def __init__(self, engines: Optional[Sequence[AgentEngine]] = None) -> None:
        super().__init__()
        self.engines: List[Optional[AgentEngine]] = list(engines or [])
        if self.engines:
            self.specs = [spec_of(e) for e in self.engines]
        self._horizon = Horizon()
        self._ran = 0
        self._offers: Optional[List[Optional[int]]] = None
        #: Called with the agreed window before any agent runs it — the
        #: runtime's live-migration hook.  While set, no agent skips an
        #: idle window (a migration rewrites state between windows).
        self.before_window = None

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        if self.engines:
            if len(self.engines) != len(specs):
                raise ClusterError("adopted engines do not match the specs")
            self.specs = [spec_of(e) for e in self.engines]
            return
        self.specs = list(specs)
        self.engines = [spec.make() for spec in self.specs]

    def _engine(self, agent_id: int) -> AgentEngine:
        engine = self.engines[agent_id]
        if engine is None:
            raise AgentFailure(agent_id, self._failed_at())
        return engine

    def build_all(self) -> None:
        for agent_id in range(len(self.engines)):
            engine = self._engine(agent_id)
            if not engine.built:
                engine.build()

    def grant(self, horizon: Horizon) -> None:
        self._horizon, self._ran = horizon, 0

    def next_window(self) -> Optional[int]:
        n = len(self.engines)
        engines = [self._engine(a) for a in range(n)]
        if self._offers is None:
            self._offers = [e.peek_next_window(self.cursor) for e in engines]
        scenario = self.specs[0].scenario
        window = agreed_window(self._offers, scenario.lookahead_ps,
                               scenario.duration_ps)
        if window is None:
            self.done = True
            return None
        if self._horizon.reached(self._ran, window):
            self.pending = window
            return None
        if self.before_window is not None:
            self.before_window(window)
        skip_idle = self.before_window is None
        clock = time.perf_counter
        outboxes, times = [], []
        for agent_id, engine in enumerate(engines):
            t0 = clock()
            if stall_injector is not None:
                stall_injector(agent_id, window)
            outbox, self._offers[agent_id] = engine.run_window(
                window, skip_idle)
            outboxes.append(outbox)
            times.append(clock() - t0)
        self.window_records = sum(
            self.channels.account(src, outbox, n - 1)
            for src, outbox in enumerate(outboxes))
        # Delivery: per destination, batches in ascending source order —
        # the order the pair rings of a ProcessTransport are read in.
        for dst, engine in enumerate(engines):
            for outbox in outboxes:
                records = outbox.get(dst)
                if records:
                    engine.accept_arrivals(records)
        if self._timed():
            # Serial execution: an agent's busy time is its own wall
            # time, its barrier wait the slack to the slowest agent.
            slowest = max(times)
            self.window_times = times
            self.window_waits = [slowest - t for t in times]
        self._ran += 1
        self.cursor, self.pending = window, None
        return window

    def events_so_far(self) -> int:
        return sum(engine.results.events.total
                   for engine in self.engines if engine is not None)

    def snapshot_all(self, window: int) -> Any:
        return ([take_checkpoint(self._engine(a), window)
                 for a in range(len(self.engines))], self.channels.export())

    def kill(self, agent_id: int) -> None:
        """Fault injection: the agent crashes, its in-memory state is gone."""
        self.engines[agent_id] = None

    def restore_all(self, snapshot: Any, window: int) -> None:
        checkpoints, accounting = snapshot
        for agent_id, spec in enumerate(self.specs):
            engine = spec.make()
            engine.build()
            restore_checkpoint(engine, checkpoints[agent_id])
            self.engines[agent_id] = engine
        self.channels.merge(accounting, replace=True)
        self._offers, self.cursor, self.done = None, window, False

    def finish_all(self) -> List[AgentReport]:
        reports = []
        for agent_id in range(len(self.engines)):
            engine = self._engine(agent_id)
            engine.finish()
            reports.append(_report_of(engine))
        return reports

    def close(self) -> None:  # engines stay inspectable after the run
        pass


# --- process transport: the worker ------------------------------------------

#: A waiter's budget before it stops burning its core: polls of the
#: commit word, then ``sched_yield`` calls, then naps of ``_NAP_S`` that
#: double as polls of the control pipe.
_SPINS = 2000
_YIELDS = 2000
_NAP_S = 0.0005
_yield = getattr(os, "sched_yield", None) or (lambda: time.sleep(0))


def _checkpoint_blob(tag: str, checkpoint: Checkpoint) -> Tuple[str, int]:
    """Ship one engine checkpoint — format tag and scenario name
    included — as a one-off blob segment."""
    return write_blob(
        tag, [pickle.dumps(checkpoint, pickle.HIGHEST_PROTOCOL)])


def _read_checkpoint(name: str, nbytes: int) -> Checkpoint:
    return pickle.loads(read_blob(name, nbytes))


class _Interrupted(Exception):
    """A command (or EOF) is waiting on the control pipe: the window
    loop gives up so the command loop can serve it."""


class _AgentWorker:
    """One worker process: an agent engine, its outbound accounting, the
    pair rings to and from every peer, and the window loop."""

    def __init__(self, conn, spec: AgentSpec, board_name: str) -> None:
        self.conn = conn
        self.spec = spec
        self.me = spec.agent_id
        self.engine = spec.make()
        self.board = ProgressBoard.attach(board_name)
        self.channels = ChannelMap()
        self.rings_out: Dict[int, ShmRing] = {}
        self.rings_in: Dict[int, ShmRing] = {}
        self.offers: List[Optional[int]] = []
        self.spins = _SPINS

    def serve(self) -> None:
        commands = {"build": self._build, "run": self._run,
                    "snapshot": self._snapshot, "restore": self._restore,
                    "finish": self._finish}
        try:
            while True:
                command, *args = self.conn.recv()
                if command == "exit":
                    self.conn.send(("ok", None))
                    break
                try:
                    reply = commands[command](*args)
                except _Interrupted:
                    continue
                except Exception:
                    if command == "run":
                        self.board.end_grant(self.me, args[0], FAILED)
                    self.conn.send(("err", traceback.format_exc()))
                    continue
                if command != "run":  # progress is read off the board
                    self.conn.send(("ok", reply))
        except (EOFError, OSError, KeyboardInterrupt):
            pass  # the coordinator is gone (or interrupted us): just exit
        finally:
            self._wire(({}, {}))
            self.board.close()
            self.conn.close()

    def _wire(self, wiring) -> None:
        """Attach the pair rings named in ``wiring`` (ascending peer
        order), dropping the ones held so far."""
        for ring in (*self.rings_out.values(), *self.rings_in.values()):
            ring.close()
        outbound, inbound = wiring
        self.rings_out = {dst: ShmRing.attach(outbound[dst])
                          for dst in sorted(outbound)}
        self.rings_in = {src: ShmRing.attach(inbound[src])
                         for src in sorted(inbound)}
        # Spinning only pays when every agent can hold a core.
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        self.spins = _SPINS if cpus > len(inbound) else 0

    def _build(self, wiring) -> Optional[int]:
        self._wire(wiring)
        if not self.engine.built:
            self.engine.build()
        return self.engine.peek_next_window(-1)

    def _await(self, ready) -> None:
        """Wait until ``ready()``: spin, then yield the core, then nap —
        and leave the window loop when the coordinator wants something
        (``restore`` / ``exit``) or is gone (EOF also polls true)."""
        for _ in range(self.spins):
            if ready():
                return
        for _ in range(_YIELDS):
            _yield()
            if ready():
                return
        while not ready():
            if self.conn.poll(_NAP_S):
                raise _Interrupted

    def _run(self, epoch: int, horizon: Horizon, offers) -> None:
        """Run windows until the horizon or the end of the simulation;
        never waits for the coordinator unless it falls a whole progress
        log behind."""
        if offers is not None:
            self.offers = list(offers)
        scenario = self.spec.scenario
        ran = 0
        while True:
            window = agreed_window(self.offers, scenario.lookahead_ps,
                                   scenario.duration_ps)
            if window is None or horizon.reached(ran, window):
                break
            self._window(window)
            ran += 1
        self.board.end_grant(self.me, epoch,
                             DONE if window is None else PAUSED, window)

    def _window(self, window: int) -> None:
        engine, board, me = self.engine, self.board, self.me
        count = engine.bus.count
        clock = time.perf_counter
        if not board.room(me):
            self._await(lambda: board.room(me))
        t0 = clock()
        outbox, offer = engine.run_window(window)
        self.offers[me] = offer
        sent = self.channels.account(me, outbox, len(self.rings_out))
        for dst, ring in self.rings_out.items():
            if publish_batch(ring, window, offer, outbox.get(dst, ())):
                count("transport.shm_blobs")
        if self.rings_out:
            count("transport.shm_frames", len(self.rings_out))
            count("transport.shm_bytes", sent * RECORD_BYTES)
        waited = 0.0
        for src, ring in self.rings_in.items():
            if not ring.ready():
                w0 = clock()
                self._await(ring.ready)
                waited += clock() - w0
            got, self.offers[src], records = consume_batch(ring)
            if got != window:
                raise SequenceError(
                    f"agent {me}: frame of window {got} from agent {src} "
                    f"while closing window {window}")
            if records:
                engine.accept_arrivals(records)
                count("transport.records_in", len(records))
        board.publish(me, window, clock() - t0 - waited, waited, sent,
                      engine.results.events.total)

    def _snapshot(self, window: int):
        """The engine checkpoint in a blob segment, plus this worker's
        accounting."""
        name, nbytes = _checkpoint_blob(
            f"{self.me}-snap", take_checkpoint(self.engine, window))
        return name, nbytes, self.channels.export()

    def _restore(self, blob, window: int, wiring, accounting) -> Optional[int]:
        self._wire(wiring)
        if not self.engine.built:
            self.engine.build()
        restore_checkpoint(self.engine, _read_checkpoint(*blob))
        self.channels.merge(accounting, replace=True)
        self.board.reset(self.me, self.engine.results.events.total)
        return self.engine.peek_next_window(window)

    def _finish(self) -> AgentReport:
        self.engine.finish()
        report = _report_of(self.engine)
        report.channels = self.channels.export()
        return report


def _agent_worker(conn, spec: AgentSpec, board_name: str,
                  inherited: Sequence[Any]) -> None:
    # Forked, we hold copies of the coordinator's pipe ends; with them
    # open no worker would ever see EOF when the coordinator dies.
    for parent_end in inherited:
        parent_end.close()
    _AgentWorker(conn, spec, board_name).serve()


# --- process transport: the coordinator side --------------------------------

#: The coordinator's nap while it has caught up with the agents, and how
#: many naps pass between two checks that every worker is still alive.
_COORD_NAP_S = 0.0005
_ALIVE_EVERY = 16


@dataclass
class _Worker:
    """Parent-side handle of one agent's worker process."""

    process: Any
    conn: Any
    alive: bool = True


class ProcessTransport(Transport):
    """One worker process per agent, exchanging frames with each other
    over shared-memory pair rings (see the module doc).  ``slot_bytes``
    sizes a ring slot; a batch that does not fit travels as a blob."""

    def __init__(self, slot_bytes: Optional[int] = None) -> None:
        super().__init__()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._workers: List[_Worker] = []
        self._slot_bytes = slot_bytes
        self._rings: Dict[Tuple[int, int], ShmRing] = {}
        self._board: Optional[ProgressBoard] = None
        #: Initial offers (build / restore replies) for the next grant.
        self._offers: Optional[List[Optional[int]]] = None
        self._epoch = 0      # number of the grant in flight
        self._reported = 0   # board log entries handed to the runtime

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        self.specs = list(specs)
        self._board = ProgressBoard.create("board", len(self.specs))
        self._workers = []
        for spec in self.specs:
            self._workers.append(self._spawn(spec))

    def _spawn(self, spec: AgentSpec) -> _Worker:
        parent, child = self._ctx.Pipe()
        inherited = [w.conn for w in self._workers if w.alive] + [parent]
        process = self._ctx.Process(
            target=_agent_worker,
            args=(child, spec, self._board.name, inherited),
            daemon=True, name=f"dons-agent-{spec.agent_id}",
        )
        process.start()
        child.close()
        return _Worker(process, parent)

    def _rewire(self) -> List[Tuple[Dict[int, str], Dict[int, str]]]:
        """Replace every pair ring by a fresh segment; returns, per
        agent, the names of its outbound and inbound rings by peer."""
        self._drop_rings()
        agents = range(len(self.specs))
        self._rings = {
            (src, dst): ShmRing.create(f"{src}to{dst}", self._slot_bytes)
            for src in agents for dst in agents if src != dst
        }
        return [({d: self._rings[a, d].name for d in agents if d != a},
                 {s: self._rings[s, a].name for s in agents if s != a})
                for a in agents]

    def _drop_rings(self) -> None:
        for ring in self._rings.values():
            ring.unlink()
            ring.close()
        self._rings = {}

    # --- plumbing ---------------------------------------------------------

    def _send(self, agent_id: int, message: tuple) -> None:
        worker = self._workers[agent_id]
        if not worker.alive:
            raise AgentFailure(agent_id, self._failed_at())
        try:
            worker.conn.send(message)
        except (OSError, BrokenPipeError):
            worker.alive = False
            raise AgentFailure(agent_id, self._failed_at())

    def _recv(self, agent_id: int) -> Any:
        worker = self._workers[agent_id]
        if not worker.alive:
            raise AgentFailure(agent_id, self._failed_at())
        try:
            status, value = worker.conn.recv()
        except (EOFError, OSError):
            worker.alive = False
            raise AgentFailure(agent_id, self._failed_at())
        if status == "err":
            raise ClusterError(f"agent {agent_id} worker error:\n{value}")
        return value

    def _fan_out(self, messages: Sequence[tuple]) -> List[Any]:
        """One message per worker, then every reply — the workers run
        the command concurrently."""
        for agent_id, message in enumerate(messages):
            self._send(agent_id, message)
        return [self._recv(agent_id) for agent_id in range(len(messages))]

    def _dead_workers(self) -> List[int]:
        """Agents whose worker process is gone (noticed or not yet)."""
        for worker in self._workers:
            if worker.alive and not worker.process.is_alive():
                worker.alive = False
        return [a for a, w in enumerate(self._workers) if not w.alive]

    # --- hosting API ------------------------------------------------------

    def build_all(self) -> None:
        self._offers = self._fan_out(
            [("build", wiring) for wiring in self._rewire()])

    def grant(self, horizon: Horizon) -> None:
        self._epoch += 1
        for agent_id in range(len(self._workers)):
            self._send(agent_id, ("run", self._epoch, horizon, self._offers))
        self._offers = None

    def next_window(self) -> Optional[int]:
        board, k = self._board, self._reported
        agents = range(len(self._workers))
        naps = 0
        while True:
            status = [board.status(a) for a in agents]
            if min(s[0] for s in status) > k:
                entries = [board.entry(a, k) for a in agents]
                self._reported = k + 1
                board.consume(k + 1)
                window = entries[0][0]
                if any(entry[0] != window for entry in entries):
                    raise ClusterError(
                        f"agents disagree on window {k}: "
                        f"{[entry[0] for entry in entries]}")
                if self._timed():
                    self.window_times = [entry[1] for entry in entries]
                    self.window_waits = [entry[2] for entry in entries]
                self.window_records = sum(entry[3] for entry in entries)
                self.cursor, self.pending = window, None
                return window
            ended = [a for a in agents if status[a][2] == self._epoch]
            for agent_id in ended:
                if status[agent_id][3] == FAILED:
                    self._recv(agent_id)  # raises with its traceback
            if len(ended) == len(status):
                # An agent ends its grant after logging its last window:
                # only counts read after the epoch are final.
                if min(board.status(a)[0] for a in agents) > k:
                    continue
                self.done = status[0][3] == DONE
                self.pending = None if self.done else status[0][4]
                return None
            if naps % _ALIVE_EVERY == 0:
                for agent_id in self._dead_workers():
                    raise AgentFailure(agent_id, self._failed_at())
            naps += 1
            time.sleep(_COORD_NAP_S)  # caught up: sleep, never spin

    def events_so_far(self) -> int:
        return sum(self._board.status(a)[1]
                   for a in range(len(self._workers)))

    def snapshot_all(self, window: int) -> Any:
        replies = self._fan_out([("snapshot", window)] * len(self._workers))
        return ([_read_checkpoint(name, nbytes)
                 for name, nbytes, _acct in replies],
                [acct for _name, _nbytes, acct in replies])

    def kill(self, agent_id: int) -> None:
        """Fault injection: terminate the worker process outright."""
        worker = self._workers[agent_id]
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=10)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.alive = False

    def restore_all(self, snapshot: Any, window: int) -> None:
        checkpoints, accounting = snapshot
        for agent_id in self._dead_workers():
            self._workers[agent_id].conn.close()
            self._workers[agent_id] = self._spawn(self.specs[agent_id])
        self._offers = self._fan_out([
            ("restore", _checkpoint_blob(f"{a}-restore", checkpoints[a]),
             window, wiring, accounting[a])
            for a, wiring in enumerate(self._rewire())])
        self._reported = 0
        self._board.consume(0)
        self.cursor, self.done = window, False

    def finish_all(self) -> List[AgentReport]:
        reports = self._fan_out([("finish",)] * len(self._workers))
        for report in reports:
            self.channels.merge(report.channels)
        return reports

    def close(self) -> None:
        for agent_id, worker in enumerate(self._workers):
            if worker.alive:
                try:
                    self._send(agent_id, ("exit",))
                    self._recv(agent_id)
                except ClusterError:
                    pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
            worker.alive = False
        self._drop_rings()
        if self._board is not None:
            self._board.unlink()
            self._board.close()
            self._board = None


def make_transport(kind: Union[str, Transport, None]) -> Transport:
    """Resolve a transport argument: an instance, a name (``"local"``
    in-process, ``"shm"`` worker processes over shared-memory rings),
    or ``None`` (local)."""
    if kind is None or kind == "local":
        return LocalTransport()
    if isinstance(kind, Transport):
        return kind
    if kind == "shm":
        return ProcessTransport()
    raise ClusterError(f"unknown transport {kind!r}")
