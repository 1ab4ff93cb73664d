"""Transport layer: where agents live and how window batches move.

The cluster runtime (:mod:`repro.cluster.runtime`) never talks to an
:class:`~repro.cluster.agent.AgentEngine` directly; it talks to a
*transport*, which makes the agents from their specs
(:class:`~repro.cluster.agent.AgentSpec`), hosts them and runs the
window protocol of DONS section 4.2 among them.  The runtime only
*grants* a horizon (:meth:`Transport.grant`) and then collects
finished windows one at a time (:meth:`Transport.next_window`).  Two
implementations of one protocol:

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
themselves, every window, on both transports.  Busy is CPU time
(``time.thread_time()``) spent on the window outside barrier waits —
running it, publishing its frames, installing the peers' — which a
preempted or sleeping agent does not accrue; barrier wait is wall time.

**Failure handling** is coordinated rollback (:mod:`repro.cluster.fault`):
a dead agent surfaces as :class:`AgentFailure`, and
:meth:`Transport.restore_all` puts *every* agent back on the latest
coordinated snapshot over fresh pair rings.  A phase boundary
(:mod:`repro.cluster.migration`) makes the same call, a worker
remaking its engine if ``restore`` carries a new partition.  A
waiting worker that exhausts its spin budget polls its pipe: a pending
command (``restore``, ``exit``) makes it leave the window loop, EOF (the
coordinator died) makes it exit; nobody waits unboundedly on a dead peer.

**Accounting.**  Every agent counts its own traffic on its own bus,
in :meth:`~repro.cluster.agent.AgentEngine.run_window`, which both
transports call: ``cluster.finish_frames`` (one per peer per window),
``cluster.rpc_messages`` (one per non-empty batch) and
``cluster.rpc_records``.  The counters ride the engine checkpoint, so a
rollback re-counts nothing, and come home in the :class:`AgentReport`;
:meth:`Transport.finalize_stats` prices them into
:class:`ClusterTrafficStats`, which therefore cannot tell the
transports apart.  Beyond the window frames, what crosses the process
boundary is an engine checkpoint or an :class:`AgentReport`, both on
the control pipe (a checkpoint rides a ``snapshot`` reply or a
``restore`` command).  The only shared-memory segments are the pair
rings, the board and an oversize batch's blob.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .agent import AgentEngine, AgentSpec, Horizon, agreed_window
from .shm import (
    DONE, FAILED, PAUSED, RECORD_BYTES, ProgressBoard, SequenceError,
    ShmRing, consume_batch, publish_batch,
)
from ..core.checkpoint import (
    Checkpoint, restore_checkpoint, take_checkpoint,
)
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import SimResults

#: Modeled wire size of one packet record inside a batch RPC.
RPC_RECORD_BYTES = 64
#: Modeled framing overhead of one batch RPC (§4.2: "it sends one RPC
#: to carry the information of a batch of packets").
RPC_FRAME_BYTES = 256


@dataclass
class ClusterTrafficStats:
    """Aggregated communication measurements of a distributed run."""

    windows: int = 0
    finish_signals: int = 0
    rpc_messages: int = 0
    rpc_records: int = 0
    rpc_bytes: int = 0
    #: bytes leaving each machine (tau_a of Eq. 1)
    egress_bytes: List[int] = field(default_factory=list)


class AgentFailure(ClusterError):
    """An agent died (or was killed) and cannot serve requests."""

    def __init__(self, agent_id: int, window: int = -1) -> None:
        super().__init__(f"agent {agent_id} failed at window {window}")
        self.agent_id = agent_id
        self.window = window


@dataclass
class AgentReport:
    """What one finished agent hands back across the transport: its
    results and its whole bus, as
    :meth:`~repro.core.instrument.InstrumentationBus.export_state` gives
    it — the dict an engine checkpoint carries as ``bus_state``, and
    what :meth:`~repro.core.instrument.InstrumentationBus.merge_child`
    takes."""

    agent_id: int
    results: SimResults
    bus: Dict[str, Any]


class Transport:
    """Base transport: the hosting API and the traffic stats.

    Subclasses implement ``launch`` / ``build_all`` / ``grant`` /
    ``next_window`` / ``events_so_far`` / ``snapshot_all`` / ``kill`` /
    ``restore_all`` / ``finish_all`` / ``close``.
    """

    def __init__(self) -> None:
        self.specs: List[AgentSpec] = []
        self.stats = ClusterTrafficStats()
        #: Of the window :meth:`next_window` returned last: per-agent
        #: busy CPU and barrier-wait seconds, measured every window.
        self.window_times: List[float] = []
        self.window_waits: List[float] = []
        #: Last window :meth:`next_window` returned.
        self.cursor = -1
        #: The agreed window the last grant stopped in front of.
        self.pending: Optional[int] = None
        #: The agents agreed that nothing is left to run.
        self.done = False

    def _failed_at(self) -> int:
        return self.cursor if self.pending is None else self.pending

    def finalize_stats(self, reports: Sequence[AgentReport]
                       ) -> ClusterTrafficStats:
        """Price the agents' own traffic counters into the run totals:
        a machine's egress is a frame per batch RPC plus its records."""
        counters = [report.bus["counters"] for report in reports]
        stats = self.stats
        stats.finish_signals = sum(
            c.get("cluster.finish_frames", 0) for c in counters)
        messages = [c.get("cluster.rpc_messages", 0) for c in counters]
        records = [c.get("cluster.rpc_records", 0) for c in counters]
        stats.rpc_messages = sum(messages)
        stats.rpc_records = sum(records)
        stats.egress_bytes = [RPC_FRAME_BYTES * m + RPC_RECORD_BYTES * r
                              for m, r in zip(messages, records)]
        stats.rpc_bytes = sum(stats.egress_bytes)
        return stats

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

    def snapshot_all(self, window: int) -> List[Checkpoint]:
        """A coordinated snapshot (agents paused between windows): one
        engine :class:`~repro.core.checkpoint.Checkpoint` per agent, its
        traffic counters inside, for :meth:`restore_all`."""
        raise NotImplementedError

    def kill(self, agent_id: int) -> None:
        raise NotImplementedError

    def restore_all(self, specs: Sequence[AgentSpec],
                    snapshot: Sequence[Checkpoint], window: int) -> None:
        """The one call that installs agent state: ``snapshot`` (taken
        at ``window``) under ``specs`` — repartitioned ones at a phase
        boundary — dead agents replaced.  A checkpoint of another
        scenario or format is refused."""
        raise NotImplementedError

    def finish_all(self) -> List[AgentReport]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


def _report_of(engine: AgentEngine) -> AgentReport:
    return AgentReport(engine.agent_id, engine.results,
                       engine.bus.export_state())


class LocalTransport(Transport):
    """All agents in this process; a batch is a mailbox hand-off.

    :meth:`launch` makes the engines from the specs; they stay in
    ``engines`` after :meth:`close`.  A killed agent's engine is dropped
    on the floor — the crash loses its memory, exactly what recovery
    must survive.
    """

    def __init__(self) -> None:
        super().__init__()
        self.engines: List[Optional[AgentEngine]] = []
        self._horizon = Horizon()
        self._ran = 0
        self._offers: Optional[List[Optional[int]]] = None

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        self.specs = list(specs)
        self.engines = [spec.make() for spec in self.specs]

    def _alive(self, agent_id: int) -> AgentEngine:
        engine = self.engines[agent_id]
        if engine is None:
            raise AgentFailure(agent_id, self._failed_at())
        return engine

    def build_all(self) -> None:
        for engine in self.engines:
            engine.build()

    def grant(self, horizon: Horizon) -> None:
        self._horizon, self._ran = horizon, 0

    def next_window(self) -> Optional[int]:
        n = len(self.engines)
        engines = [self._alive(a) for a in range(n)]
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
        outboxes, times = [], []
        for agent_id, engine in enumerate(engines):
            c0 = time.thread_time()
            outbox, self._offers[agent_id] = engine.run_window(window)
            outboxes.append(outbox)
            times.append(time.thread_time() - c0)
        # Delivery: per destination, batches in ascending source order —
        # the order the pair rings of a ProcessTransport are read in.
        # Installing them is the destination's busy time, as on shm.
        for dst, engine in enumerate(engines):
            c0 = time.thread_time()
            for outbox in outboxes:
                records = outbox.get(dst)
                if records:
                    engine.accept_arrivals(records)
            times[dst] += time.thread_time() - c0
        # Serial execution: an agent's barrier wait is the slack to the
        # slowest agent.
        slowest = max(times)
        self.window_times = times
        self.window_waits = [slowest - t for t in times]
        self._ran += 1
        self.cursor, self.pending = window, None
        return window

    def events_so_far(self) -> int:
        return sum(engine.results.events.total
                   for engine in self.engines if engine is not None)

    def snapshot_all(self, window: int) -> List[Checkpoint]:
        return [take_checkpoint(self._alive(a), window)
                for a in range(len(self.engines))]

    def kill(self, agent_id: int) -> None:
        """Fault injection: the agent crashes, its in-memory state is gone."""
        self.engines[agent_id] = None

    def restore_all(self, specs: Sequence[AgentSpec],
                    snapshot: Sequence[Checkpoint], window: int) -> None:
        self.specs = list(specs)
        for agent_id, spec in enumerate(self.specs):
            engine = spec.make()
            engine.build()
            restore_checkpoint(engine, snapshot[agent_id])
            self.engines[agent_id] = engine
        self._offers, self.cursor, self.done = None, window, False

    def finish_all(self) -> List[AgentReport]:
        reports = []
        for agent_id in range(len(self.engines)):
            engine = self._alive(agent_id)
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


class _Interrupted(Exception):
    """A command (or EOF) is waiting on the control pipe: the window
    loop gives up so the command loop can serve it."""


class _AgentWorker:
    """One worker process: an agent engine, the
    pair rings to and from every peer, and the window loop."""

    def __init__(self, conn, spec: AgentSpec, board_name: str) -> None:
        self.conn = conn
        self.spec = spec
        self.me = spec.agent_id
        self.engine = spec.make()
        self.board = ProgressBoard.attach(board_name)
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
        clock, cpu = time.perf_counter, time.thread_time
        if not board.room(me):
            self._await(lambda: board.room(me))
        c0 = cpu()
        outbox, offer = engine.run_window(window)
        self.offers[me] = offer
        sent = sum(len(records) for records in outbox.values())
        for dst, ring in self.rings_out.items():
            if publish_batch(ring, window, offer, outbox.get(dst, ())):
                count("transport.shm_blobs")
        if self.rings_out:
            count("transport.shm_frames", len(self.rings_out))
            count("transport.shm_bytes", sent * RECORD_BYTES)
        waited = wait_cpu = 0.0
        for src, ring in self.rings_in.items():
            if not ring.ready():
                w0, v0 = clock(), cpu()
                self._await(ring.ready)
                waited += clock() - w0
                wait_cpu += cpu() - v0
            got, self.offers[src], records = consume_batch(ring)
            if got != window:
                raise SequenceError(
                    f"agent {me}: frame of window {got} from agent {src} "
                    f"while closing window {window}")
            if records:
                engine.accept_arrivals(records)
                count("transport.records_in", len(records))
        board.publish(me, window, cpu() - c0 - wait_cpu, waited,
                      engine.results.events.total)

    def _snapshot(self, window: int) -> Checkpoint:
        return take_checkpoint(self.engine, window)

    def _restore(self, checkpoint: Checkpoint, window: int, wiring,
                 partition: Partition) -> Optional[int]:
        self._wire(wiring)
        if partition != self.spec.partition:  # the sink routes by it
            self.spec = replace(self.spec, partition=partition)
            self.engine = self.spec.make()
        if not self.engine.built:
            self.engine.build()
        restore_checkpoint(self.engine, checkpoint)
        self.board.reset(self.me, self.engine.results.events.total)
        return self.engine.peek_next_window(window)

    def _finish(self) -> AgentReport:
        self.engine.finish()
        return _report_of(self.engine)


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
    over shared-memory pair rings (see the module doc).  A ring slot is
    :data:`~repro.cluster.shm.DEFAULT_SLOT_BYTES`; a batch that does not
    fit travels as a blob."""

    def __init__(self) -> None:
        super().__init__()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._workers: List[_Worker] = []
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
            (src, dst): ShmRing.create(f"{src}to{dst}")
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
                self.window_times = [entry[1] for entry in entries]
                self.window_waits = [entry[2] for entry in entries]
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

    def snapshot_all(self, window: int) -> List[Checkpoint]:
        return self._fan_out([("snapshot", window)] * len(self._workers))

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

    def restore_all(self, specs: Sequence[AgentSpec],
                    snapshot: Sequence[Checkpoint], window: int) -> None:
        self.specs = list(specs)
        for agent_id in self._dead_workers():
            self._workers[agent_id].conn.close()
            self._workers[agent_id] = self._spawn(self.specs[agent_id])
        self._offers = self._fan_out([
            ("restore", snapshot[a], window, wiring, self.specs[a].partition)
            for a, wiring in enumerate(self._rewire())])
        self._reported = 0
        self._board.consume(0)
        self.cursor, self.done = window, False

    def finish_all(self) -> List[AgentReport]:
        return self._fan_out([("finish",)] * len(self._workers))

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
