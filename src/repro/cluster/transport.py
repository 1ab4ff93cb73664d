"""Transport layer: where agents live and how window batches move.

The cluster runtime (:mod:`repro.cluster.runtime`) never talks to an
:class:`~repro.cluster.agent.AgentEngine` directly; it talks to a
*transport*, which decides where each agent executes and carries the
batched RPCs between them.  Two implementations:

* :class:`LocalTransport` — every agent is an in-process engine and a
  batch RPC is an in-process mailbox hand-off (the DESIGN.md
  substitution).  Serial, deterministic, zero serialization cost; the
  default, and the reference the equivalence tests compare against.
* :class:`ProcessTransport` — every agent runs in its own
  ``multiprocessing`` worker; window commands fan out to all workers
  before any reply is collected, so agents execute their lookahead
  batches concurrently without sharing a GIL.

The ProcessTransport window protocol is *pipelined* (PR 8):

* **Async accepts.**  Cross-agent batches are fire-and-forget commands —
  the pipe's FIFO ordering guarantees a worker installs ``accept`` for
  window N before it sees the ``window N+1`` command, so the coordinator
  never blocks on a delivery round-trip.  Worker-side errors are
  deferred to the next replying command.
* **Peek piggybacking.**  Every ``window`` reply carries the agent's
  next ``peek_next_window``; the coordinator caches it and updates the
  cache itself when it forwards deliveries (arrival window ``t // L``,
  exact under the lookahead discipline), so the per-window peek round
  disappears in steady state.
* **Shared-memory framing** (``shm=True`` / ``REPRO_TRANSPORT_SHM=1``).
  Outboxes and accept batches move as struct-packed int64 column slices
  through per-worker double-buffered :class:`~repro.cluster.shm.ShmRing`
  segments — the pipe carries only ``("shm", seq)`` references, with
  ack-by-sequence slot reuse inferred from the command protocol.
  Checkpoint payloads travel as one-off blob segments holding a
  pickle-protocol-5 out-of-band container (raw column buffers, no
  pickling of array data).  Anything that does not fit a slot falls back
  to the pickled pipe path, counted as ``transport.shm_fallbacks``.
* **CPU pinning** (``pin_cpus=True`` / ``REPRO_PIN_CPUS=1``).  Each
  worker pins itself to core ``agent_id % cpu_count`` at startup
  (PARSIR-style contention-free placement); a no-op where
  ``sched_setaffinity`` is unavailable.

Both transports route every batch through a lazily-created
:class:`~repro.cluster.channel.RpcChannel` (one per directed pair that
actually communicates), so the traffic accounting — records, bytes,
FINISH signals — is identical whichever transport runs the agents, and
every drained batch carries the channel's monotone sequence number that
the receiving worker's :class:`~repro.cluster.shm.ChannelSequencer`
verifies.

The transport is also the fault boundary: :meth:`Transport.kill` is the
fault-injection hook (worker process terminated / in-process engine
discarded), failures surface as :class:`AgentFailure`, and
:meth:`Transport.restore` rebuilds a dead agent from a checkpoint
payload — the runtime layers replay and catch-up on top.  A respawned
worker gets *fresh* shared segments (the old ones are unlinked), so a
half-written frame from the killed incarnation can never be replayed.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .agent import AgentEngine, AgentSpec, spec_of
from .channel import ChannelMap, ClusterTrafficStats
from .shm import (
    KIND_OUTBOX, KIND_SECTIONS, RECORD_BYTES, ChannelSequencer, RingFull,
    Section, ShmRing, outbox_record_count, pack_records, read_blob,
    unpack_outbox, unpack_sections, write_blob,
)
from ..core.checkpoint import (
    restore_snapshot, state_oob_parts, take_checkpoint,
)
from ..core.instrument import SystemProfile, WindowProfile
from ..core.runtime import env_flag
from ..errors import ClusterError
from ..metrics import SimResults
from ..protocols.packet import Row

#: One remote delivery: (arrival_time_ps, node, row).
Record = Tuple[int, int, Row]

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
    windows: List[WindowProfile]
    #: Telemetry streams (PR 5): the agent bus's span buffer, its metric
    #: registry snapshot, and the wall-clock position of its span epoch
    #: — the cluster bus uses the latter to normalize child clocks
    #: before merging the spans under the ``a<id>:`` namespace.
    spans: List[tuple] = None  # type: ignore[assignment]
    metrics: Dict[str, Any] = None  # type: ignore[assignment]
    epoch_wall: float = 0.0


class Transport:
    """Base transport: channel accounting shared by every implementation.

    Subclasses implement agent hosting (``launch`` / ``build_all`` /
    ``peek_all`` / ``run_window`` / ``run_window_all`` / ``accept`` /
    ``snapshot_all`` / ``kill`` / ``restore`` / ``finish_all`` /
    ``close``); batch accounting, delivery and the FINISH barrier live
    here.
    """

    def __init__(self) -> None:
        self.specs: List[AgentSpec] = []
        self.channels = ChannelMap()
        self.stats = ClusterTrafficStats()
        #: Cluster bus for transport-level telemetry; the runtime wires
        #: it at build when telemetry is on, else spans stay un-emitted.
        self.bus = None
        #: Per-agent busy seconds of the most recent ``run_window_all``
        #: (coordinator-observed; filled only when ``bus`` telemetry is
        #: on) — the runtime turns these into barrier-wait slices.
        self.window_times: List[float] = []
        #: Force ``window_times`` measurement even with telemetry off —
        #: set by the runtime when a cluster watchdog is armed, which
        #: needs per-agent reply times without paying for span capture.
        self.track_times = False

    def _telemetry(self) -> bool:
        return self.bus is not None and self.bus.telemetry

    def _timed(self) -> bool:
        """Whether ``run_window_all`` should fill ``window_times``."""
        return self.track_times or self._telemetry()

    def _count(self, name: str, n: int = 1) -> None:
        if self.bus is not None:
            self.bus.count(name, n)

    # --- batched RPCs -----------------------------------------------------

    @property
    def num_agents(self) -> int:
        return len(self.specs)

    def send_batch(self, src: int, dst: int, records: List[Record]) -> None:
        """Account and enqueue one window batch (nothing for empty)."""
        if records:
            if self._telemetry():
                with self.bus.span("send", "transport", src=src, dst=dst,
                                   records=len(records)):
                    self.channels[src, dst].send_batch(records)
            else:
                self.channels[src, dst].send_batch(records)

    def deliver_pending(self) -> Dict[int, List[Record]]:
        """Drain every channel into its destination agent; returns what
        each destination received (the runtime's replay log feeds on
        this).

        Channels drain in ``(src, dst)`` order and each destination gets
        *one* hand-off per window — its per-channel batches concatenated
        in source order as sequenced sections — so a ProcessTransport
        pays one command per destination instead of one per channel,
        and the per-destination record order is the deterministic one
        the equivalence tests pin down.
        """
        staged: Dict[int, List[Section]] = {}
        for (src, dst), channel in self.channels.sorted_items():
            records, seq = channel.drain_with_seq()
            if records:
                staged.setdefault(dst, []).append((src, seq, records))
        delivered: Dict[int, List[Record]] = {}
        for dst in sorted(staged):
            sections = staged[dst]
            records = [record for _src, _seq, recs in sections
                       for record in recs]
            if self._telemetry():
                # The serialize + hand-off of one destination's batches:
                # in-process it is a mailbox append; across a
                # ProcessTransport it is the shm frame write (or the
                # pickled-pipe fallback).
                with self.bus.span("serialize", "transport", dst=dst,
                                   records=len(records)):
                    self.accept_sections(dst, sections, records)
            else:
                self.accept_sections(dst, sections, records)
            delivered[dst] = records
        return delivered

    def barrier(self) -> None:
        """End-of-window FINISH barrier: everyone tells everyone (§4.2)."""
        n = self.num_agents
        self.stats.finish_signals += n * (n - 1)
        self.stats.windows += 1

    def finalize_stats(self) -> ClusterTrafficStats:
        """Aggregate the per-channel accounting into the run totals."""
        channels = list(self.channels.values())
        self.stats.rpc_messages = sum(c.messages for c in channels)
        self.stats.rpc_records = sum(c.records for c in channels)
        self.stats.rpc_bytes = sum(c.bytes_sent for c in channels)
        self.stats.egress_bytes = [
            sum(c.bytes_sent for c in channels if c.src == a)
            for a in range(self.num_agents)
        ]
        return self.stats

    # --- hosting API (subclass responsibility) ----------------------------

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        raise NotImplementedError

    def build_all(self) -> None:
        raise NotImplementedError

    def peek_all(self, current: int) -> List[Optional[int]]:
        raise NotImplementedError

    def run_window(self, agent_id: int, window: int) -> Dict[int, List[Record]]:
        raise NotImplementedError

    def run_window_all(
        self, window: int, active: Optional[Sequence[bool]] = None
    ) -> List[Union[Dict[int, List[Record]], AgentFailure]]:
        """Run the window on every agent.  ``active[i] is False`` marks
        an agent the coordinator's peeks prove has nothing scheduled —
        it is skipped (empty outbox) without a command round-trip."""
        raise NotImplementedError

    def accept_sections(self, agent_id: int, sections: List[Section],
                        records: List[Record]) -> None:
        """Deliver one destination's drained batches (``records`` is the
        concatenation of the sections' record lists, in section order)."""
        self.accept(agent_id, records)

    def accept(self, agent_id: int, records: List[Record]) -> None:
        raise NotImplementedError

    def snapshot_all(self, window: int) -> List[bytes]:
        raise NotImplementedError

    def kill(self, agent_id: int) -> None:
        raise NotImplementedError

    def alive(self, agent_id: int) -> bool:
        raise NotImplementedError

    def restore(self, agent_id: int, payload: bytes, window: int) -> None:
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
        windows=list(bus.windows),
        spans=list(bus.spans),
        metrics=bus.metrics.snapshot() if bus.metrics else {},
        epoch_wall=bus.epoch_wall,
    )


class LocalTransport(Transport):
    """All agents in this process; a batch RPC is a mailbox hand-off.

    ``engines`` may be supplied pre-constructed (the legacy
    ``ClusterController`` path and checkpoint resume); otherwise
    :meth:`launch` builds them from the specs.  A killed agent's engine
    is dropped on the floor — the crash loses its memory, exactly what
    recovery must survive.
    """

    def __init__(self, engines: Optional[Sequence[AgentEngine]] = None) -> None:
        super().__init__()
        self.engines: List[Optional[AgentEngine]] = list(engines or [])
        if self.engines:
            self.specs = [spec_of(e) for e in self.engines]
        self._dead: set = set()

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        if self.engines:
            if len(self.engines) != len(specs):
                raise ClusterError("adopted engines do not match the specs")
            self.specs = [spec_of(e) for e in self.engines]
            return
        self.specs = list(specs)
        self.engines = [spec.make() for spec in self.specs]

    def _engine(self, agent_id: int, window: int = -1) -> AgentEngine:
        engine = self.engines[agent_id]
        if agent_id in self._dead or engine is None:
            raise AgentFailure(agent_id, window)
        return engine

    def build_all(self) -> None:
        for agent_id in range(len(self.engines)):
            engine = self._engine(agent_id)
            if not engine.built:
                engine.build()

    def peek_all(self, current: int) -> List[Optional[int]]:
        return [self._engine(a).peek_next_window(current)
                for a in range(len(self.engines))]

    def run_window(self, agent_id: int, window: int) -> Dict[int, List[Record]]:
        if stall_injector is not None:
            stall_injector(agent_id, window)
        return self._engine(agent_id, window).run_window(window)

    def run_window_all(self, window: int,
                       active: Optional[Sequence[bool]] = None):
        out: List[Union[Dict[int, List[Record]], AgentFailure]] = []
        timed = self._timed()
        if timed:
            self.window_times = []
        for agent_id in range(len(self.engines)):
            if active is not None and not active[agent_id]:
                out.append({})
                if timed:
                    self.window_times.append(0.0)
                continue
            t0 = time.perf_counter() if timed else 0.0
            try:
                out.append(self.run_window(agent_id, window))
            except AgentFailure as failure:
                out.append(failure)
            if timed:
                # Serial execution: each agent's busy time is exactly its
                # own wall time; the runtime derives barrier waits.
                self.window_times.append(time.perf_counter() - t0)
        return out

    def accept(self, agent_id: int, records: List[Record]) -> None:
        self._engine(agent_id).accept_remote(records)

    def snapshot_all(self, window: int) -> List[bytes]:
        return [take_checkpoint(self._engine(a), window).payload
                for a in range(len(self.engines))]

    def kill(self, agent_id: int) -> None:
        """Fault injection: the agent crashes, its in-memory state is gone."""
        self._dead.add(agent_id)
        self.engines[agent_id] = None

    def alive(self, agent_id: int) -> bool:
        return agent_id not in self._dead and self.engines[agent_id] is not None

    def restore(self, agent_id: int, payload: bytes, window: int) -> None:
        spec = self.specs[agent_id]
        engine = spec.make()
        engine.build()
        restore_snapshot(engine, payload, window, spec.scenario.name)
        self.engines[agent_id] = engine
        self._dead.discard(agent_id)

    def finish_all(self) -> List[AgentReport]:
        reports = []
        for agent_id in range(len(self.engines)):
            engine = self._engine(agent_id)
            engine.finish()
            reports.append(_report_of(engine))
        return reports

    def close(self) -> None:  # engines stay inspectable after the run
        pass


# --- process transport ----------------------------------------------------

def _sections_size(sections: Sequence[Section], n_records: int) -> int:
    return 8 + 24 * len(sections) + n_records * RECORD_BYTES


def _outbox_size(outbox: Dict[int, List[Record]], n_records: int) -> int:
    return 8 + 16 * len(outbox) + n_records * RECORD_BYTES


def _decode_sections(ref, ring_in: Optional[ShmRing]) -> List[Section]:
    if ref[0] == "shm":
        _kind, _count, view = ring_in.read_frame(ref[1])
        return unpack_sections(view)
    return ref[1]


def _encode_outbox(outbox: Dict[int, List[Record]],
                   ring_out: Optional[ShmRing], bus) -> Tuple[Any, int]:
    """Frame one window's outbox for the reply; returns ``(ref, seq)``
    where ``seq`` is the shm frame published (0 for pipe fallback)."""
    if not outbox:
        return None, 0
    if ring_out is not None:
        count = outbox_record_count(outbox)
        if (_outbox_size(outbox, count) <= ring_out.frame_capacity
                and ring_out.can_write()):
            parts = [struct.pack("<q", len(outbox))]
            for dst in sorted(outbox):
                records = outbox[dst]
                parts.append(struct.pack("<qq", dst, len(records)))
                parts.append(pack_records(records))
            seq = ring_out.write_frame(KIND_OUTBOX, count, parts)
            bus.count("transport.shm_frames")
            return ("shm", seq), seq
        bus.count("transport.shm_fallbacks")
    return ("raw", outbox), 0


def _agent_worker(conn, spec: AgentSpec,
                  shm_names: Optional[Tuple[str, str]] = None) -> None:
    """Command loop of one worker process hosting one agent engine.

    ``accept`` commands carry no reply (the pipe's FIFO order is the
    happens-before edge the next ``window`` command needs); an error in
    one is deferred and reported on the next replying command.  Frames
    this worker wrote into its outbound ring are considered consumed as
    soon as the next command arrives — the coordinator always decodes a
    reply's frame before sending anything else to this worker.
    """
    import traceback
    if spec.pin_cpu is not None and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {spec.pin_cpu})
        except OSError:  # pragma: no cover - cpu offline / not permitted
            pass
    ring_in = ring_out = None
    if shm_names is not None:
        ring_in = ShmRing.attach(shm_names[0])
        ring_out = ShmRing.attach(shm_names[1])
    engine = spec.make()
    sequencer = ChannelSequencer()
    replied_seq = 0   # newest outbound frame referenced in a sent reply
    deferred_err: Optional[str] = None
    try:
        while True:
            message = conn.recv()
            if ring_out is not None and replied_seq:
                ring_out.mark_consumed(replied_seq)
            command = message[0]
            if command == "exit":
                conn.send(("ok", None))
                break
            if command == "accept":
                # Fire-and-forget: decode, verify per-channel sequence
                # monotonicity, install.  No reply.
                try:
                    sections = _decode_sections(message[1], ring_in)
                    records: List[Record] = []
                    for src, chan_seq, recs in sections:
                        sequencer.observe(src, chan_seq)
                        records.extend(recs)
                    engine.accept_remote(records)
                    engine.bus.count("transport.records_in", len(records))
                except Exception:
                    deferred_err = traceback.format_exc()
                continue
            if deferred_err is not None:
                conn.send(("err", deferred_err))
                deferred_err = None
                continue
            try:
                if command == "build":
                    if not engine.built:
                        engine.build()
                    reply: Any = None
                elif command == "peek":
                    reply = engine.peek_next_window(message[1])
                elif command == "window":
                    out = engine.run_window(message[1])
                    ref, seq = _encode_outbox(out, ring_out, engine.bus)
                    if seq:
                        replied_seq = seq
                    reply = (ref, engine.peek_next_window(message[1]))
                elif command == "snapshot":
                    if ring_out is not None:
                        # Zero-copy checkpoint: protocol-5 out-of-band
                        # container in a one-off blob segment — column
                        # data is memcpy'd, never pickled.
                        parts = state_oob_parts(engine, message[1])
                        name, nbytes = write_blob(
                            f"{spec.agent_id}-snap", parts)
                        reply = ("seg", name, nbytes)
                    else:
                        reply = ("raw",
                                 take_checkpoint(engine, message[1]).payload)
                elif command == "restore":
                    if not engine.built:
                        engine.build()
                    ref, window = message[1], message[2]
                    if ref[0] == "seg":
                        payload = read_blob(ref[1], ref[2])
                    else:
                        payload = ref[1]
                    restore_snapshot(engine, payload, window,
                                     spec.scenario.name)
                    sequencer = ChannelSequencer()
                    reply = None
                elif command == "finish":
                    engine.finish()
                    reply = _report_of(engine)
                else:
                    conn.send(("err", f"unknown command {command!r}"))
                    continue
                conn.send(("ok", reply))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        for ring in (ring_in, ring_out):
            if ring is not None:
                ring.close()
        conn.close()


@dataclass
class _Worker:
    """Parent-side handle of one agent's worker process."""

    process: Any
    conn: Any
    alive: bool = True
    #: worker -> coordinator ring (we read outbox frames from it).
    ring_in: Optional[ShmRing] = None
    #: coordinator -> worker ring (we write accept frames into it).
    ring_out: Optional[ShmRing] = None
    #: For each replying command in flight: the newest ``ring_out`` seq
    #: written before it was sent.  Its reply proves (pipe FIFO) the
    #: worker consumed every accept frame up to that seq.
    inflight: deque = field(default_factory=deque)


def _fork_or_spawn() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                      else "spawn")


class ProcessTransport(Transport):
    """One worker process per agent: real parallelism across cores.

    Commands that apply to every agent (``build``, ``window``,
    ``snapshot``) are *fanned out* — all sends first, then all receives —
    so the workers overlap their lookahead batches; the reply collection
    is the implicit per-window barrier.  See the module doc for the
    pipelined protocol (async accepts, peek piggybacking, shared-memory
    framing, CPU pinning).  A worker that dies (killed by fault
    injection or crashed) surfaces as :class:`AgentFailure`;
    :meth:`restore` respawns it — with fresh shared segments — and loads
    the checkpoint payload.
    """

    def __init__(self, shm: Optional[bool] = None,
                 pin_cpus: Optional[bool] = None,
                 slot_bytes: Optional[int] = None,
                 slots: Optional[int] = None) -> None:
        super().__init__()
        self._ctx = _fork_or_spawn()
        self._workers: List[_Worker] = []
        self.shm = env_flag("REPRO_TRANSPORT_SHM") if shm is None else bool(shm)
        self.pin_cpus = (env_flag("REPRO_PIN_CPUS") if pin_cpus is None
                         else bool(pin_cpus))
        self._slot_bytes = slot_bytes
        self._slots = slots
        self._lookahead = 0
        #: Piggybacked peek cache: ``_peek_ok[i]`` marks ``_peeks[i]`` as
        #: exact (refreshed by window replies, lowered by deliveries).
        self._peeks: List[Optional[int]] = []
        self._peek_ok: List[bool] = []

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        self.specs = list(specs)
        if self.pin_cpus:
            ncpu = os.cpu_count() or 1
            self.specs = [
                dataclasses.replace(spec, pin_cpu=spec.agent_id % ncpu)
                for spec in self.specs
            ]
        self._lookahead = self.specs[0].scenario.lookahead_ps
        self._workers = [self._spawn(spec) for spec in self.specs]
        self._peeks = [None] * len(self.specs)
        self._peek_ok = [False] * len(self.specs)

    def _spawn(self, spec: AgentSpec) -> _Worker:
        ring_out = ring_in = None
        names = None
        if self.shm:
            ring_out = ShmRing.create(f"{spec.agent_id}-c2w",
                                      self._slot_bytes, self._slots)
            ring_in = ShmRing.create(f"{spec.agent_id}-w2c",
                                     self._slot_bytes, self._slots)
            names = (ring_out.name, ring_in.name)
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_agent_worker, args=(child, spec, names), daemon=True,
            name=f"dons-agent-{spec.agent_id}",
        )
        process.start()
        child.close()
        return _Worker(process, parent, ring_in=ring_in, ring_out=ring_out)

    @staticmethod
    def _teardown_rings(worker: _Worker) -> None:
        for ring in (worker.ring_in, worker.ring_out):
            if ring is not None:
                ring.unlink()
                ring.close()
        worker.ring_in = worker.ring_out = None

    # --- plumbing ---------------------------------------------------------

    def _send(self, agent_id: int, message: tuple, window: int = -1,
              expects_reply: bool = True) -> None:
        worker = self._workers[agent_id]
        if not worker.alive:
            raise AgentFailure(agent_id, window)
        try:
            worker.conn.send(message)
        except (OSError, BrokenPipeError):
            worker.alive = False
            raise AgentFailure(agent_id, window)
        if expects_reply and worker.ring_out is not None:
            worker.inflight.append(worker.ring_out.next_seq - 1)

    def _recv(self, agent_id: int, window: int = -1) -> Any:
        worker = self._workers[agent_id]
        if not worker.alive:
            raise AgentFailure(agent_id, window)
        try:
            status, value = worker.conn.recv()
        except (EOFError, OSError):
            worker.alive = False
            raise AgentFailure(agent_id, window)
        if worker.ring_out is not None and worker.inflight:
            # Ack-by-sequence: this reply proves the worker processed
            # every accept frame written before its command went out.
            worker.ring_out.mark_consumed(worker.inflight.popleft())
        if status == "err":
            raise ClusterError(f"agent {agent_id} worker error:\n{value}")
        return value

    def _call(self, agent_id: int, message: tuple, window: int = -1) -> Any:
        self._send(agent_id, message, window)
        return self._recv(agent_id, window)

    def _fan_out(self, message: tuple, window: int = -1) -> List[Any]:
        """Send to every live worker, then collect every reply — the
        workers run the command concurrently."""
        for agent_id in range(len(self._workers)):
            self._send(agent_id, message, window)
        return [self._recv(agent_id, window)
                for agent_id in range(len(self._workers))]

    def _decode_outbox(self, agent_id: int, ref) -> Dict[int, List[Record]]:
        if ref is None:
            return {}
        if ref[0] == "shm":
            ring = self._workers[agent_id].ring_in
            if self._telemetry():
                with self.bus.span("unpack", "transport", src=agent_id):
                    _kind, count, view = ring.read_frame(ref[1])
                    out = unpack_outbox(view)
            else:
                _kind, count, view = ring.read_frame(ref[1])
                out = unpack_outbox(view)
            self._count("transport.shm_frames")
            self._count("transport.shm_bytes", count * RECORD_BYTES)
            return out
        return ref[1]

    def _note_window_reply(self, agent_id: int, peek: Optional[int]) -> None:
        self._peeks[agent_id] = peek
        self._peek_ok[agent_id] = True

    def _note_delivery(self, agent_id: int, records: List[Record]) -> None:
        """Keep the peek cache exact: a delivered record lands in window
        ``t // L`` (the lookahead discipline guarantees that is in the
        agent's future, so the engine-side clamp never fires)."""
        if not records or not self._peek_ok[agent_id]:
            return
        arrival = min(t for t, _node, _row in records) // self._lookahead
        peek = self._peeks[agent_id]
        if peek is None or arrival < peek:
            self._peeks[agent_id] = arrival

    # --- hosting API ------------------------------------------------------

    def build_all(self) -> None:
        self._fan_out(("build",))
        self._peek_ok = [False] * len(self._workers)

    def peek_all(self, current: int) -> List[Optional[int]]:
        missing = [a for a in range(len(self._workers))
                   if not self._peek_ok[a]]
        for agent_id in missing:
            self._send(agent_id, ("peek", current), current)
        for agent_id in missing:
            self._note_window_reply(agent_id, self._recv(agent_id, current))
        return list(self._peeks)

    def run_window(self, agent_id: int, window: int) -> Dict[int, List[Record]]:
        ref, peek = self._call(agent_id, ("window", window), window)
        self._note_window_reply(agent_id, peek)
        return self._decode_outbox(agent_id, ref)

    def run_window_all(self, window: int,
                       active: Optional[Sequence[bool]] = None):
        results: List[Union[Dict[int, List[Record]], AgentFailure]] = []
        sent: List[Optional[bool]] = []
        timed = self._timed()
        t_sent = 0.0
        for agent_id in range(len(self._workers)):
            if active is not None and not active[agent_id]:
                sent.append(None)   # provably idle: skip the round-trip
                continue
            try:
                self._send(agent_id, ("window", window), window)
                sent.append(True)
            except AgentFailure:
                sent.append(False)
        if timed:
            t_sent = time.perf_counter()
            self.window_times = []
        for agent_id in range(len(self._workers)):
            if sent[agent_id] is None:
                results.append({})
                if timed:
                    self.window_times.append(0.0)
                continue
            if not sent[agent_id]:
                results.append(AgentFailure(agent_id, window))
                if timed:
                    self.window_times.append(0.0)
                continue
            try:
                ref, peek = self._recv(agent_id, window)
                self._note_window_reply(agent_id, peek)
                results.append(self._decode_outbox(agent_id, ref))
            except AgentFailure as failure:
                results.append(failure)
            if timed:
                # Reply-arrival time since fan-out: an upper bound on the
                # agent's busy time (a fast agent's reply can sit in the
                # pipe while an earlier recv blocks), good enough for the
                # runtime's barrier-wait split.
                self.window_times.append(time.perf_counter() - t_sent)
        return results

    def accept_sections(self, agent_id: int, sections: List[Section],
                        records: List[Record]) -> None:
        worker = self._workers[agent_id]
        ref = None
        if worker.ring_out is not None:
            size = _sections_size(sections, len(records))
            if (size <= worker.ring_out.frame_capacity
                    and worker.ring_out.can_write()):
                parts = [struct.pack("<q", len(sections))]
                for src, chan_seq, recs in sections:
                    parts.append(struct.pack(
                        "<qqq", src, chan_seq, len(recs)))
                    parts.append(pack_records(recs))
                try:
                    seq = worker.ring_out.write_frame(
                        KIND_SECTIONS, len(records), parts)
                except RingFull:  # pragma: no cover - raced can_write
                    seq = None
                if seq is not None:
                    ref = ("shm", seq)
                    self._count("transport.shm_frames")
                    self._count("transport.shm_bytes",
                                len(records) * RECORD_BYTES)
            if ref is None:
                self._count("transport.shm_fallbacks")
        if ref is None:
            ref = ("raw", sections)
        # Fire-and-forget: the pipe's FIFO order sequences this before
        # the next window command, so no reply round-trip is needed.
        self._send(agent_id, ("accept", ref), expects_reply=False)
        self._note_delivery(agent_id, records)

    def accept(self, agent_id: int, records: List[Record]) -> None:
        # Administrative delivery (recovery replay): src -1 bypasses the
        # per-channel sequence guard — the original batches were already
        # sequenced when first delivered.
        self.accept_sections(agent_id, [(-1, 0, records)], records)

    def snapshot_all(self, window: int) -> List[bytes]:
        refs = self._fan_out(("snapshot", window), window)
        payloads = []
        for ref in refs:
            if ref[0] == "seg":
                payload = read_blob(ref[1], ref[2])
                self._count("transport.shm_bytes", len(payload))
            else:
                payload = ref[1]
            payloads.append(payload)
        return payloads

    def kill(self, agent_id: int) -> None:
        """Fault injection: terminate the worker process outright.  Its
        rings are kept until :meth:`restore` replaces them — a restored
        incarnation never reads a possibly half-written old frame."""
        worker = self._workers[agent_id]
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=10)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.alive = False

    def alive(self, agent_id: int) -> bool:
        return self._workers[agent_id].alive

    def restore(self, agent_id: int, payload: bytes, window: int) -> None:
        worker = self._workers[agent_id]
        if not worker.alive:
            self._teardown_rings(worker)
            self._workers[agent_id] = self._spawn(self.specs[agent_id])
            self._call(agent_id, ("build",))
        if self.shm:
            name, nbytes = write_blob(f"{agent_id}-restore", [payload])
            ref = ("seg", name, nbytes)
        else:
            ref = ("raw", payload)
        self._call(agent_id, ("restore", ref, window))
        self._peek_ok[agent_id] = False

    def finish_all(self) -> List[AgentReport]:
        return self._fan_out(("finish",))

    def close(self) -> None:
        for agent_id, worker in enumerate(self._workers):
            if worker.alive:
                try:
                    self._call(agent_id, ("exit",))
                except (AgentFailure, ClusterError):
                    pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
            self._teardown_rings(worker)
            worker.alive = False


def make_transport(kind: Union[str, Transport, None]) -> Transport:
    """Resolve a transport argument: an instance, a name, or ``None``."""
    if kind is None:
        return LocalTransport()
    if isinstance(kind, Transport):
        return kind
    if kind == "local":
        return LocalTransport()
    if kind == "process":
        return ProcessTransport()
    if kind == "shm":
        return ProcessTransport(shm=True)
    raise ClusterError(f"unknown transport {kind!r}")
