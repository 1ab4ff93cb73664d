"""Shared-memory framing for the process transport: pair rings, the
FINISH frame and the agents' progress board.

Agents of a :class:`~repro.cluster.transport.ProcessTransport` exchange
window batches *with each other*: one single-writer/single-reader
:class:`ShmRing` per directed agent pair, created (and unlinked) by the
coordinator, attached by name in the two workers.  After every window an
agent publishes exactly one frame into each outbound ring — ``(window,
advertised_next, records...)``, empty batches included.  That frame *is*
the FINISH signal of DONS section 4.2: its commit word is written last,
and the peer's barrier is a wait on that word (:meth:`ShmRing.ready`).

Layout of one ring::

    [0:8)   slot_bytes          geometry, written once at create
    [8:16)  n_slots
    [16:24) reader cursor: highest frame seq the reader has consumed —
            the only word the reader writes; the writer reuses slot
            ``(seq - 1) % n_slots`` once ``seq - n_slots <= cursor``
    then n_slots slots, each:
      [0:8)   commit word: the frame's sequence number, written LAST —
              a reader that finds anything but the seq it expects caught
              a torn (half-written) frame or a protocol desync
      [8:32)  frame header <qqq>: kind, count, payload length
      [32:..) payload

In lock-step a writer is never more than one frame ahead of its reader
(it needs the peer's frame for window *w* before it can publish
*w + 1*), so at most two slots are ever in flight; a full ring is a
protocol violation and raises.  A batch larger than a slot is parked in
a one-off :func:`write_blob` segment and the frame carries its name.

Every word another process polls (commit words, the reader cursor, the
board's counters) is read and written as one aligned int64 through a
``memoryview.cast("q")`` of the segment — a single store.
``struct.pack_into`` zero-fills its target before packing, so a polled
word written with it would flicker through 0.

Record framing: one delivery ``(arrival_ps, node, row)`` is exactly
``2 + len(ROW_FIELDS)`` little-endian int64 words.

``unpack_records`` is deliberately a module-level hook: the conformance
suite's planted bug ``inject.torn_shm_read`` swaps it for one that
truncates multi-record frames — what a reader racing the writer past
the commit word would observe — and the fuzz loop must catch the loss.

:class:`ProgressBoard` is the control-plane counterpart: one segment in
which every agent keeps a small single-writer progress record (windows
completed, a log of recent windows with agent-measured busy CPU and
barrier-wait seconds, events so far, how its last grant ended).  The
coordinator only reads it — it learns about finished windows without
being on any window's critical path.

**Lifecycle.**  Every segment is named ``dons-shm-<pid>-<tag>-<nonce>``,
and the pid is its one owner.  Rings and board share one base for
create / attach / close / unlink: the owner unlinks, other processes
attach by name, and attaching a name that is gone raises a
:class:`~repro.errors.ClusterError` naming it.  Unlinking a name that is
already gone counts as done.  A blob is the exception: its reader
unlinks it.  :func:`reap_orphans` removes only segments whose owner has
exited, so it never pulls a live run's rings away.
"""

from __future__ import annotations

import os
import secrets
import struct
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ClusterError
from ..protocols.packet import ROW_FIELDS, Row

#: Every segment this package creates starts with this prefix and then
#: its owner's pid — :func:`reap_orphans` keys on both.
SEGMENT_PREFIX = "dons-shm-"

#: Frame kinds.
KIND_OUTBOX = 1  #: ``{dst: records}`` as one payload (:func:`pack_outbox`)
KIND_BATCH = 2   #: one window's frame to one peer, records inline
KIND_BLOB = 3    #: the same, records parked in a blob segment

#: One record = (arrival_ps, node, *row) as little-endian int64 words.
WORDS_PER_RECORD = 2 + len(ROW_FIELDS)
RECORD_BYTES = 8 * WORDS_PER_RECORD

_GEOMETRY = struct.Struct("<qqq")    # slot_bytes, n_slots, reader cursor
_CURSOR = 2                          # word index of the reader cursor
_COMMIT = struct.Struct("<q")        # sequence number, written last
_HEADER = struct.Struct("<qqq")      # kind, count, payload_len
_BATCH = struct.Struct("<qq")        # window, advertised next (-1: none)

DEFAULT_SLOT_BYTES = 1 << 20
DEFAULT_SLOTS = 4


class TornFrameError(ClusterError):
    """A reader observed a slot whose commit word is not the frame it
    was told to read — the write was torn or the protocol desynced."""


class SequenceError(ClusterError):
    """A peer's frame belongs to another window than the one awaited."""


# --- record / batch framing -------------------------------------------------

def pack_records(records: Sequence[Tuple[int, int, Row]]) -> bytes:
    """Flatten delivery records into little-endian int64 words."""
    flat: List[int] = []
    for t, node, row in records:
        flat.append(t)
        flat.append(node)
        flat.extend(row)
    return struct.pack(f"<{len(flat)}q", *flat)


def unpack_records(view, count: int) -> List[Tuple[int, int, Row]]:
    """Rebuild delivery records from a packed frame payload.

    Module-level on purpose: ``inject.torn_shm_read`` patches this to
    model a reader that raced the writer (see module doc).
    """
    flat = struct.unpack_from(f"<{count * WORDS_PER_RECORD}q", view, 0)
    out: List[Tuple[int, int, Row]] = []
    k = 0
    for _ in range(count):
        out.append((flat[k], flat[k + 1],
                    tuple(flat[k + 2:k + WORDS_PER_RECORD])))
        k += WORDS_PER_RECORD
    return out


def pack_outbox(outbox: Dict[int, List[Tuple[int, int, Row]]]) -> bytes:
    """``{dst: records}`` as ``n_dsts, (dst, count, records)*``."""
    parts = [struct.pack("<q", len(outbox))]
    for dst in sorted(outbox):
        records = outbox[dst]
        parts.append(struct.pack("<qq", dst, len(records)))
        parts.append(pack_records(records))
    return b"".join(parts)


def outbox_record_count(outbox: Dict[int, List[Tuple[int, int, Row]]]) -> int:
    return sum(len(records) for records in outbox.values())


def unpack_outbox(view) -> Dict[int, List[Tuple[int, int, Row]]]:
    (n_dsts,) = struct.unpack_from("<q", view, 0)
    off = 8
    out: Dict[int, List[Tuple[int, int, Row]]] = {}
    for _ in range(n_dsts):
        dst, count = struct.unpack_from("<qq", view, off)
        off += 16
        out[dst] = unpack_records(memoryview(view)[off:], count)
        off += count * RECORD_BYTES
    return out


# --- segments: one owner, one lifecycle -------------------------------------

def _create(tag: str, size: int) -> shared_memory.SharedMemory:
    """A fresh zero-filled segment owned by this process."""
    return shared_memory.SharedMemory(
        create=True, size=size,
        name=f"{SEGMENT_PREFIX}{os.getpid()}-{tag}-{secrets.token_hex(4)}")


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment.  Forked processes share the creator's
    resource tracker, whose name set dedupes the attach-time
    registration, so attaching adopts no unlink duty."""
    try:
        return shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise ClusterError(f"shared-memory segment {name} is gone") from None


def _disown_segment(seg: shared_memory.SharedMemory) -> None:
    """Drop the segment's resource-tracker registration."""
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker not running
        pass


def _unlink(seg: shared_memory.SharedMemory) -> None:
    """Remove the segment's name.  A name that is already gone counts as
    removed; its tracker registration is dropped either way."""
    try:
        seg.unlink()
    except FileNotFoundError:
        _disown_segment(seg)


class _Segment:
    """A named segment viewed as int64 words (see the module doc).  Its
    one owner is the process that created it — the pid in its name — and
    only the owner unlinks it; other processes attach by name."""

    def __init__(self, seg: shared_memory.SharedMemory, created: bool) -> None:
        self._seg = seg
        self._words = seg.buf.cast("q")   # see the module doc
        self.name = seg.name
        self._created = created
        self.unlinked = False

    @classmethod
    def attach(cls, name: str):
        return cls(_attach(name), created=False)

    def close(self) -> None:
        if self._words is None:
            return
        self._words.release()
        self._words = None
        try:
            self._seg.close()
        except BufferError:  # pragma: no cover - a view outlived us
            pass

    def unlink(self) -> None:
        """Remove the name: the owner's duty, done once (re-calls and an
        attacher's call are no-ops)."""
        if self._created and not self.unlinked:
            self.unlinked = True
            _unlink(self._seg)


# --- shared-memory ring -----------------------------------------------------

class ShmRing(_Segment):
    """Framed slots from one writer to one reader inside one segment.

    Any process may create the ring (the coordinator does, and owns the
    unlink); each process then uses one role.  Frame sequence numbers
    start at 1; the slot of seq ``s`` is ``(s - 1) % n_slots``.
    """

    def __init__(self, seg: shared_memory.SharedMemory, created: bool) -> None:
        super().__init__(seg, created)
        self.slot_bytes, self.n_slots = self._words[0], self._words[1]
        self.next_seq = 1   # writer: seq of the next frame published
        self.read_seq = 1   # reader: seq of the next frame awaited

    @classmethod
    def create(cls, tag: str) -> "ShmRing":
        slot_bytes, n_slots = DEFAULT_SLOT_BYTES, DEFAULT_SLOTS
        # A fresh segment is zero-filled: cursor 0, no committed frame.
        seg = _create(tag, _GEOMETRY.size
                      + n_slots * (_COMMIT.size + slot_bytes))
        _GEOMETRY.pack_into(seg.buf, 0, slot_bytes, n_slots, 0)
        return cls(seg, created=True)

    # -- geometry --

    def _slot_off(self, seq: int) -> int:
        """Byte offset of the slot (its commit word) of frame ``seq``."""
        return (_GEOMETRY.size + ((seq - 1) % self.n_slots)
                * (_COMMIT.size + self.slot_bytes))

    @property
    def frame_capacity(self) -> int:
        """Max payload bytes one frame can carry."""
        return self.slot_bytes - _HEADER.size

    # -- writer role --

    def can_write(self) -> bool:
        """Whether the slot of the next frame has been consumed."""
        return self.next_seq - 1 - self._words[_CURSOR] < self.n_slots

    def write_frame(self, kind: int, count: int,
                    parts: Iterable) -> int:
        """Publish one frame; payload is the concatenation of ``parts``
        (bytes-like, copied straight into the slot).  Returns the frame's
        sequence number.  Callers size-check against
        :attr:`frame_capacity`; a ring whose reader is ``n_slots`` frames
        behind means the lock-step protocol broke, and raises."""
        if not self.can_write():
            raise ClusterError(
                f"ring {self.name}: reader is {self.n_slots} frames behind")
        seq = self.next_seq
        base = self._slot_off(seq)
        buf = self._seg.buf
        self._words[base >> 3] = 0  # invalidate before overwriting
        off = base + _COMMIT.size + _HEADER.size
        total = 0
        for part in parts:
            mv = memoryview(part).cast("B")
            n = mv.nbytes
            if total + n > self.frame_capacity:
                raise ClusterError(
                    f"frame overflows slot ({total + n} > "
                    f"{self.frame_capacity}); callers must size-check")
            buf[off:off + n] = mv
            off += n
            total += n
        _HEADER.pack_into(buf, base + _COMMIT.size, kind, count, total)
        self._words[base >> 3] = seq  # commit: published last
        self.next_seq = seq + 1
        return seq

    # -- reader role --

    def ready(self) -> bool:
        """Whether frame ``read_seq`` is published — the barrier flag a
        waiting peer polls."""
        seq = self.read_seq
        return self._words[self._slot_off(seq) >> 3] == seq

    def read_frame(self, seq: int):
        """The frame published as ``seq``: ``(kind, count, payload_view)``.

        The returned view aliases the slot — decode it, then hand the
        slot back with :meth:`mark_consumed`.
        """
        base = self._slot_off(seq)
        commit = self._words[base >> 3]
        if commit != seq:
            raise TornFrameError(
                f"ring {self.name}: slot holds frame {commit}, "
                f"expected {seq} (torn write or protocol desync)")
        buf = self._seg.buf
        kind, count, length = _HEADER.unpack_from(buf, base + _COMMIT.size)
        start = base + _COMMIT.size + _HEADER.size
        return kind, count, buf[start:start + length]

    def mark_consumed(self, seq: int) -> None:
        """Advance the reader cursor: frames up to ``seq`` are decoded
        and their slots may be overwritten."""
        if seq > self._words[_CURSOR]:
            self._words[_CURSOR] = seq


# --- one-off blob segments (oversize batches) ------------------------------

def write_blob(tag: str, data: bytes) -> Tuple[str, int]:
    """Copy ``data`` into a fresh named segment for the peer to read.

    The *reader* unlinks (attach -> copy -> unlink), so the creating
    process disowns the name from its resource tracker; a blob left
    unread is an orphan once its creator exits (:func:`reap_orphans`).
    """
    seg = _create(tag, max(1, len(data)))
    seg.buf[:len(data)] = data
    _disown_segment(seg)
    seg.close()
    return seg.name, len(data)


def read_blob(name: str, nbytes: int) -> bytes:
    """Consume a blob segment: copy out, unlink, close."""
    seg = _attach(name)
    try:
        return bytes(seg.buf[:nbytes])
    finally:
        _unlink(seg)
        seg.close()


# --- window frames (one per window per directed pair) ------------------------

def publish_batch(ring: ShmRing, window: int, advertised: Optional[int],
                  records: Sequence[Tuple[int, int, Row]]) -> bool:
    """Write one window's frame: the batch for this peer (possibly
    empty), the window it closes and the sender's advertised next
    window.  Returns True when the records went through a blob."""
    head = _BATCH.pack(window, -1 if advertised is None else advertised)
    packed = pack_records(records) if records else b""
    if _BATCH.size + len(packed) <= ring.frame_capacity:
        ring.write_frame(KIND_BATCH, len(records), (head, packed))
        return False
    name, nbytes = write_blob("batch", packed)
    ring.write_frame(KIND_BLOB, len(records),
                     (head, _COMMIT.pack(nbytes), name.encode()))
    return True


def consume_batch(ring: ShmRing):
    """Decode frame ``ring.read_seq`` and release its slot; returns
    ``(window, advertised_next, records)``.  Call once :meth:`ready`."""
    seq = ring.read_seq
    kind, count, view = ring.read_frame(seq)
    window, advertised = _BATCH.unpack_from(view, 0)
    body = view[_BATCH.size:]
    if kind == KIND_BLOB:
        (nbytes,) = _COMMIT.unpack_from(body, 0)
        body = read_blob(bytes(body[_COMMIT.size:]).decode(), nbytes)
    elif kind != KIND_BATCH:
        raise ClusterError(f"ring {ring.name}: unexpected frame kind {kind}")
    records = unpack_records(body, count) if count else []
    ring.mark_consumed(seq)
    ring.read_seq = seq + 1
    return window, (None if advertised < 0 else advertised), records


# --- progress board ----------------------------------------------------------

#: How an agent's last grant ended (``ProgressBoard.outcome``).
PAUSED, DONE, FAILED = 1, 2, 3

_BOARD_WORDS = 1   # consumed: the only word the coordinator writes
_AGENT_WORDS = 5   # completed, events, epoch, outcome, pending
_ENTRY = struct.Struct("<qdd")  # window, busy_s, wait_s


class ProgressBoard(_Segment):
    """Per-agent progress records in one segment.

    Agent *i* is the only writer of region *i*; the coordinator reads
    every region and writes one word, ``consumed`` — how many log
    entries it has taken, which bounds how far agents may run ahead
    (:meth:`room`).  Every multi-word update ends with the word the
    other side polls: a log entry before ``completed``, outcome and
    pending window before ``epoch``.
    """

    LOG_SLOTS = 1024
    _STRIDE = _AGENT_WORDS + LOG_SLOTS * _ENTRY.size // 8   # in words

    @classmethod
    def create(cls, tag: str, n_agents: int) -> "ProgressBoard":
        board = cls(_create(tag, 8 * (_BOARD_WORDS + n_agents * cls._STRIDE)),
                    created=True)
        for agent in range(n_agents):
            board.reset(agent, 0)
        return board

    def _base(self, agent: int) -> int:
        return _BOARD_WORDS + agent * self._STRIDE

    # -- agent side --

    def reset(self, agent: int, events: int) -> None:
        """Start a fresh log (launch, or a rollback to a snapshot)."""
        base = self._base(agent)
        for k, value in enumerate((0, events, 0, 0, -1)):
            self._words[base + k] = value

    def room(self, agent: int) -> bool:
        """Whether the next log entry would overwrite an unread one."""
        words = self._words
        return words[self._base(agent)] - words[0] < self.LOG_SLOTS

    def publish(self, agent: int, window: int, busy_s: float,
                wait_s: float, events: int) -> None:
        """Log one completed window (entry first, count last)."""
        words, base = self._words, self._base(agent)
        completed = words[base]
        _ENTRY.pack_into(
            self._seg.buf, 8 * (base + _AGENT_WORDS)
            + (completed % self.LOG_SLOTS) * _ENTRY.size,
            window, busy_s, wait_s)
        words[base + 1] = events
        words[base] = completed + 1

    def end_grant(self, agent: int, epoch: int, outcome: int,
                  pending: Optional[int] = None) -> None:
        """The grant numbered ``epoch`` is over: why, and which agreed
        window (if any) was left unexecuted."""
        words, base = self._words, self._base(agent)
        words[base + 3] = outcome
        words[base + 4] = -1 if pending is None else pending
        words[base + 2] = epoch

    # -- coordinator side --

    def status(self, agent: int) -> List[int]:
        """``[completed, events, epoch, outcome, pending]``.  A count
        read before the epoch may already be stale when the epoch says
        the grant is over: read it again."""
        base = self._base(agent)
        return self._words[base:base + _AGENT_WORDS].tolist()

    def entry(self, agent: int, k: int) -> Tuple[int, float, float]:
        """Log entry ``k``: ``(window, busy_s, wait_s)``."""
        return _ENTRY.unpack_from(
            self._seg.buf, 8 * (self._base(agent) + _AGENT_WORDS)
            + (k % self.LOG_SLOTS) * _ENTRY.size)

    def consume(self, count: int) -> None:
        self._words[0] = count


# --- orphan reaping ---------------------------------------------------------

def list_orphans() -> List[str]:
    """Names of this package's segments still present in ``/dev/shm``,
    live or not."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX host
        return []
    return sorted(
        entry for entry in os.listdir(shm_dir)
        if entry.startswith(SEGMENT_PREFIX)
    )


def live_owner(name: str) -> Optional[int]:
    """The pid in a segment's name while that process runs; ``None`` once
    it has exited, or for a name that carries no pid.  A recycled pid
    reads as live, which only spares a segment."""
    pid = name[len(SEGMENT_PREFIX):].split("-", 1)[0]
    if not pid.isdigit():
        return None
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return None
    except PermissionError:  # another user's process
        pass
    return int(pid)


def remove_segment(name: str) -> bool:
    """Unlink a segment by name; False when it was already gone."""
    try:
        seg = _attach(name)
    except ClusterError:
        return False
    _unlink(seg)
    seg.close()
    return True


def reap_orphans() -> List[str]:
    """Unlink every segment whose owner has exited; returns the reaped
    names.  Segments of live processes — this one's, a concurrent
    run's — are left alone."""
    return [name for name in list_orphans()
            if live_owner(name) is None and remove_segment(name)]
