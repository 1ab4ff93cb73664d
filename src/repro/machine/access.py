"""Memory-access models: how each engine's data layout touches memory.

Both engines publish one op per processed operation, in actual
processing order, on their instrumentation bus; a recorder below is
made the bus's one op sink (``engine.bus.ops = recorder``) and is
called as

    recorder(op_code, location, packet_uid)

The recorders here turn those operation streams into *address* streams
using each architecture's layout model, and the cache simulator replays
the addresses.  The OOD-vs-DOD miss-rate gap of Fig. 2a / Fig. 12b then
*emerges* from two real differences, not from hardcoded numbers:

* **Layout** — the OOD model allocates one multi-line heap object per
  packet (reused through a free list, so reuse order is scattered
  relative to processing order) and spreads per-node FIB tables over a
  large region; the DOD model maps the same operations onto compact
  per-field columns and per-window buffers swept sequentially.
* **Order** — the OOD engine interleaves nodes event by event; the DOD
  engine processes one behavioural aspect of *all* devices per window,
  node-batched, so table and column lines are reused while hot.

The op codes are the one table in ``repro.core.instrument``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .cache import CacheConfig, CacheSim, CacheStats
from ..core.instrument import (
    OP_FORWARD, OP_HOST_RX, OP_SEND, OP_SERVICE, OP_WINDOW,
)
from ..rng import ecmp_hash

_LINE = 64


@dataclass(frozen=True)
class LayoutParams:
    """Sizes of the modeled data structures (bytes)."""

    # --- OOD heap ---
    packet_obj_bytes: int = 192        # ns-3 Packet + tags + metadata
    payload_buf_bytes: int = 1536      # the byte buffer behind a Packet
    payload_lines_touched: int = 4     # lines copied per buffer handling
    event_obj_bytes: int = 96          # one heap node per scheduled event
    heap_spread: int = 4               # interleaved unrelated allocations
    conn_obj_bytes: int = 512          # socket/TCB object per flow
    port_obj_bytes: int = 384          # NetDevice + queue object
    fib_entry_bytes: int = 64          # per-destination routing entry
    # --- DOD columns ---
    column_item_bytes: int = 8
    buffer_row_bytes: int = 72         # 9 packet fields
    fib_nexthop_bytes: int = 4         # dense next-hop array


class OodAccessModel:
    """Op-stream probe for the OOD baseline: scattered heap objects."""

    def __init__(
        self,
        num_nodes: int,
        num_ifaces: int,
        num_hosts: int,
        params: LayoutParams = LayoutParams(),
        max_addresses: int = 400_000,
    ) -> None:
        self.p = params
        self.max_addresses = max_addresses
        self.addresses: List[int] = []
        # Region bases: FIB tables first (the big footprint), then objects.
        self._fib_base = 0
        self._fib_node_stride = num_hosts * params.fib_entry_bytes
        fib_end = self._fib_base + num_nodes * self._fib_node_stride
        self._port_base = fib_end
        port_end = self._port_base + num_ifaces * params.port_obj_bytes
        self._conn_base = port_end
        self._heap_base = port_end + (1 << 28)  # connection region headroom
        self._bump = self._heap_base
        self._free: List[int] = []
        self._addr_of_uid = {}
        # Payload byte buffers live in their own arena (ns-3 Buffer pool);
        # event objects churn in a third one.
        self._buf_bump = self._heap_base + (1 << 30)
        self._buf_free: List[int] = []
        self._buf_of_uid = {}
        self._ev_bump = self._heap_base + (1 << 31)
        self._ev_free: List[int] = []
        self._ev_clock = 0
        self._num_hosts = max(1, num_hosts)

    # --- allocator ---------------------------------------------------------

    def _alloc(self, uid: int) -> int:
        if self._free:
            addr = self._free.pop()
        else:
            addr = self._bump
            # Interleaved allocations from other subsystems fragment the
            # heap: consecutive packets are not adjacent.
            self._bump += self.p.packet_obj_bytes * self.p.heap_spread
        self._addr_of_uid[uid] = addr
        return addr

    def _packet_addr(self, uid: int) -> int:
        addr = self._addr_of_uid.get(uid)
        if addr is None:
            addr = self._alloc(uid)
        return addr

    def _buffer_addr(self, uid: int) -> int:
        """Payload byte-buffer of a packet (allocated on first touch)."""
        addr = self._buf_of_uid.get(uid)
        if addr is None:
            if self._buf_free:
                addr = self._buf_free.pop()
            else:
                addr = self._buf_bump
                self._buf_bump += self.p.payload_buf_bytes * 2
            self._buf_of_uid[uid] = addr
        return addr

    def _touch_payload(self, uid: int) -> None:
        base = self._buffer_addr(uid)
        self._emit(*(base + 64 * i
                     for i in range(self.p.payload_lines_touched)))

    def _touch_event_node(self) -> None:
        """Every processed op popped (and a successor pushed) one event
        object from the scheduler heap — allocator churn ns-3 pays and a
        batch engine does not."""
        if self._ev_free:
            addr = self._ev_free.pop()
        else:
            addr = self._ev_bump
            self._ev_bump += self.p.event_obj_bytes * self.p.heap_spread
        self._emit(addr)
        # Events free quickly but out of order; recycle with a lag.
        self._ev_clock += 1
        if self._ev_clock % 3:
            self._ev_free.append(addr)

    def _emit(self, *addrs: int) -> None:
        if len(self.addresses) < self.max_addresses:
            self.addresses.extend(addrs)

    # --- the hook -------------------------------------------------------------

    def __call__(self, op: int, location: int, uid: int) -> None:
        p = self.p
        self._touch_event_node()
        if op == OP_SEND:
            conn = self._conn_base + (uid >> 25) * p.conn_obj_bytes
            pkt = self._alloc(uid)
            # touch the connection state and initialize two packet lines
            self._emit(conn, conn + 64, pkt, pkt + 64, pkt + 128)
            self._touch_payload(uid)  # copy application bytes in
        elif op == OP_FORWARD:
            pkt = self._packet_addr(uid)
            # A flow's destination is fixed: its FIB slot at a node is
            # stable across all its packets.
            dest_slot = ecmp_hash(uid >> 25, location) % self._num_hosts
            fib = (self._fib_base + location * self._fib_node_stride
                   + dest_slot * p.fib_entry_bytes)
            self._emit(pkt, pkt + 64, fib)
        elif op == OP_SERVICE:
            pkt = self._packet_addr(uid)
            port = self._port_base + location * p.port_obj_bytes
            self._emit(port, port + 64, pkt, pkt + 128)
            self._touch_payload(uid)  # serialize the byte buffer out
        elif op == OP_HOST_RX:
            pkt = self._packet_addr(uid)
            conn = self._conn_base + (uid >> 25) * p.conn_obj_bytes
            self._emit(pkt, pkt + 64, pkt + 128, conn)
            # Delivery frees the packet object; the slot is reused later,
            # out of order with respect to processing (heap scatter).
            addr = self._addr_of_uid.pop(uid, None)
            if addr is not None:
                self._free.append(addr)
            buf = self._buf_of_uid.pop(uid, None)
            if buf is not None:
                self._buf_free.append(buf)

    @property
    def saturated(self) -> bool:
        return len(self.addresses) >= self.max_addresses

    def measure(self, config: CacheConfig = CacheConfig(),
                warmup: float = 0.3) -> CacheStats:
        """Steady-state miss rate of the recorded stream."""
        return CacheSim(config).run(self.addresses, warmup)


class DodAccessModel:
    """Op-stream probe for the DOD engine: compact columns, sequential sweeps."""

    #: Columns touched per op (field loads/stores on the hot path).
    SEND_COLS = 6
    RECV_COLS = 4

    def __init__(
        self,
        num_nodes: int,
        num_ifaces: int,
        num_hosts: int,
        num_flows: int,
        params: LayoutParams = LayoutParams(),
        max_addresses: int = 400_000,
    ) -> None:
        self.p = params
        self.max_addresses = max_addresses
        self.addresses: List[int] = []
        self._num_hosts = max(1, num_hosts)
        item = params.column_item_bytes
        # Sender component columns, receiver columns, then the dense FIB,
        # then per-window packet buffers.
        self._send_cols = [i * (num_flows * item + _LINE) for i in range(self.SEND_COLS)]
        base = self._send_cols[-1] + num_flows * item + _LINE
        self._recv_cols = [base + i * (num_flows * item + _LINE)
                           for i in range(self.RECV_COLS)]
        base = self._recv_cols[-1] + num_flows * item + _LINE
        self._fib_base = base
        self._fib_node_stride = num_hosts * params.fib_nexthop_bytes
        base += num_nodes * self._fib_node_stride
        self._buffer_base = base
        self._buffer_cursor = base

    def _emit(self, *addrs: int) -> None:
        if len(self.addresses) < self.max_addresses:
            self.addresses.extend(addrs)

    def _buffer_row(self) -> int:
        """Next slot of the current window's packet buffer (sequential)."""
        addr = self._buffer_cursor
        self._buffer_cursor += self.p.buffer_row_bytes
        return addr

    def __call__(self, op: int, location: int, uid: int) -> None:
        p = self.p
        if op == OP_WINDOW:
            # New window: buffers are recycled from the top (arena reset),
            # which is what keeps the working set small.
            self._buffer_cursor = self._buffer_base
            return
        flow = uid >> 25
        if op == OP_SEND:
            item = p.column_item_bytes
            self._emit(*(base + flow * item for base in self._send_cols))
            row = self._buffer_row()
            self._emit(row, row + 64)
        elif op == OP_FORWARD:
            dest_slot = ecmp_hash(flow, location) % self._num_hosts
            fib = (self._fib_base + location * self._fib_node_stride
                   + dest_slot * p.fib_nexthop_bytes)
            row = self._buffer_row()
            self._emit(row, row + 64, fib)
        elif op == OP_SERVICE:
            row = self._buffer_row()
            self._emit(row, row + 64)
        elif op == OP_HOST_RX:
            item = p.column_item_bytes
            self._emit(*(base + flow * item for base in self._recv_cols))

    @property
    def saturated(self) -> bool:
        return len(self.addresses) >= self.max_addresses

    def measure(self, config: CacheConfig = CacheConfig(),
                warmup: float = 0.3) -> CacheStats:
        """Steady-state miss rate of the recorded stream."""
        return CacheSim(config).run(self.addresses, warmup)
