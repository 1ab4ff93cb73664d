"""Deliberate ordering-bug injection for harness self-validation.

A conformance harness that has never caught a bug proves nothing.  This
module plants the exact bug class the harness exists for — a
partition/order-dependent divergence — and the test suite asserts the
fuzz loop catches it within a bounded number of runs and shrinks it to
a small repro.

Six bug classes are plantable:

* :func:`flipped_transmit_order` flips the deterministic tie-break
  inside the transmit merge-sort: packets staged at the same
  ``(time, priority)`` on one egress port are replayed in *reversed*
  packet-identity order.  It patches the TransmitSystem's
  ``transmit_sort`` hook, which the TransmitSystem reads once per
  window, so every DOD engine the oracles run is infected.
* :func:`unstable_transmit_sort` replaces the same hook with an
  ordering-contract sort that is **unstable** on ties: it
  orders only by ``(time, priority)`` after reversing the staged list,
  so equal-key packets come out in reversed arrival order — the classic
  symptom of swapping a stable sort for an unstable one (or of trusting
  ``np.argsort`` without ``kind="stable"``).
* :func:`stale_window_index` corrupts the columnar event store's
  window-occupancy index (the O(1) ``peek_next_window`` structure):
  registration of a newly occupied window lags the column append, so a
  window whose bucket holds a single entry is invisible to the
  scheduler.  Entries starve — the engine skips or never runs their
  window — which is exactly the failure mode of letting a derived index
  drift from the data it summarizes.
* :func:`torn_shm_read` models a torn shared-memory frame read in the
  process transport (:mod:`repro.cluster.shm`): the record decoder
  loses the last record of any multi-record frame — exactly what a
  reader racing the writer past the commit word would observe.  Only
  the pair rings are infected (the LocalTransport never decodes
  frames), so catching it requires a fuzz oracle set that runs the
  process transport (e.g. ``("ood", "cluster-shm-2")``).
* :func:`skewed_arrival_stream` corrupts the columnar arrival engine's
  first traffic batch: the batch's start times are rebuilt from their
  inter-arrival gaps with the first gap inflated by 7 us — a
  unit-conversion off-by-a-factor in the rate math.  Only consumers of
  the *batch* iterator are infected (the DOD builder's columnar path);
  the OOD baseline iterates flows scalar-wise and stays a truthful
  reference, so catching it requires fuzz specs whose traffic kind is
  columnar (``wan_twin`` / ``storage``).
* :func:`stale_cache_delta` corrupts the window-signature memoization
  cache (:mod:`repro.core.memo`): the delta recorded on a cache miss has
  one scatter-write perturbed (the sequence number of the first staged
  cross-window arrival is off by one), so every cache *hit* replays a
  subtly wrong write-set.  The executed windows — including the very
  window the delta was captured from — are all correct; only the
  fast-forwarded replays diverge.  This is the stale/corrupt-cache-entry
  failure mode the memo's replay-based validation exists for, and
  catching it requires an oracle set that actually runs the
  fast-forward engine (e.g. ``("ood", "dons-ffwd")``).

Both bugs mirror real failure modes (iterating a hash map / racing
commit order / unstable sorting instead of the ordering-contract key):
the simulation stays physically valid — every reference-free invariant
still holds — but the queue each tied packet sees changes, so service
order, and therefore the byte trace, diverges from the OOD reference
wherever two packets collide at the same instant.  Only the
differential oracle can see it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from ..cluster import shm as shm_mod
from ..core import events as events_mod
from ..core import memo as memo_mod
from ..core.systems import transmit as transmit_mod
from ..traffic import arrivals as arrivals_mod
from ..units import us
from ..core.window import Staged
from ..protocols.packet import F_FLOW, F_ISACK, F_SEQ, Row


def _flipped_key(a: Tuple[int, int, Row]):
    return (a[0], a[1], -a[2][F_FLOW], -a[2][F_ISACK], -a[2][F_SEQ])


def _flipped_transmit_sort(entries: List[Staged]) -> List[Staged]:
    """The transmit tie-break with packet identity reversed."""
    entries.sort(key=_flipped_key)
    return entries


def _unstable_sort(entries: List[Staged]) -> List[Staged]:
    """An order-contract sort that is unstable on (time, prio) ties.

    Reversing first and then sorting by the truncated key is exactly
    what an unstable sort may legally do to equal keys — ties surface
    in reversed staging order instead of packet-identity order.
    """
    entries.reverse()
    entries.sort(key=lambda a: (a[0], a[1]))
    return entries


@contextmanager
def flipped_transmit_order() -> Iterator[None]:
    """Patch the DOD transmit tie-break with the reversed ordering.

    Affects every in-process DOD engine (plain, checkpoint, cluster
    agents on the local transport; forked process agents inherit the
    patch too) through the ``transmit_sort`` hook.  The OOD baseline is
    untouched, so it stays a truthful reference while the patch is live.
    """
    original = transmit_mod.transmit_sort
    transmit_mod.transmit_sort = _flipped_transmit_sort
    try:
        yield
    finally:
        transmit_mod.transmit_sort = original


def _stale_register_window(events, win: int) -> None:
    """Occupancy registration that lags the column append by one entry.

    A window already indexed stays indexed; a window whose bucket holds
    two or more entries gets indexed (late, on the second insert); but a
    *singleton* bucket is never registered — the index claims the window
    is empty while its columns hold work.  Deterministic per engine run,
    no state outside the store itself.
    """
    if win in events._queued:
        return
    bucket = events._buckets.get(win)
    if bucket is not None and len(bucket) >= 2:
        events_mod._register_window(events, win)


@contextmanager
def stale_window_index() -> Iterator[None]:
    """Plant the stale-occupancy-index bug in the columnar event store.

    Patches the module-level ``register_window`` hook that
    :meth:`EventColumns.insert` resolves at call time, so every DOD
    engine (plain, checkpoint, cluster agents) is
    infected; the OOD baseline keeps its own heap and stays a truthful
    reference.  Windows whose only pending work is a single entry — a
    lone RTO wakeup, a solitary ACK arrival — vanish from the
    scheduler's view, their entries starve, and the byte trace diverges
    wherever the reference ran them.
    """
    original = events_mod.register_window
    events_mod.register_window = _stale_register_window
    try:
        yield
    finally:
        events_mod.register_window = original


def _bump_seq(row: Row) -> Row:
    return row[:F_SEQ] + (row[F_SEQ] + 1,) + row[F_SEQ + 1:]


def _put(items: Tuple, i: int, item) -> Tuple:
    return items[:i] + (item,) + items[i + 1:]


def _corrupt_delta(delta: "memo_mod.WindowDelta") -> "memo_mod.WindowDelta":
    """Perturb exactly one scatter-write of a freshly captured delta.

    Preferred target: the first staged cross-window *arrival* — its
    packet row's sequence number is bumped by one, so a cache hit
    forwards a packet that was never sent.  Windows without staged
    arrivals fall back to the first queued row of a port's post
    encoding, then to a receiver's ``expected`` write; a delta with none
    of the three is left intact (nothing in it can diverge).  Every
    member is reached by the names ``repro.core.memo`` gives it.
    """
    for i, staged in enumerate(delta.staged):
        if staged.row is not None:
            return delta._replace(staged=_put(
                delta.staged, i, staged._replace(row=_bump_seq(staged.row))))
    for i, port in enumerate(delta.ports):
        queues = port.post.queues
        for cls, rows in enumerate(queues):
            if rows:
                post = port.post._replace(queues=_put(
                    queues, cls, (_bump_seq(rows[0]),) + rows[1:]))
                return delta._replace(ports=_put(
                    delta.ports, i, port._replace(post=post)))
    for i, write in enumerate(delta.flows):
        if write.field == "expected":
            return delta._replace(flows=_put(
                delta.flows, i, write._replace(value=write.value + 1)))
    return delta


@contextmanager
def stale_cache_delta() -> Iterator[None]:
    """Plant a corrupt-cache-entry bug in the window-signature memo.

    Patches the module-level ``capture_filter`` hook that
    :meth:`~repro.core.memo.WindowMemoCache.run_window` resolves at call
    time just before storing a miss's captured delta, so every engine
    with fast-forwarding enabled records poisoned cache entries while
    the patch is live.  Executed windows stay byte-correct — only cache
    *hits* replay the corruption — so catching it requires an oracle set
    that runs the fast-forward engine on a workload with repeating
    window signatures (the generator's ``steady`` traffic kind exists
    for exactly this).  The memo's own replay-based validation detects
    the poisoned entry on the Nth hit and evicts it, but the hits
    already applied have diverged the trace — which the differential
    oracle then reports.
    """
    original = memo_mod.capture_filter
    memo_mod.capture_filter = _corrupt_delta
    try:
        yield
    finally:
        memo_mod.capture_filter = original


@contextmanager
def torn_shm_read() -> Iterator[None]:
    """Plant a torn-frame read in the shared-memory batch decoder.

    Patches the module-level ``unpack_records`` hook every frame decode
    resolves at call time (a worker reading a peer's window frame): any
    multi-record frame silently loses its final record, which is what a
    reader that raced the writer past the commit word would see — the
    header's count published before the payload's tail landed.  Fork-
    started worker processes inherit the live patch, so the whole
    cluster is infected.  The LocalTransport never decodes frames and
    stays a truthful reference; the lost packet surfaces as a trace
    divergence (and conservation violations) wherever the reference
    delivered it.
    """
    original = shm_mod.unpack_records

    def torn(view, count):
        records = original(view, count)
        if len(records) > 1:
            del records[-1]
        return records

    shm_mod.unpack_records = torn
    try:
        yield
    finally:
        shm_mod.unpack_records = original


def _skewed_batch(start: int, cols: Dict) -> Dict:
    """Corrupt the first arrival batch's inter-arrival structure.

    Rebuilds the batch's start times from their consecutive gaps with
    the first gap inflated by 7 us — the classic off-by-a-unit in a
    rate/interval conversion (seconds vs the scheduler's picoseconds,
    or a duty-cycle factor applied twice).  Every row after the first
    shifts later by the same skew; the times stay sorted and
    non-negative, so nothing crashes — only the byte trace moves.
    """
    if start != 0 or len(cols["start_ps"]) < 2:
        return cols
    starts = cols["start_ps"].copy()
    starts[1:] += us(7)
    out = dict(cols)
    out["start_ps"] = starts
    return out


@contextmanager
def skewed_arrival_stream() -> Iterator[None]:
    """Plant a skewed-interarrival bug in the columnar arrival engine.

    Patches the module-level ``batch_filter`` hook that
    :meth:`~repro.traffic.FlowColumns.iter_batches` resolves at call
    time, so every engine that consumes traffic *columnarly* — the DOD
    builder's batch path, and therefore checkpoint
    and cluster oracles too — sees the first batch's arrivals displaced
    by a 7 us inter-arrival skew.  The OOD baseline materializes flows
    through scalar iteration, which never touches the batch hook, so it
    stays a truthful reference.  Catching the bug requires a fuzz spec
    whose traffic is columnar (the generator's ``wan_twin`` / ``storage``
    kinds); per-flow traffic kinds are immune by construction, which is
    exactly the point — a harness that only ever fuzzes ``Flow`` lists
    would ship this bug.
    """
    original = arrivals_mod.batch_filter
    arrivals_mod.batch_filter = _skewed_batch
    try:
        yield
    finally:
        arrivals_mod.batch_filter = original


@contextmanager
def unstable_transmit_sort() -> Iterator[None]:
    """Patch the transmit tie-break hook with an unstable sort.

    Every DOD engine is infected, traced or not (e.g. ``("ood",
    "dons")`` or ``("ood", "dons-notrace")`` catch it); the OOD
    baseline keeps the true ordering and stays a truthful reference.
    """
    original = transmit_mod.transmit_sort
    transmit_mod.transmit_sort = _unstable_sort
    try:
        yield
    finally:
        transmit_mod.transmit_sort = original
