"""Columnar arrival-process traffic synthesis: flows without Flow objects.

The production-workload regime (DiffServ WAN twins, storage clusters —
see docs/WORKLOADS.md) needs hundreds of thousands to millions of flows
per scenario.  Materializing a Python :class:`~repro.traffic.flow.Flow`
dataclass per flow caps that scale long before the engines do, so this
module keeps traffic columnar end to end:

* :class:`ArrivalProcess` describes one traffic aggregate — a Poisson /
  on-off / periodic / empirical-CDF arrival process over a class of
  hosts, with Zipf source/destination popularity, a flow-size
  distribution and a per-class DSCP priority mix.  It is a frozen,
  JSON-serializable value object (the unit `scenario_io` archives).
* :func:`synthesize` expands a list of processes into a
  :class:`FlowColumns`: six parallel ``int64`` NumPy columns (src, dst,
  size, start, transport, priority) sorted by start time, flow id ==
  row index.
* :class:`FlowColumns` is the one traffic table every scenario holds,
  whatever produced it (``make_scenario`` columnarizes a ``Flow`` list
  once).  Engines read its columns; indexing and iteration build
  :class:`~repro.traffic.flow.Flow` facades on demand for everything
  else, so the flow set is never materialized as objects.

Determinism discipline: every random draw comes from per-process,
per-attribute substreams consumed in arrival order, and inter-arrival
gaps are quantized to integer picoseconds *before* they accumulate, so
the synthesized columns are bit-identical regardless of ``chunk`` size
and equal to a scalar one-draw-at-a-time reference (property-tested in
``tests/traffic/test_arrivals.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import DISTRIBUTIONS, EmpiricalSize
from .flow import Flow, Transport
from .generators import zipf_weights
from ..errors import ConfigError
from ..rng import substream
from ..units import PS_PER_S

__all__ = [
    "ARRIVAL_KINDS", "ArrivalProcess", "FlowColumns", "INTERARRIVAL_CDFS",
    "synthesize",
]

#: Supported arrival-process kinds.
ARRIVAL_KINDS = ("poisson", "onoff", "periodic", "empirical")

#: The flow table's batch size: the unit the engine builder consumes
#: (:meth:`FlowColumns.iter_batches`).
DEFAULT_BATCH = 4096

#: Empirical inter-arrival CDFs (gap picoseconds, cumulative probability),
#: reusing the piecewise-linear machinery of the size distributions.
INTERARRIVAL_CDFS = {
    # Bursty WAN aggregate: trains of back-to-back arrivals separated by
    # long think times (heavy-tailed gaps, 50 ns .. 100 us).
    "wan-bursty": EmpiricalSize(
        "wan-bursty",
        [
            (50_000, 0.30),
            (200_000, 0.60),
            (1_000_000, 0.85),
            (10_000_000, 0.98),
            (100_000_000, 1.0),
        ],
    ),
    # Smooth near-periodic gaps with small jitter (1 us +- 50%).
    "smooth": EmpiricalSize(
        "smooth",
        [
            (500_000, 0.05),
            (1_000_000, 0.50),
            (1_500_000, 1.0),
        ],
    ),
}

#: RNG substream tags: one independent stream per process and attribute,
#: consumed strictly in arrival order (the chunk-invariance contract).
_KEY_GAPS = 0xA0
_KEY_ENDPOINTS = 0xA1
_KEY_SIZES = 0xA2
_KEY_CLASSES = 0xA3


@dataclass(frozen=True)
class ArrivalProcess:
    """One traffic aggregate: an arrival process over a host class.

    Attributes:
        kind: ``poisson`` (exponential gaps at ``rate_per_s``), ``onoff``
            (Poisson at ``rate_per_s`` during ``on_ps`` bursts separated
            by ``off_ps`` silences), ``periodic`` (one arrival every
            ``period_ps``), or ``empirical`` (gaps drawn from the
            ``inter_cdf`` CDF in :data:`INTERARRIVAL_CDFS`).
        src_hosts / dst_hosts: Candidate endpoints (host node ids).
        horizon_ps: Arrivals fall in ``[start_ps, start_ps+horizon_ps)``.
        rate_per_s: Arrival rate (poisson always; onoff while on).
        period_ps: Periodic gap.
        on_ps / off_ps: On-off burst/silence lengths.
        inter_cdf: Key into :data:`INTERARRIVAL_CDFS` (empirical kind).
        start_ps: Process start offset.
        src_alpha / dst_alpha: Zipf popularity exponent over the host
            class (0 = uniform); rank follows the host order given.
        size_bytes: Fixed flow size when ``size_dist`` is empty.
        size_dist: Key into :data:`~repro.traffic.DISTRIBUTIONS`.
        transport: Transport of every flow in the aggregate.
        priority_mix: Per-class weights; each arrival samples its DSCP
            class (= Flow.priority) from this distribution.  ``(1.0,)``
            pins everything to class 0.
        max_flows: Optional hard cap on synthesized arrivals.
        label: Free-form tag used in reports.
    """

    kind: str
    src_hosts: Tuple[int, ...]
    dst_hosts: Tuple[int, ...]
    horizon_ps: int
    rate_per_s: float = 0.0
    period_ps: int = 0
    on_ps: int = 0
    off_ps: int = 0
    inter_cdf: str = ""
    start_ps: int = 0
    src_alpha: float = 0.0
    dst_alpha: float = 0.0
    size_bytes: int = 0
    size_dist: str = ""
    transport: Transport = Transport.DCTCP
    priority_mix: Tuple[float, ...] = (1.0,)
    max_flows: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "src_hosts", tuple(int(h) for h in self.src_hosts))
        object.__setattr__(self, "dst_hosts", tuple(int(h) for h in self.dst_hosts))
        object.__setattr__(self, "priority_mix",
                           tuple(float(w) for w in self.priority_mix))
        object.__setattr__(self, "transport", Transport(self.transport))
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival kind {self.kind!r}; known: "
                f"{', '.join(ARRIVAL_KINDS)}")
        if not self.src_hosts or not self.dst_hosts:
            raise ConfigError("arrival process needs src and dst hosts")
        if len(set(self.dst_hosts)) == 1 and self.dst_hosts[0] in self.src_hosts:
            raise ConfigError(
                "arrival process cannot pick a destination distinct from "
                f"source: only destination {self.dst_hosts[0]} is also a source")
        if self.horizon_ps <= 0:
            raise ConfigError("arrival horizon must be positive")
        if self.start_ps < 0:
            raise ConfigError("arrival start must be non-negative")
        if self.kind in ("poisson", "onoff") and self.rate_per_s <= 0:
            raise ConfigError(f"{self.kind} arrivals need rate_per_s > 0")
        if self.kind == "onoff" and (self.on_ps <= 0 or self.off_ps < 0):
            raise ConfigError("onoff arrivals need on_ps > 0 and off_ps >= 0")
        if self.kind == "periodic" and self.period_ps <= 0:
            raise ConfigError("periodic arrivals need period_ps > 0")
        if self.kind == "empirical" and self.inter_cdf not in INTERARRIVAL_CDFS:
            raise ConfigError(
                f"unknown inter-arrival CDF {self.inter_cdf!r}; known: "
                f"{', '.join(sorted(INTERARRIVAL_CDFS))}")
        if self.size_dist:
            if self.size_dist not in DISTRIBUTIONS:
                raise ConfigError(
                    f"unknown size distribution {self.size_dist!r}")
        elif self.size_bytes <= 0:
            raise ConfigError("arrival process needs size_bytes > 0 "
                              "or a size_dist")
        if not self.priority_mix or any(w < 0 for w in self.priority_mix):
            raise ConfigError("priority_mix needs non-negative weights")
        if sum(self.priority_mix) <= 0:
            raise ConfigError("priority_mix needs positive total weight")
        if self.max_flows is not None and self.max_flows <= 0:
            raise ConfigError("max_flows must be positive when set")

    def num_classes(self) -> int:
        return len(self.priority_mix)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "transport":
                value = value.name.lower()
            elif isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ArrivalProcess":
        kwargs = dict(doc)
        if isinstance(kwargs.get("transport"), str):
            kwargs["transport"] = Transport[kwargs["transport"].upper()]
        return cls(**kwargs)


# --- sampling helpers (all consume their stream in arrival order) ----------


def _cum_weights(n: int, alpha: float) -> np.ndarray:
    """Cumulative endpoint popularity; last entry pinned to exactly 1."""
    if alpha > 0:
        cum = np.cumsum(zipf_weights(n, alpha))
    else:
        cum = np.arange(1, n + 1, dtype=np.float64) / n
    cum[-1] = 1.0
    return cum


def _gaps(proc: ArrivalProcess, rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` integer inter-arrival gaps (>= 1 ps), in stream order.

    Gaps are quantized to integer picoseconds *per gap*, so arrival
    times accumulate with exact integer addition — the property that
    makes chunked and scalar generation bit-identical (float cumsum
    would re-associate across chunk boundaries).
    """
    if proc.kind == "empirical":
        return INTERARRIVAL_CDFS[proc.inter_cdf].sample(rng, k)
    mean_gap_ps = PS_PER_S / proc.rate_per_s
    u = rng.random(k)
    gaps = np.rint(-np.log1p(-u) * mean_gap_ps)
    # A gap past the horizon ends the stream regardless of its exact
    # value; clamping there keeps ultra-low rates finite (a raw
    # exponential draw at micro-rates overflows the int64 cast).
    gaps = np.minimum(gaps, float(proc.horizon_ps + 1))
    return np.maximum(1, gaps).astype(np.int64)


def _arrival_times(proc: ArrivalProcess, rng: np.random.Generator,
                   chunk: int) -> np.ndarray:
    """Absolute arrival times (int64 ps), chunk-size invariant."""
    limit = proc.max_flows
    if proc.kind == "periodic":
        n = (proc.horizon_ps + proc.period_ps - 1) // proc.period_ps
        if limit is not None:
            n = min(n, limit)
        return proc.start_ps + proc.period_ps * np.arange(n, dtype=np.int64)

    out: List[np.ndarray] = []
    active = 0  # accumulated active-time (== wall time except onoff)
    count = 0
    on_ps, off_ps = proc.on_ps, proc.off_ps
    while True:
        k = chunk if limit is None else min(chunk, limit - count)
        if k <= 0:
            break
        rel = active + np.cumsum(_gaps(proc, rng, k))
        active = int(rel[-1])
        if proc.kind == "onoff":
            # Deterministic on/off gating: active time a lands at wall
            # time a + (completed off periods); arrivals never fall in a
            # silence by construction.
            rel = rel + (rel // on_ps) * off_ps
        keep = rel < proc.horizon_ps
        kept = rel[keep]
        out.append(kept)
        count += kept.size
        if kept.size < k:
            break  # horizon crossed (gaps are positive => monotone)
    if not out:
        return np.empty(0, dtype=np.int64)
    return proc.start_ps + np.concatenate(out)


def _endpoints(proc: ArrivalProcess, rng: np.random.Generator,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Source/destination per arrival: Zipf/uniform popularity, src != dst.

    Each arrival consumes exactly two uniforms (src then dst).  A
    destination colliding with its source advances cyclically through
    the destination class — deterministic, no extra draws.
    """
    src_arr = np.asarray(proc.src_hosts, dtype=np.int64)
    dst_arr = np.asarray(proc.dst_hosts, dtype=np.int64)
    u = rng.random((n, 2))
    src_cum = _cum_weights(len(src_arr), proc.src_alpha)
    dst_cum = _cum_weights(len(dst_arr), proc.dst_alpha)
    src_idx = np.minimum(np.searchsorted(src_cum, u[:, 0], side="right"),
                         len(src_arr) - 1)
    dst_idx = np.minimum(np.searchsorted(dst_cum, u[:, 1], side="right"),
                         len(dst_arr) - 1)
    src = src_arr[src_idx]
    m = len(dst_arr)
    collide = dst_arr[dst_idx] == src
    guard = 0
    while collide.any():
        dst_idx = np.where(collide, (dst_idx + 1) % m, dst_idx)
        collide = dst_arr[dst_idx] == src
        guard += 1
        if guard > m:  # pragma: no cover - excluded by __post_init__
            raise ConfigError("cannot resolve src/dst collision")
    return src, dst_arr[dst_idx]


def _sizes(proc: ArrivalProcess, rng: np.random.Generator, n: int) -> np.ndarray:
    if proc.size_dist:
        return DISTRIBUTIONS[proc.size_dist].sample(rng, n)
    return np.full(n, proc.size_bytes, dtype=np.int64)


def _classes(proc: ArrivalProcess, rng: np.random.Generator, n: int) -> np.ndarray:
    mix = np.asarray(proc.priority_mix, dtype=np.float64)
    if len(mix) == 1:
        return np.zeros(n, dtype=np.int64)
    cum = np.cumsum(mix / mix.sum())
    cum[-1] = 1.0
    u = rng.random(n)
    return np.minimum(np.searchsorted(cum, u, side="right"),
                      len(mix) - 1).astype(np.int64)


def synthesize(processes: Sequence[ArrivalProcess], seed: int, *,
               chunk: int = 8192) -> "FlowColumns":
    """Expand arrival processes into a :class:`FlowColumns`.

    Flows from all processes merge in start-time order (ties broken by
    process index, then arrival sequence — fully deterministic); flow id
    equals row index.  ``chunk`` is the synthesis granularity and does
    not affect the output.
    """
    if not processes:
        raise ConfigError("synthesize needs at least one arrival process")
    if chunk <= 0:
        raise ConfigError("chunk must be positive")
    parts = []
    for idx, proc in enumerate(processes):
        times = _arrival_times(proc, substream(seed, _KEY_GAPS, idx), chunk)
        n = times.size
        if n == 0:
            continue
        src, dst = _endpoints(proc, substream(seed, _KEY_ENDPOINTS, idx), n)
        sizes = _sizes(proc, substream(seed, _KEY_SIZES, idx), n)
        prio = _classes(proc, substream(seed, _KEY_CLASSES, idx), n)
        transport = np.full(n, int(proc.transport), dtype=np.int64)
        parts.append((times, src, dst, sizes, transport, prio, idx))
    if not parts:
        raise ConfigError(
            "arrival processes synthesized no flows (horizon too short "
            "or rate too low)")
    start = np.concatenate([p[0] for p in parts])
    src = np.concatenate([p[1] for p in parts])
    dst = np.concatenate([p[2] for p in parts])
    size = np.concatenate([p[3] for p in parts])
    transport = np.concatenate([p[4] for p in parts])
    prio = np.concatenate([p[5] for p in parts])
    proc_idx = np.concatenate(
        [np.full(p[0].size, p[6], dtype=np.int64) for p in parts])
    seq = np.concatenate(
        [np.arange(p[0].size, dtype=np.int64) for p in parts])
    order = np.lexsort((seq, proc_idx, start))
    return FlowColumns(
        src=src[order], dst=dst[order], size_bytes=size[order],
        start_ps=start[order], transport=transport[order],
        priority=prio[order],
    )


#: Transport codes are dense from 0, so a range check is membership.
_MAX_TRANSPORT = max(Transport)

#: The flow table's columns, in block-row order.
_COLUMNS = ("src", "dst", "size_bytes", "start_ps", "transport", "priority")
_SRC, _DST, _SIZE, _START, _TRANSPORT, _PRIORITY = range(len(_COLUMNS))


class FlowColumns:
    """A scenario's traffic: six ``int64`` columns (src, dst, size_bytes,
    start_ps, transport, priority), flow id == row index.

    The columns are the rows of one ``(6, n)`` block, so a check or a
    read over every column is one NumPy call.  Engines read the columns —
    the DOD builder through :meth:`iter_batches`, the per-flow lists of
    the send path and of the OOD reference through :meth:`columns`.
    Everything else reads it as a sequence: ``len``, integer indexing (a
    :class:`Flow` facade built on demand), iteration (transient facades
    in flow-id order), truthiness.  Scalar reads cross the same
    plain-Python boundary as the ECS tables (no NumPy scalars escape),
    so traces stay byte-identical whichever path reads a flow.
    """

    __slots__ = ("_block",)

    def __init__(self, src, dst, size_bytes, start_ps, transport,
                 priority) -> None:
        columns = (src, dst, size_bytes, start_ps, transport, priority)
        if len({len(c) for c in columns}) != 1:
            raise ConfigError("flow columns must have equal length")
        self._block = block = np.array(columns, dtype=np.int64)
        if block.shape[1]:
            lo = block.min(axis=1).tolist()
            if bool((block[_SRC] == block[_DST]).any()):
                raise ConfigError("flow columns contain src == dst")
            if lo[_SIZE] <= 0:
                raise ConfigError("flow columns contain non-positive sizes")
            if lo[_START] < 0:
                raise ConfigError("flow columns contain negative starts")
            if lo[_TRANSPORT] < 0 or block[_TRANSPORT].max() > _MAX_TRANSPORT:
                raise ConfigError("flow columns contain unknown transports")
            if lo[_PRIORITY] < 0:
                raise ConfigError("flow columns contain negative priorities")

    # --- sequence protocol --------------------------------------------------

    def __len__(self) -> int:
        return self._block.shape[1]

    def __bool__(self) -> bool:
        return self._block.shape[1] > 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"flow id {i} out of range for {n} flows")
        src, dst, size, start, transport, priority = (
            self._block[:, i].tolist())
        return Flow(i, src, dst, size, start, Transport(transport), priority)

    def __iter__(self) -> Iterator[Flow]:
        for i, (src, dst, size, start, transport, priority) in enumerate(
                zip(*self._block.tolist())):
            yield Flow(i, src, dst, size, start, Transport(transport),
                       priority)

    def __repr__(self) -> str:
        return f"FlowColumns(n={len(self)})"

    # --- columnar reads -----------------------------------------------------

    def iter_batches(self) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
        """Yield ``(first_flow_id, columns)`` batches of
        :data:`DEFAULT_BATCH` flows in flow-id order.

        Consumers must not mutate the yielded arrays.
        """
        n = len(self)
        bs = DEFAULT_BATCH
        for s in range(0, n, bs):
            yield s, dict(zip(_COLUMNS, self._block[:, s:s + bs]))

    def priority_list(self) -> List[int]:
        """flow_id -> class, as plain ints (the classifier table)."""
        return self._block[_PRIORITY].tolist()

    @property
    def has_udp(self) -> bool:
        return bool((self._block[_TRANSPORT] == int(Transport.UDP)).any())

    def columns(self) -> Dict[str, np.ndarray]:
        """The full column arrays (src/dst/size_bytes/start_ps/transport/
        priority).  Views into internal storage — callers must not mutate;
        copy before editing (workload builders that expand or re-merge
        flows do exactly that)."""
        return dict(zip(_COLUMNS, self._block))

    # --- validation / serialization ----------------------------------------

    def validate_against(self, hosts: Sequence[int]) -> "FlowColumns":
        """Check that every flow runs between two of ``hosts``.

        Flow ids are dense row indices, so uniqueness and density hold by
        construction; only endpoint membership needs checking.  The check
        is one bounds test (viewed unsigned, a negative id is out of
        range too) and one indexed is-host mask over both endpoint
        columns; the first offending flow is named only on failure.
        """
        if not len(self):
            return self
        ends = self._block[:_SIZE]
        is_host = np.zeros(max(hosts, default=-1) + 1, dtype=bool)
        is_host[list(hosts)] = True
        if (ends.view(np.uint64).max() < len(is_host)
                and is_host[ends].all()):
            return self
        src, dst = ends
        ok = np.isin(src, hosts) & np.isin(dst, hosts)
        bad = int(np.flatnonzero(~ok)[0])
        raise ConfigError(
            f"flow {bad} references non-host endpoints "
            f"({int(src[bad])} -> {int(dst[bad])})")

    def to_dict(self) -> Dict[str, Any]:
        src, dst, size, start, transport, priority = self._block.tolist()
        return {
            "src": src, "dst": dst, "size": size, "start_ps": start,
            "transport": transport, "priority": priority,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FlowColumns":
        """The inverse of :meth:`to_dict`; a ``batch_size`` field, which
        older documents carry, is ignored."""
        return cls(
            src=doc["src"], dst=doc["dst"], size_bytes=doc["size"],
            start_ps=doc["start_ps"], transport=doc["transport"],
            priority=doc["priority"],
        )

    @classmethod
    def from_flows(cls, flows: Sequence[Flow]) -> "FlowColumns":
        """Columnarize a materialized flow list (ids must be dense 0..n-1,
        so a duplicate id is refused too)."""
        rows = [(f.flow_id, f.src, f.dst, f.size_bytes, f.start_ps,
                 f.transport, f.priority) for f in flows]
        ids, src, dst, size, start, transport, priority = (
            zip(*rows) if rows else ((),) * 7)
        if ids != tuple(range(len(ids))):
            i = next(i for i, fid in enumerate(ids) if fid != i)
            raise ConfigError(
                "FlowColumns needs dense flow ids equal to position; "
                f"got id {ids[i]} at position {i}")
        return cls(src, dst, size, start, transport, priority)
