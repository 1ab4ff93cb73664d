"""Metric primitives of the telemetry layer: gauges and histograms.

The :class:`~repro.core.instrument.InstrumentationBus` holds the named
counters; this module adds the two shapes a distributed run needs on
top of them and packages both behind one :class:`MetricsRegistry` with
a ``snapshot()``/``merge()`` protocol:

* **gauges** — last-written values ("agent 1 waited 3.2 ms at the
  barrier this run").  On a cluster merge gauges are *prefixed* with the
  child tag so per-agent values stay distinguishable — barrier-wait and
  busy-time gauges are what :func:`repro.partition.refit_cluster_spec`
  consumes to close the measure → repartition loop.
* **fixed-bucket histograms** — distributions whose per-sample cost must
  stay O(log buckets) with zero allocation (queue depth at window end,
  per-window link utilization, flow completion times).  Bucket
  boundaries are fixed at creation, so two machines' histograms of the
  same metric merge by adding counts — the snapshot of a child agent
  rides the existing transport report path and folds into the cluster
  registry without resampling.

Everything a snapshot contains is plain ``dict``/``list``/numbers, so it
pickles across a ProcessTransport pipe and serializes to the JSON/CSV
exporters (:mod:`repro.metrics.timeline`) unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Histogram", "MetricsRegistry",
    "QUEUE_DEPTH_BUCKETS", "UTILIZATION_BUCKETS", "FCT_US_BUCKETS",
    "WAIT_MS_BUCKETS", "MEMO_APPLY_MS_BUCKETS",
]

#: Queue depth at window end, bytes (powers of four up to 64 MB).
QUEUE_DEPTH_BUCKETS: Tuple[float, ...] = tuple(
    4 ** k for k in range(5, 14)
)
#: Per-link utilization of one window, fraction of line rate.
UTILIZATION_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0,
)
#: Flow completion times, microseconds (log-ish sweep).
FCT_US_BUCKETS: Tuple[float, ...] = (
    10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000, 200000,
)
#: Barrier-wait / idle times, milliseconds.
WAIT_MS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000,
)
#: Wall-clock of a memo cycle jump per skipped window, milliseconds —
#: the fast-forward path's cost; compare against the ``window`` spans of
#: executed windows to see the speedup (docs/MEMOIZATION.md).
MEMO_APPLY_MS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10,
)


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds samples ``<=
    buckets[i]`` (and above the previous bound); the final slot is the
    overflow bucket.  ``record`` is branch-free apart from one bisect."""

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def record(self, value: float, n: int = 1) -> None:
        self.counts[bisect_left(self.buckets, value)] += n
        self.count += n
        self.sum += value * n

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket bound holding the q-quantile (0 <= q <= 1);
        overflow samples report the top bound."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return (self.buckets[i] if i < len(self.buckets)
                        else self.buckets[-1])
        return self.buckets[-1]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError(
                f"histogram bucket mismatch: {snap['buckets']} vs "
                f"{list(self.buckets)}"
            )
        for i, c in enumerate(snap["counts"]):
            self.counts[i] += c
        self.count += snap["count"]
        self.sum += snap["sum"]


class MetricsRegistry:
    """Named gauges and histograms with snapshot/merge; counters live on
    the :class:`~repro.core.instrument.InstrumentationBus`."""

    __slots__ = ("gauges", "_hists")

    def __init__(self) -> None:
        self.gauges: Dict[str, float] = {}
        self._hists: Dict[str, Histogram] = {}

    # --- writers ----------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Create-or-get; ``buckets`` is required on first use."""
        hist = self._hists.get(name)
        if hist is None:
            if buckets is None:
                raise ValueError(
                    f"histogram {name!r} does not exist and no buckets given"
                )
            hist = self._hists[name] = Histogram(buckets)
        return hist

    def record(self, name: str, value: float,
               buckets: Optional[Sequence[float]] = None) -> None:
        self.histogram(name, buckets).record(value)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return self._hists

    def __bool__(self) -> bool:
        return bool(self.gauges or self._hists)

    # --- snapshot / merge -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view: picklable across transports, JSON-ready."""
        return {
            "gauges": dict(self.gauges),
            "histograms": {n: h.snapshot() for n, h in self._hists.items()},
        }

    def merge(self, snap: Dict[str, Any], prefix: str = "") -> None:
        """Fold a snapshot in: histograms are *summed* under their own
        names (cluster-wide distributions); gauges are prefixed
        (per-agent values must stay per-agent)."""
        for name, value in snap.get("gauges", {}).items():
            self.gauge(prefix + name, value)
        for name, hsnap in snap.get("histograms", {}).items():
            self.histogram(name, hsnap["buckets"]).merge_snapshot(hsnap)
