"""Metrics: traces, results, Wasserstein distances."""

from .trace import Entry, TraceKind, TraceLevel, TraceRecorder
from .results import EventCounts, FlowResult, SimResults
from .wasserstein import load_vector_distance, normalized_w1, wasserstein_1d
from .traceview import hops, packet_journey
from .timeline import (
    chrome_trace_events, run_manifest, run_record, run_report,
    validate_chrome_trace, validate_timeline_file, write_flight,
    write_manifest, write_timeline,
)
from .live import ClusterWatchdog, LivePlane

__all__ = [
    "Entry", "TraceKind", "TraceLevel", "TraceRecorder",
    "EventCounts", "FlowResult", "SimResults",
    "load_vector_distance", "normalized_w1", "wasserstein_1d",
    "hops", "packet_journey",
    "chrome_trace_events", "write_timeline", "write_flight",
    "validate_chrome_trace", "validate_timeline_file",
    "run_record", "run_report",
    "run_manifest", "write_manifest",
    "LivePlane", "ClusterWatchdog",
]
