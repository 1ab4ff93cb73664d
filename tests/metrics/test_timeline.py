"""Telemetry exporters: Chrome-trace timelines, the run report, manifests."""

import json

import pytest

from repro.core.engine import DodEngine
from repro.core.instrument import InstrumentationBus
from repro.errors import ReproError
from repro.metrics.timeline import (
    MANIFEST_FORMAT,
    TELEMETRY_SCHEMA_VERSION,
    chrome_trace_events,
    run_manifest,
    run_record,
    run_report,
    validate_chrome_trace,
    validate_timeline_file,
    write_manifest,
    write_timeline,
)
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import fixed_flows


def _bus_with(*spans):
    bus = InstrumentationBus()
    bus.telemetry = True
    for span in spans:
        bus.span_add(*span)
    return bus


class TestChromeTraceEvents:
    def test_empty_bus_yields_no_events(self):
        assert chrome_trace_events(InstrumentationBus()) == []

    def test_nesting_emits_matched_pairs(self):
        bus = _bus_with(
            ("run", 0.0, 1.0, "run"),
            ("window", 0.1, 0.4, "window", {"index": 0}),
            ("ack", 0.1, 0.2, "system"),
        )
        events = validate_chrome_trace(chrome_trace_events(bus))
        names = [(e["ph"], e["name"]) for e in events if e["ph"] != "M"]
        assert names == [("B", "run"), ("B", "window"), ("B", "ack"),
                         ("E", "ack"), ("E", "window"), ("E", "run")]

    def test_child_overhanging_parent_is_clamped(self):
        """Clock jitter can make a child end after its parent; the
        exporter clamps so validation still sees proper nesting."""
        bus = _bus_with(
            ("window", 0.0, 1.0, "window"),
            ("ack", 0.5, 1.5, "system"),  # overhangs
        )
        events = validate_chrome_trace(chrome_trace_events(bus))
        ends = {e["name"]: e["ts"] for e in events if e["ph"] == "E"}
        assert ends["ack"] <= ends["window"]

    def test_agent_prefix_selects_process_track(self):
        bus = _bus_with(
            ("a0:window", 0.0, 1.0, "window"),
            ("a1:window", 0.0, 1.0, "window"),
            ("a1:barrier-wait", 0.5, 1.0, "cluster"),
            ("agree", 0.0, 0.1, "cluster"),
        )
        events = chrome_trace_events(bus)
        by_name = {e["name"]: e for e in events if e["ph"] == "B"}
        assert by_name["window"]["pid"] in (1, 2)
        # coordinator-recorded per-agent slices go on thread 1 so they
        # cannot break the agent's own span nesting on thread 0
        assert by_name["barrier-wait"]["pid"] == 2
        assert by_name["barrier-wait"]["tid"] == 1
        assert by_name["agree"]["pid"] == 0
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {
            "run", "agent 0", "agent 1"}

    def test_timestamps_rebased_to_zero_microseconds(self):
        bus = _bus_with(("window", 5.0, 5.001, "window"))
        events = [e for e in chrome_trace_events(bus) if e["ph"] != "M"]
        assert events[0]["ts"] == 0
        assert events[1]["ts"] == pytest.approx(1000, abs=1)


class TestValidation:
    def test_rejects_missing_trace_events(self):
        with pytest.raises(ReproError, match="traceEvents"):
            validate_chrome_trace({"foo": 1})

    def test_rejects_missing_keys(self):
        with pytest.raises(ReproError, match="lacks"):
            validate_chrome_trace([{"ph": "B", "ts": 0, "pid": 0}])

    def test_rejects_non_monotone_ts(self):
        events = [
            {"ph": "B", "name": "a", "ts": 5, "pid": 0, "tid": 0},
            {"ph": "E", "name": "a", "ts": 1, "pid": 0, "tid": 0},
        ]
        with pytest.raises(ReproError, match="monotone"):
            validate_chrome_trace(events)

    def test_rejects_unmatched_end(self):
        events = [{"ph": "E", "name": "a", "ts": 0, "pid": 0, "tid": 0}]
        with pytest.raises(ReproError, match="unmatched"):
            validate_chrome_trace(events)

    def test_rejects_unclosed_begin(self):
        events = [{"ph": "B", "name": "a", "ts": 0, "pid": 0, "tid": 0}]
        with pytest.raises(ReproError, match="unclosed"):
            validate_chrome_trace(events)

    def test_rejects_crossed_pairs(self):
        events = [
            {"ph": "B", "name": "a", "ts": 0, "pid": 0, "tid": 0},
            {"ph": "B", "name": "b", "ts": 1, "pid": 0, "tid": 0},
            {"ph": "E", "name": "a", "ts": 2, "pid": 0, "tid": 0},
        ]
        with pytest.raises(ReproError, match="closes"):
            validate_chrome_trace(events)


@pytest.fixture(scope="module")
def scenario():
    topo = dumbbell(2)
    flows = fixed_flows(topo.hosts, n_flows=4, size_bytes=20_000)
    return make_scenario(topo, flows)


@pytest.fixture(scope="module")
def telemetered_run(scenario):
    engine = DodEngine(scenario, telemetry=True)
    engine.run()
    return engine


class TestSingleEngineExport:
    def test_timeline_file_roundtrip(self, telemetered_run, tmp_path):
        path = tmp_path / "timeline.json"
        write_timeline(telemetered_run.bus, str(path),
                       manifest={"seed": 7, "transport": "local"})
        events = validate_timeline_file(str(path))
        cats = {e.get("cat") for e in events if e["ph"] == "B"}
        assert {"run", "window", "system"} <= cats
        data = json.loads(path.read_text())
        assert data["otherData"]["schema_version"] == TELEMETRY_SCHEMA_VERSION
        manifest = json.loads(
            (tmp_path / "timeline.json.manifest.json").read_text())
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["seed"] == 7
        assert manifest["transport"] == "local"

    def test_run_report_has_metric_catalog(self, telemetered_run):
        """One versioned document: every ``run_record`` key once, next
        to the bus's counters, metrics, totals, rows and span count."""
        report = run_report(telemetered_run.bus)
        assert report["schema_version"] == TELEMETRY_SCHEMA_VERSION == 10
        assert set(report) == {*run_record(telemetered_run.bus),
                               "schema_version", "counters", "metrics",
                               "totals", "rows", "spans"}
        hists = report["metrics"]["histograms"]
        assert "port.queue_depth_bytes" in hists
        assert "flow.completion_time_us" in hists
        assert hists["flow.completion_time_us"]["count"] == 4
        assert report["spans"] > 0
        assert report["rows"] == telemetered_run.bus.profile_rows()
        json.dumps(report)  # JSON-ready as built


class TestManifest:
    def test_run_manifest_drops_nones(self):
        manifest = run_manifest(seed=3, transport=None)
        assert manifest["seed"] == 3
        assert "transport" not in manifest
        assert manifest["schema_version"] == TELEMETRY_SCHEMA_VERSION

    def test_write_manifest_path_convention(self, tmp_path):
        artifact = tmp_path / "out.json"
        artifact.write_text("{}")
        path = write_manifest(str(artifact), seed=1)
        assert path == str(artifact) + ".manifest.json"


class TestClusterExport:
    """The acceptance scenario: a 2-agent process-transport run exports
    a valid timeline with both agents' tracks and the coordinator's
    barrier-wait slices, and the run report feeds refit_cluster_spec."""

    @pytest.fixture(scope="class")
    def cluster_run(self, scenario):
        from repro.cluster import AgentSpec, ClusterEngine
        from repro.core import EngineRunner
        from repro.partition import ClusterSpec, plan_scenario
        part = plan_scenario(scenario, ClusterSpec.homogeneous(2)).partition
        engine = ClusterEngine([AgentSpec(a, scenario, part, telemetry=True)
                                for a in range(2)], transport="shm")
        EngineRunner(engine).run()
        return engine

    def test_timeline_has_both_agents_and_barrier_waits(self, cluster_run,
                                                        tmp_path):
        path = tmp_path / "cluster.json"
        write_timeline(cluster_run.bus, str(path))
        events = validate_timeline_file(str(path))
        begins = [e for e in events if e["ph"] == "B"]
        for pid in (1, 2):  # agents 0 and 1
            names = {e["name"] for e in begins if e["pid"] == pid}
            assert {"run", "window", "ack"} <= names, names
        waits = [e for e in begins if e["name"] == "barrier-wait"]
        assert waits
        assert all(e["cat"] == "cluster" and e["tid"] == 1 for e in waits)
        # The coordinator track carries one span per reported window —
        # agreement and flush happen among the agents now.
        coord = {e["name"] for e in begins if e["pid"] == 0}
        assert "window" in coord
        assert not {"agree", "flush"} & coord

    def test_stats_feed_refit_cluster_spec(self, cluster_run, scenario):
        from repro.partition import ClusterSpec, refit_cluster_spec
        from repro.partition.loadest import estimate_scenario_loads
        report = run_report(cluster_run.bus)
        busy = report["agents_busy_s"]
        wait = report["agents_wait_s"]
        assert len(busy) == len(wait) == 2
        assert all(b > 0 for b in busy)
        refit = refit_cluster_spec(
            ClusterSpec.homogeneous(2), scenario.topology,
            cluster_run.partition, estimate_scenario_loads(scenario),
            busy,  # the exported series is the measured_times shape
        )
        assert len(refit.compute) == 2
        assert all(c > 0 for c in refit.compute)

    def test_cluster_metrics_include_barrier_histogram(self, cluster_run):
        hists = cluster_run.bus.metrics.histograms
        assert "cluster.barrier_wait_ms" in hists
        assert hists["cluster.barrier_wait_ms"].count > 0
        # agent-side samples merged in across the pipe
        assert "port.queue_depth_bytes" in hists


class TestDerivedSections:
    """memo.* counters surface as the report's ``memo`` section (its
    rate and jump windows, like the transport.shm_* totals, are
    ``run_record`` keys) instead of staying bus-only."""

    @pytest.fixture(scope="class")
    def memo_scenario(self):
        # The memo cache only arms for UDP-carrying scenarios (see
        # DodEngine._maybe_init_memo); steady periodic UDP is its home
        # regime and guarantees nonzero lookup counters.
        from repro.traffic import Flow, Transport
        from repro.units import GBPS, us
        topo = dumbbell(4, edge_rate_bps=12 * GBPS,
                        bottleneck_rate_bps=100 * GBPS, delay_ps=us(1))
        flows = [Flow(i, i, 4 + i, 200_000, 0, Transport.UDP)
                 for i in range(4)]
        return make_scenario(topo, flows, name="memo-steady")

    def test_memo_section_from_ffwd_run(self, memo_scenario):
        engine = DodEngine(memo_scenario, telemetry=True, ffwd=True)
        engine.run()
        report = run_report(engine.bus)
        memo = report["memo"]
        lookups = memo["hit"] + memo["miss"]
        assert lookups > 0
        assert report["memo_hit_rate"] == pytest.approx(memo["hit"] / lookups)
        assert not {"hit_rate", "jump_windows"} & set(memo)

    def test_sections_absent_without_counters(self, telemetered_run):
        report = run_report(telemetered_run.bus)
        assert "memo" not in report
        assert report["shm_frames"] == report["shm_bytes"] == 0

    def test_shm_section_from_counters(self):
        from repro.core.instrument import InstrumentationBus
        bus = InstrumentationBus()
        bus.count("transport.shm_frames", 12)
        bus.count("transport.shm_bytes", 4096)
        report = run_report(bus)
        assert (report["shm_frames"], report["shm_bytes"]) == (12, 4096)
        assert "transport_shm" not in report
