"""Live observability plane: NDJSON schema, OpenMetrics exposition,
HTTP endpoint, and the flight recorder's bounded ring + dump triggers."""

import io
import json
import os
import signal
import urllib.request

import pytest

from repro.core.engine import DodEngine
from repro.core.runner import EngineRunner, chain_hooks
from repro.core.telemetry import Histogram, MetricsRegistry
from repro.errors import ReproError
from repro.metrics.live import (
    LIVE_RECORD_KEYS, LIVE_SCHEMA_VERSION, FlightRecorder, LivePlane,
    MetricsServer, openmetrics_text, validate_openmetrics,
)
from repro.metrics.timeline import validate_timeline_file
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Transport, fixed_flows


@pytest.fixture(scope="module")
def scenario():
    topo = dumbbell(3)
    flows = fixed_flows(topo.hosts, n_flows=6, size_bytes=40_000,
                        transport=Transport.DCTCP, seed=5)
    return make_scenario(topo, flows)


def _run_live(scenario, stream, telemetry=False, **kwargs):
    engine = DodEngine(scenario, telemetry=telemetry)
    plane = LivePlane(engine, stream=stream, interval_ms=0, **kwargs)
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    return engine, plane


# --- NDJSON schema ---------------------------------------------------------

def test_ndjson_schema_pinned(scenario):
    """Every progress/final record carries exactly the pinned key set —
    consumers never branch on key presence."""
    buf = io.StringIO()
    engine, plane = _run_live(scenario, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines, "no records emitted"
    assert plane.records_emitted == len(lines)
    for record in lines:
        assert record["v"] == LIVE_SCHEMA_VERSION
        if record["kind"] in ("progress", "final"):
            assert set(record) == set(LIVE_RECORD_KEYS)
    kinds = [r["kind"] for r in lines]
    assert kinds[-1] == "final" and kinds.count("final") == 1
    final = lines[-1]
    assert final["windows"] > 0
    assert final["events"] == engine.results.events.total
    assert final["events_per_s"] > 0
    # Serial run: no agents, no memo, no shm — nulls/zeros, not absences.
    assert final["agents_busy_s"] is None
    assert final["memo_hit_rate"] is None
    assert final["shm_frames"] == 0


def test_ndjson_monotone_progress(scenario):
    buf = io.StringIO()
    _run_live(scenario, buf)
    records = [json.loads(line) for line in buf.getvalue().splitlines()
               if json.loads(line)["kind"] in ("progress", "final")]
    for a, b in zip(records, records[1:]):
        assert b["windows"] >= a["windows"]
        assert b["sim_ps"] >= a["sim_ps"]
        assert b["events"] >= a["events"]
        assert b["wall_s"] >= a["wall_s"]


def test_throttle_limits_record_rate(scenario):
    """A huge interval means only the forced final record is emitted."""
    buf = io.StringIO()
    engine = DodEngine(scenario)
    plane = LivePlane(engine, stream=buf, interval_ms=3_600_000)
    plane._last = plane._t0  # arm the throttle as if one sample just fired
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [r["kind"] for r in lines] == ["final"]


def test_progress_api(scenario):
    engine = DodEngine(scenario)
    p0 = engine.progress()
    assert p0["windows"] == 0 and p0["sim_ps"] == 0 and p0["events"] == 0
    engine.run()
    p1 = engine.progress()
    assert p1["windows"] > 0
    assert p1["events"] == engine.results.events.total
    assert p1["sim_ps"] > 0


def test_chain_hooks():
    seen = []
    chained = chain_hooks(None, seen.append, None,
                          lambda s: seen.append(-s))
    chained(3)
    assert seen == [3, -3]
    assert chain_hooks(None, None) is None
    one = seen.append
    assert chain_hooks(None, one) is one


# --- OpenMetrics exposition ------------------------------------------------

def _sample_registry():
    registry = MetricsRegistry()
    registry.gauge("a0:busy_s", 1.5)
    registry.gauge("a1:busy_s", 2.5)
    registry.gauge("cluster.span", 4.0)
    registry.count("pool.tasks", 7)
    hist = registry.histogram("cluster.barrier_wait_ms", (1, 5, 10))
    for value in (0.5, 3, 7, 20):
        hist.record(value)
    return registry


def test_openmetrics_text_valid():
    record = {"v": 1, "kind": "progress", "wall_s": 1.0, "windows": 5,
              "sim_ps": 1000, "events": 42, "events_per_s": 42.0,
              "done": 0.5, "memo_hit_rate": None}
    text = openmetrics_text(record, {"windows": 5, "memo.hit": 3},
                            _sample_registry().snapshot())
    samples = validate_openmetrics(text)
    assert text.endswith("# EOF\n")
    by_name = {(name, labels): value for name, labels, value in samples}
    assert by_name[("repro_windows_done", "")] == 5
    assert by_name[("repro_events_committed", "")] == 42
    # memo_hit_rate is None -> gauge omitted entirely.
    assert not any(n == "repro_memo_hit_rate" for n, _l, _v in samples)
    # Counters carry the mandatory _total suffix.
    assert by_name[("repro_memo_hit_total", "")] == 3
    assert by_name[("repro_pool_tasks_total", "")] == 7
    # Agent gauges share one family with agent="<i>" labels.
    assert by_name[("repro_agent_busy_s", 'agent="0"')] == 1.5
    assert by_name[("repro_agent_busy_s", 'agent="1"')] == 2.5
    # Histogram buckets are cumulative and +Inf == _count.
    buckets = [(labels, value) for name, labels, value in samples
               if name == "repro_cluster_barrier_wait_ms_bucket"]
    values = [value for _l, value in buckets]
    assert values == sorted(values)
    assert buckets[-1] == ('le="+Inf"', 4.0)
    assert by_name[("repro_cluster_barrier_wait_ms_count", "")] == 4


def test_validate_openmetrics_rejects_bad_payloads():
    with pytest.raises(ReproError, match="EOF"):
        validate_openmetrics("repro_x 1\n")
    with pytest.raises(ReproError, match="no TYPE"):
        validate_openmetrics("repro_x 1\n# EOF\n")
    with pytest.raises(ReproError, match="_total"):
        validate_openmetrics(
            "# TYPE repro_x counter\nrepro_x 1\n# EOF\n")
    with pytest.raises(ReproError, match="cumulative"):
        validate_openmetrics(
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "# EOF\n")
    with pytest.raises(ReproError, match="unparsable"):
        validate_openmetrics("# TYPE repro_x gauge\nrepro_x one\n# EOF\n")


def test_histogram_cumulative():
    hist = Histogram((1, 5, 10))
    for value in (0.5, 3, 7, 20):
        hist.record(value)
    assert hist.cumulative() == [(1.0, 1), (5.0, 2), (10.0, 3),
                                 (float("inf"), 4)]


# --- HTTP endpoint ---------------------------------------------------------

def test_metrics_server_scrape(scenario):
    buf = io.StringIO()
    engine = DodEngine(scenario)
    plane = LivePlane(engine, stream=buf, interval_ms=0, metrics_port=0)
    assert plane.server is not None and plane.server.port > 0
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
        body = urllib.request.urlopen(plane.server.url, timeout=5).read()
        text = body.decode("utf-8")
    finally:
        plane.close()
    samples = dict(((n, l), v) for n, l, v in validate_openmetrics(text))
    assert samples[("repro_windows_done", "")] > 0
    assert samples[("repro_events_committed", "")] > 0


def test_metrics_server_404():
    server = MetricsServer()  # no port given: ephemeral
    try:
        # Before any sample the endpoint serves an empty, valid payload.
        text = urllib.request.urlopen(server.url, timeout=5).read()
        validate_openmetrics(text.decode("utf-8"))
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=5)
    finally:
        server.close()


# --- flight recorder -------------------------------------------------------

def test_flight_recorder_bounded_ring(scenario, tmp_path):
    engine = DodEngine(scenario, telemetry=True)
    recorder = FlightRecorder(engine.bus, max_windows=8)
    runner = EngineRunner(engine, on_step=lambda _s: recorder.poll())
    runner.run()
    recorder.poll()
    assert recorder.windows <= 8
    total_windows = sum(1 for s in engine.bus.spans if s[2] == "window")
    assert total_windows > 8, "scenario too small to exercise eviction"
    path = tmp_path / "flight.json"
    assert recorder.dump(str(path)) == str(path)
    events = validate_timeline_file(str(path))
    dumped_windows = sum(1 for e in events
                         if e.get("ph") == "B" and e["name"] == "window")
    assert 0 < dumped_windows <= 8
    data = json.loads(path.read_text())
    assert data["otherData"]["flight_recorder"]["max_windows"] == 8


def test_flight_recorder_empty_without_telemetry(scenario, tmp_path):
    engine = DodEngine(scenario)  # telemetry off: no spans
    engine.run()
    recorder = FlightRecorder(engine.bus)
    assert recorder.dump(str(tmp_path / "flight.json")) is None


def test_flight_dump_on_crash(scenario, tmp_path):
    flight = tmp_path / "crash.flight.json"
    engine = DodEngine(scenario, telemetry=True)
    plane = LivePlane(engine, stream=io.StringIO(), interval_ms=0,
                      flight_path=str(flight))
    assert plane.recorder is not None, "telemetry on must arm the recorder"

    def boom(steps):
        plane.on_step(steps)
        if steps >= 20:
            raise RuntimeError("injected crash")

    with pytest.raises(RuntimeError, match="injected crash"):
        with plane:
            EngineRunner(engine, on_step=boom).run()
    validate_timeline_file(str(flight))


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"),
                    reason="platform has no SIGUSR1")
def test_flight_dump_on_sigusr1(scenario, tmp_path):
    flight = tmp_path / "usr1.flight.json"
    buf = io.StringIO()
    engine = DodEngine(scenario, telemetry=True)
    plane = LivePlane(engine, stream=buf, interval_ms=0,
                      flight_path=str(flight))
    fired = {"done": False}

    def kick(steps):
        plane.on_step(steps)
        if steps >= 20 and not fired["done"]:
            fired["done"] = True
            os.kill(os.getpid(), signal.SIGUSR1)

    try:
        EngineRunner(engine, on_step=kick).run()
    finally:
        plane.close()
    validate_timeline_file(str(flight))
    kinds = [json.loads(line)["kind"] for line in buf.getvalue().splitlines()]
    assert "flight" in kinds
    # The prior handler is restored at close.
    assert signal.getsignal(signal.SIGUSR1) is not plane._on_sigusr1
