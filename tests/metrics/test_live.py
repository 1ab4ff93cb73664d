"""Live observability plane: NDJSON schema and throttle, and the flight
dump — a view of the bus's last 64 windows — and its triggers."""

import io
import json
import os
import signal

import pytest

from repro.core.engine import DodEngine
from repro.core.runner import EngineRunner, chain_hooks
from repro.metrics.live import (
    LIVE_RECORD_KEYS, LIVE_SCHEMA_VERSION, LivePlane,
)
from repro.metrics.timeline import (
    FLIGHT_WINDOWS, flight_spans, validate_timeline_file, write_flight,
)
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


# --- flight dump -----------------------------------------------------------

def test_flight_view_is_the_last_64_windows(scenario, tmp_path):
    """The flight dump is a view of ``bus.spans``: every span that ends
    after the 64th-last ``window`` span starts, so exactly the last 64
    windows."""
    engine = DodEngine(scenario, telemetry=True)
    engine.run()
    spans = engine.bus.spans
    windows = [s for s in spans if s[2] == "window"]
    assert len(windows) > FLIGHT_WINDOWS == 64, "scenario too small"
    horizon = windows[-64][0]
    assert flight_spans(spans) == [s for s in spans if s[1] > horizon]
    path = tmp_path / "flight.json"
    assert write_flight(engine.bus, str(path)) == str(path)
    events = validate_timeline_file(str(path))
    dumped = [e["args"]["index"] for e in events
              if e.get("ph") == "B" and e["name"] == "window"]
    assert dumped == [s[4]["index"] for s in windows[-64:]]
    data = json.loads(path.read_text())
    assert data["otherData"]["flight"] == {"windows": 64}


def test_flight_recorder_empty_without_telemetry(scenario, tmp_path):
    engine = DodEngine(scenario)  # telemetry off: no spans
    engine.run()
    path = tmp_path / "flight.json"
    assert write_flight(engine.bus, str(path)) is None
    assert not path.exists()
    assert not LivePlane(engine, stream=io.StringIO()).flight


def test_flight_dump_on_crash(scenario, tmp_path):
    flight = tmp_path / "crash.flight.json"
    engine = DodEngine(scenario, telemetry=True)
    plane = LivePlane(engine, stream=io.StringIO(), interval_ms=0,
                      flight_path=str(flight))
    assert plane.flight, "telemetry on must arm the flight dump"

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
