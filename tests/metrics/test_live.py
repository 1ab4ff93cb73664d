"""Live observability plane: NDJSON schema and throttle, and the flight
dump — a view of the bus's last 64 windows — and its triggers."""

import json
import os
import signal

import pytest

from repro.core.engine import DodEngine
from repro.core.runner import EngineRunner, chain_hooks
from repro.metrics import live
from repro.metrics.live import LIVE_RECORD_KEYS, LivePlane
from repro.metrics.timeline import (
    FLIGHT_WINDOWS, TELEMETRY_SCHEMA_VERSION, flight_spans,
    validate_timeline_file, write_flight,
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


@pytest.fixture
def every_window(monkeypatch):
    """Planes built under this fixture sample every window."""
    monkeypatch.setattr(live, "INTERVAL_MS", 0.0)


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _run_live(scenario, path):
    engine = DodEngine(scenario)
    plane = LivePlane(engine, path=str(path))
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    return engine, plane


# --- NDJSON schema ---------------------------------------------------------

def test_ndjson_schema_pinned(scenario, tmp_path, every_window):
    """Every progress/final record carries exactly the pinned key set —
    consumers never branch on key presence — and the telemetry schema
    version."""
    path = tmp_path / "live.ndjson"
    engine, plane = _run_live(scenario, path)
    lines = _records(path)
    assert lines, "no records emitted"
    assert plane.records_emitted == len(lines)
    for record in lines:
        assert record["v"] == TELEMETRY_SCHEMA_VERSION
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


def test_ndjson_monotone_progress(scenario, tmp_path, every_window):
    path = tmp_path / "live.ndjson"
    _run_live(scenario, path)
    records = [r for r in _records(path)
               if r["kind"] in ("progress", "final")]
    for a, b in zip(records, records[1:]):
        assert b["windows"] >= a["windows"]
        assert b["sim_ps"] >= a["sim_ps"]
        assert b["events"] >= a["events"]
        assert b["wall_s"] >= a["wall_s"]


def test_throttle_limits_record_rate(scenario, tmp_path, monkeypatch):
    """A huge interval means only the forced final record is emitted."""
    monkeypatch.setattr(live, "INTERVAL_MS", 3_600_000.0)
    path = tmp_path / "live.ndjson"
    engine = DodEngine(scenario)
    plane = LivePlane(engine, path=str(path))
    plane._last = plane._t0  # arm the throttle as if one sample just fired
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    assert [r["kind"] for r in _records(path)] == ["final"]


def test_dash_streams_to_stderr(scenario, capsys):
    """``path="-"`` writes the records to stderr and stdout stays
    clean."""
    engine = DodEngine(scenario)
    plane = LivePlane(engine, path="-")
    EngineRunner(engine, on_step=plane.on_step).run()
    plane.close()
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1])["kind"] == "final"


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
    assert not LivePlane(engine).flight


def test_flight_dump_on_crash(scenario, tmp_path, every_window):
    flight = tmp_path / "crash.ndjson.flight.json"
    engine = DodEngine(scenario, telemetry=True)
    plane = LivePlane(engine, path=str(tmp_path / "crash.ndjson"))
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
def test_flight_dump_on_sigusr1(scenario, tmp_path, every_window):
    path = tmp_path / "usr1.ndjson"
    flight = tmp_path / "usr1.ndjson.flight.json"
    engine = DodEngine(scenario, telemetry=True)
    plane = LivePlane(engine, path=str(path))
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
    kinds = [r["kind"] for r in _records(path)]
    assert "flight" in kinds
    # The prior handler is restored at close.
    assert signal.getsignal(signal.SIGUSR1) is not plane._on_sigusr1
