"""Cluster watchdog: stall/slowness detection over measured reply times.

The drill: wrap one agent's ``run_window`` on a built local cluster so
it burns CPU, and assert the watchdog flags it within two sampling
intervals (here: windows — the watchdog observes every cluster window).
Busy is CPU time, so a sleeping agent is not flagged.
"""

import json
import time

import pytest

from repro.cluster import AgentSpec, ClusterEngine
from repro.core.runner import EngineRunner
from repro.metrics import live
from repro.metrics.live import ClusterWatchdog, LivePlane
from repro.metrics.timeline import run_record
from repro.partition import ClusterSpec, plan_scenario, refit_cluster_spec
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Transport, fixed_flows


@pytest.fixture(scope="module")
def scenario():
    topo = dumbbell(3)
    flows = fixed_flows(topo.hosts, n_flows=6, size_bytes=40_000,
                        transport=Transport.DCTCP, seed=5)
    return make_scenario(topo, flows)


def _cluster_engine(scenario, telemetry=False):
    part = plan_scenario(scenario, ClusterSpec.homogeneous(2)).partition
    return ClusterEngine([AgentSpec(a, scenario, part, telemetry=telemetry)
                          for a in range(part.num_parts)])


def _spin(seconds):
    """Burn ``seconds`` of this thread's CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _stall(engine, agent_id, stall):
    """Build the local cluster and make agent ``agent_id`` call
    ``stall(window)`` before it runs each window."""
    engine.build()
    agent = engine.transport.engines[agent_id]
    run_window = agent.run_window

    def stalled(window):
        stall(window)
        return run_window(window)

    agent.run_window = stalled


# --- unit-level ------------------------------------------------------------

def test_watchdog_classifies_slow_and_stalled():
    dog = ClusterWatchdog(2)
    for window in range(4):  # learn a ~10ms baseline
        assert dog.observe(window, [0.01, 0.01]) == []
    slow = dog.observe(4, [0.01, 0.045])
    assert [e["event"] for e in slow] == ["slow"]
    stalled = dog.observe(5, [0.01, 0.3])
    assert [(e["event"], e["agent"], e["window"]) for e in stalled] \
        == [("stalled", 1, 5)]
    # Flagged samples never update the baseline that caught them.
    healthy = dog.observe(6, [0.01, 0.011])
    assert healthy == []
    assert dog.flags == [0, 2]
    # pop_events drains the queue once.
    assert len(dog.pop_events()) == 2
    assert dog.pop_events() == []


def test_watchdog_warmup_suppresses_flags():
    dog = ClusterWatchdog(1)
    assert dog.observe(0, [0.5]) == []
    assert dog.observe(1, [0.5]) == []
    assert dog.observe(2, [0.5]) == []


def test_watchdog_accumulates_busy_and_wait(scenario):
    """The totals of the measured window times live in one place —
    the ``a<i>:busy_s`` / ``a<i>:barrier_wait_s`` gauges of the cluster
    bus — and neither the engine nor the watchdog keeps a second
    copy."""
    engine = _cluster_engine(scenario, telemetry=True)
    before = run_record(engine.bus)
    assert before["agents_busy_s"] == before["agents_wait_s"] == [0.0, 0.0]
    EngineRunner(engine).run()
    record = run_record(engine.bus)
    busy, wait = record["agents_busy_s"], record["agents_wait_s"]
    assert all(b > 0 for b in busy)
    assert sum(wait) > 0
    gauges = engine.bus.metrics.gauges
    assert [gauges["a0:busy_s"], gauges["a1:busy_s"]] == busy
    assert [gauges["a0:barrier_wait_s"],
            gauges["a1:barrier_wait_s"]] == wait
    for gone in ("busy_s", "wait_s", "cpu_s"):
        assert not hasattr(engine, gone)
    for gone in ("busy_s", "wait_s", "measured_times", "last_reply_wall"):
        assert not hasattr(engine.watchdog, gone)


# --- the drill -------------------------------------------------------------

def test_watchdog_drill_detects_stalled_agent(scenario, tmp_path,
                                              monkeypatch):
    """A deliberately stalled agent (60ms of CPU, above the 50ms stall
    floor) is flagged ``stalled`` within 2 sampling intervals of the
    stall."""
    engine = _cluster_engine(scenario, telemetry=True)
    assert engine.watchdog is not None
    stall_from = 8
    injected = []

    def inject(window):
        if window >= stall_from and len(injected) < 2:
            injected.append(window)
            _spin(0.06)

    _stall(engine, 1, inject)
    monkeypatch.setattr(live, "INTERVAL_MS", 0.0)
    path = tmp_path / "live.ndjson"
    plane = LivePlane(engine, path=str(path))
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    assert injected, "the drill never fired"
    counters = engine.bus.counters
    assert counters.get("watchdog.stalled", 0) >= 1
    assert counters.get("watchdog.checks", 0) > 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    stalled = [r for r in records if r.get("event") == "stalled"]
    assert stalled, "no stalled event reached the live stream"
    first = stalled[0]
    assert first["kind"] == "watchdog"
    assert first["agent"] == 1
    # Detected within 2 sampling intervals of the injected stall.
    assert first["window"] <= injected[0] + 1
    assert first["window_s"] >= 0.05


def test_watchdog_without_telemetry_feeds_refit(scenario):
    """Telemetry off, so no watchdog: the accumulated busy times still
    see a skewed agent and drive refit_cluster_spec."""
    engine = _cluster_engine(scenario)
    assert engine.bus.telemetry is False and engine.watchdog is None
    # skew agent 1 so the refit can see it
    _stall(engine, 1, lambda _window: _spin(0.0005))
    EngineRunner(engine).run()
    gauges = engine.bus.metrics.gauges
    assert gauges["a1:busy_s"] > gauges["a0:busy_s"] > 0
    assert gauges["a0:barrier_wait_s"] > 0
    measured = run_record(engine.bus)["agents_busy_s"]
    assert measured == [gauges["a0:busy_s"], gauges["a1:busy_s"]]
    from repro.partition.loadest import estimate_scenario_loads
    cluster = ClusterSpec.homogeneous(2)
    loads = estimate_scenario_loads(scenario)
    plan = plan_scenario(scenario, cluster, loads)
    refit = refit_cluster_spec(cluster, scenario.topology, plan.partition,
                               loads, measured)
    assert refit is not None


def test_watchdog_defaults(scenario):
    """Armed exactly when the cluster bus is telemetered."""
    assert _cluster_engine(scenario).watchdog is None
    assert isinstance(_cluster_engine(scenario, telemetry=True).watchdog,
                      ClusterWatchdog)


def test_a_sleeping_agent_is_not_busy(scenario):
    """Busy means CPU: a sleep wrapped around an agent's window, inside
    the part the transport times, adds next to nothing to its
    ``a<i>:busy_s`` — a preempted or napping agent does not look slow."""
    nap = 0.002
    plain = _cluster_engine(scenario)
    EngineRunner(plain).run()
    engine = _cluster_engine(scenario)
    _stall(engine, 1, lambda window: time.sleep(nap))
    EngineRunner(engine).run()
    slept = nap * engine.bus.counters["cluster.windows"]
    gauges = engine.bus.metrics.gauges
    assert gauges["a0:busy_s"] > 0 and gauges["a1:busy_s"] > 0
    added = gauges["a1:busy_s"] - plain.bus.metrics.gauges["a1:busy_s"]
    assert added < 0.1 * slept
