"""The live stream and the run report cannot drift: both are views of
``repro.metrics.timeline.run_record``.

On one serial fast-forwarded steady-UDP run and one 2-agent ``shm`` run
with the live plane attached, the ``final`` NDJSON record — read off the
running engine — must carry the very numbers that
``run_report(engine.bus)`` — read off the bus alone after
``finalize()`` — and ``engine.progress()`` report.  (Before the shared
snapshot the cluster case failed: the live record took its per-agent
wait from the watchdog's ``t_max - t`` estimate, the report from the
transport-measured barrier wait.)
"""

import json

from repro.bench.scenarios import steady_state_scenario
from repro.cluster import AgentSpec, ClusterEngine
from repro.core.engine import DodEngine
from repro.core.runner import EngineRunner
from repro.metrics import live
from repro.metrics.live import LivePlane
from repro.metrics.timeline import run_record, run_report
from repro.partition import ClusterSpec, plan_scenario
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Transport, fixed_flows


def _planned_cluster(transport="local", telemetry=False):
    """A 2-agent cluster on ``plan_scenario``'s cut of a small dumbbell."""
    topo = dumbbell(3)
    flows = fixed_flows(topo.hosts, n_flows=6, size_bytes=40_000,
                        transport=Transport.DCTCP, seed=5)
    scenario = make_scenario(topo, flows)
    part = plan_scenario(scenario, ClusterSpec.homogeneous(2)).partition
    return ClusterEngine([AgentSpec(a, scenario, part, telemetry=telemetry)
                          for a in range(2)], transport=transport)


def _final_record(engine, path, monkeypatch):
    monkeypatch.setattr(live, "INTERVAL_MS", 0.0)
    plane = LivePlane(engine, path=str(path))
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    final = json.loads(path.read_text().splitlines()[-1])
    assert final["kind"] == "final"
    return final


def _assert_same_progress(final, engine):
    progress = engine.progress()
    assert final["windows"] == progress["windows"] > 0
    assert final["events"] == progress["events"] > 0


def _assert_same_record(final, report):
    for key in ("memo_hit_rate", "memo_jump_windows", "shm_frames",
                "shm_bytes", "agents_busy_s", "agents_wait_s"):
        assert final[key] == report[key], key


def test_serial_ffwd_final_record_matches_stats(tmp_path, monkeypatch):
    engine = DodEngine(steady_state_scenario(n_pairs=2, flow_bytes=600_000),
                       telemetry=True, ffwd=True)
    final = _final_record(engine, tmp_path / "live.ndjson", monkeypatch)
    report = run_report(engine.bus)
    assert report["memo"]["hit"] > 0
    assert final["memo_jump_windows"] > 0
    assert final["shm_frames"] == final["shm_bytes"] == 0
    assert final["agents_busy_s"] is final["agents_wait_s"] is None
    _assert_same_record(final, report)
    _assert_same_progress(final, engine)


def test_cluster_shm_final_record_matches_stats(tmp_path, monkeypatch):
    engine = _planned_cluster(transport="shm", telemetry=True)
    final = _final_record(engine, tmp_path / "live.ndjson", monkeypatch)
    report = run_report(engine.bus)
    assert final["shm_frames"] > 0 and final["shm_bytes"] > 0
    assert all(b > 0 for b in final["agents_busy_s"])
    assert final["memo_hit_rate"] is None and "memo" not in report
    _assert_same_record(final, report)
    _assert_same_progress(final, engine)


def test_cluster_bus_alone_gives_busy_and_wait_at_every_step():
    """The ``a<i>:busy_s`` / ``a<i>:barrier_wait_s`` gauges are the one
    busy / wait accumulator: at every step of a running 2-agent local
    cluster, the record read off the bus alone carries the same
    per-agent series as the one read with the engine at hand."""
    engine = _planned_cluster()
    seen = []

    def on_step(_steps):
        alone = run_record(engine.bus)
        with_engine = run_record(engine.bus, engine)
        for key in ("agents_busy_s", "agents_wait_s"):
            assert alone[key] == with_engine[key], key
        seen.append(alone["agents_busy_s"])

    EngineRunner(engine, on_step=on_step).run()
    assert len(seen) == engine.stats.windows > 1
    assert all(len(busy) == 2 for busy in seen)
    assert all(b > 0 for b in seen[-1])
    assert run_record(engine.bus)["agents_busy_s"] == seen[-1]
