"""The live stream and ``stats`` cannot drift: both are views of
``repro.metrics.timeline.run_record``.

On one serial fast-forwarded steady-UDP run and one 2-agent ``shm`` run
with the live plane attached, the ``final`` NDJSON record must carry the
very numbers ``stats_dict(engine.bus)`` and ``engine.progress()`` report
after ``finalize()``.  (Before the shared snapshot the cluster case
failed: the live record took its per-agent wait from the watchdog's
``t_max - t`` estimate, ``stats`` from the transport-measured barrier
wait.)
"""

import io
import json

from repro.bench.scenarios import steady_state_scenario
from repro.cluster import DonsManager
from repro.core.engine import DodEngine
from repro.core.runner import EngineRunner
from repro.metrics.live import LivePlane
from repro.metrics.timeline import stats_dict
from repro.partition import ClusterSpec, plan_scenario
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Transport, fixed_flows


def _final_record(engine):
    buf = io.StringIO()
    plane = LivePlane(engine, stream=buf, interval_ms=0)
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    final = json.loads(buf.getvalue().splitlines()[-1])
    assert final["kind"] == "final"
    return final


def _assert_same_progress(final, engine):
    progress = engine.progress()
    assert final["windows"] == progress["windows"] > 0
    assert final["events"] == progress["events"] > 0


def test_serial_ffwd_final_record_matches_stats():
    engine = DodEngine(steady_state_scenario(n_pairs=2, flow_bytes=600_000),
                       telemetry=True, ffwd=True)
    final = _final_record(engine)
    report = stats_dict(engine.bus)
    assert report["memo"]["hit"] > 0
    assert final["memo_hit_rate"] == report["memo"]["hit_rate"]
    assert final["memo_jump_windows"] == report["memo"]["jump_windows"] > 0
    assert final["shm_frames"] == final["shm_bytes"] == 0
    assert "transport_shm" not in report
    assert final["agents_busy_s"] is final["agents_wait_s"] is None
    assert "agent_busy_s" not in report
    _assert_same_progress(final, engine)


def test_cluster_shm_final_record_matches_stats():
    topo = dumbbell(3)
    flows = fixed_flows(topo.hosts, n_flows=6, size_bytes=40_000,
                        transport=Transport.DCTCP, seed=5)
    scenario = make_scenario(topo, flows)
    mgr = DonsManager(scenario, ClusterSpec.homogeneous(2),
                      transport="shm", telemetry=True)
    engine = mgr._engine(plan_scenario(scenario, mgr.cluster).partition)
    final = _final_record(engine)
    report = stats_dict(engine.bus)
    assert final["shm_frames"] == report["transport_shm"]["frames"] > 0
    assert final["shm_bytes"] == report["transport_shm"]["bytes"] > 0
    assert final["agents_busy_s"] == report["agent_busy_s"]
    assert final["agents_wait_s"] == report["agent_barrier_wait_s"]
    assert all(b > 0 for b in final["agents_busy_s"])
    assert final["memo_hit_rate"] is None and "memo" not in report
    _assert_same_progress(final, engine)
