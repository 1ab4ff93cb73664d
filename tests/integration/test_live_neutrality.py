"""The live observability plane must be observationally invisible.

Mirror of test_telemetry_neutrality.py for PR 10's acceptance bar:
the trace digest is byte-identical with the live plane (NDJSON
sampler + watchdog) attached vs absent, serial and cluster-process-2 —
the sampler only ever
*reads* engine state between windows.
"""

import pytest

from repro.core.engine import DodEngine, run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel
from repro.metrics import live
from repro.metrics.live import LivePlane
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Transport, fixed_flows


@pytest.fixture(scope="module")
def scenario():
    topo = dumbbell(3)
    flows = fixed_flows(topo.hosts, n_flows=6, size_bytes=40_000,
                        transport=Transport.DCTCP, seed=5)
    return make_scenario(topo, flows)


@pytest.fixture(scope="module")
def reference_digest(scenario):
    return run_dons(scenario, TraceLevel.FULL).trace.digest()


@pytest.fixture(autouse=True)
def every_window(monkeypatch):
    """The plane samples every window."""
    monkeypatch.setattr(live, "INTERVAL_MS", 0.0)


def _run_with_plane(engine):
    plane = LivePlane(engine)
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    assert plane.records_emitted > 0
    return engine.results


def test_serial_digest_neutral_with_live_plane(scenario, reference_digest):
    engine = DodEngine(scenario, TraceLevel.FULL)
    results = _run_with_plane(engine)
    assert results.trace.digest() == reference_digest


def test_cluster_digest_neutral_with_live_plane(scenario, reference_digest):
    from repro.cluster import AgentSpec, ClusterEngine
    part = contiguous_partition(scenario.topology, 2)
    digests = {}
    for watched in (False, True):
        engine = ClusterEngine([AgentSpec(a, scenario, part, TraceLevel.FULL)
                                for a in range(2)], transport="shm")
        if watched:
            _run_with_plane(engine)
        else:
            EngineRunner(engine).run()
        digests[watched] = engine.results.trace.digest()
    assert digests[False] == digests[True] == reference_digest


def test_serial_results_identical_with_live_plane(scenario):
    """Beyond the digest: event counts and flow outcomes are untouched."""
    plain = DodEngine(scenario)
    EngineRunner(plain).run()
    watched = DodEngine(scenario)
    _run_with_plane(watched)
    assert watched.results.events.total == plain.results.events.total
    assert watched.results.drops == plain.results.drops
    assert ({f: r.complete_ps for f, r in watched.results.flows.items()}
            == {f: r.complete_ps for f, r in plain.results.flows.items()})
