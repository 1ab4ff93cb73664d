"""The live observability plane must be observationally invisible.

Mirror of test_telemetry_neutrality.py for PR 10's acceptance bar:
``trace_digest()`` is byte-identical with the live plane (NDJSON
sampler + watchdog) attached vs absent, serial and cluster-process-2 —
the sampler only ever
*reads* engine state between windows.
"""

import io

import pytest

from repro.core.engine import DodEngine, run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel
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


def _run_with_plane(engine):
    plane = LivePlane(engine, stream=io.StringIO(), interval_ms=0)
    try:
        EngineRunner(engine, on_step=plane.on_step).run()
    finally:
        plane.close()
    assert plane.records_emitted > 0
    return engine.results


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_serial_digest_neutral_with_live_plane(scenario, reference_digest,
                                               backend, monkeypatch):
    """A stale $REPRO_BACKEND export of either old value changes
    nothing either."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    engine = DodEngine(scenario, TraceLevel.FULL)
    results = _run_with_plane(engine)
    assert results.trace.digest() == reference_digest


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_cluster_digest_neutral_with_live_plane(scenario, reference_digest,
                                                backend, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    from repro.cluster import DonsManager
    from repro.partition import ClusterSpec
    part = contiguous_partition(scenario.topology, 2)
    digests = {}
    for live in (False, True):
        mgr = DonsManager(scenario, ClusterSpec.homogeneous(2),
                          TraceLevel.FULL, transport="shm")
        engine = mgr._engine(part)
        if live:
            _run_with_plane(engine)
        else:
            EngineRunner(engine).run()
        digests[live] = engine.results.trace.digest()
    assert digests[False] == digests[True] == reference_digest


def test_serial_results_identical_with_live_plane(scenario):
    """Beyond the digest: event counts and flow outcomes are untouched."""
    plain = DodEngine(scenario)
    EngineRunner(plain).run()
    live = DodEngine(scenario)
    _run_with_plane(live)
    assert live.results.events.total == plain.results.events.total
    assert live.results.drops == plain.results.drops
    assert ({f: r.complete_ps for f, r in live.results.flows.items()}
            == {f: r.complete_ps for f, r in plain.results.flows.items()})
