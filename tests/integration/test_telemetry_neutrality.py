"""Telemetry must be observationally invisible to the simulation.

The acceptance bar for the telemetry layer: ``trace_digest()`` is
identical with recording on and off, on both ECS backends and under
both cluster transports — spans and metric sampling only ever *read*
clocks and port counters, never perturb event order or RNG state.
"""

import pytest

from repro.core.engine import run_dons
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Transport, fixed_flows


@pytest.fixture(scope="module")
def scenario():
    topo = dumbbell(3)
    flows = fixed_flows(topo.hosts, n_flows=6, size_bytes=40_000,
                        transport=Transport.DCTCP, seed=5)
    return make_scenario(topo, flows)


def _digest(results):
    return results.trace.digest()


@pytest.fixture(scope="module")
def reference_digest(scenario):
    return _digest(run_dons(scenario, TraceLevel.FULL, backend="python"))


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("which", ["scenario", "fattree4_scenario"])
def test_single_engine_digest_neutral(request, which, backend):
    if backend == "numpy":
        pytest.importorskip("numpy")
    sc = request.getfixturevalue(which)
    reference = _digest(run_dons(sc, TraceLevel.FULL, backend="python",
                                 telemetry=False))
    on = run_dons(sc, TraceLevel.FULL, backend=backend, telemetry=True)
    assert _digest(on) == reference
    off = run_dons(sc, TraceLevel.FULL, backend=backend, telemetry=False)
    assert _digest(off) == reference
    # The memo's own spans and histogram ride the same bus.
    memo = run_dons(sc, TraceLevel.FULL, backend=backend, telemetry=True,
                    ffwd=True)
    assert _digest(memo) == reference


@pytest.mark.parametrize(
    "transport", ["local", pytest.param("shm", id="process")])
def test_cluster_digest_neutral(scenario, reference_digest, transport):
    from repro.cluster import DonsManager
    from repro.partition import ClusterSpec
    part = contiguous_partition(scenario.topology, 2)
    digests = {}
    for telemetry in (False, True):
        run = DonsManager(scenario, ClusterSpec.homogeneous(2),
                          TraceLevel.FULL, transport=transport,
                          telemetry=telemetry).run(partition=part)
        digests[telemetry] = run.results.trace.digest()
    assert digests[False] == digests[True] == reference_digest


def test_checkpoints_identical_without_telemetry(scenario):
    """With telemetry off, checkpoint payloads carry no bus state —
    byte-for-byte what they were before the telemetry layer."""
    import pickle
    from repro.core.checkpoint import take_checkpoint
    from repro.core.engine import DodEngine
    engine = DodEngine(scenario)
    engine.build()
    state = pickle.loads(take_checkpoint(engine, 0).payload)
    assert "bus_state" not in state
    telemetered = DodEngine(scenario, telemetry=True)
    telemetered.build()
    state = pickle.loads(take_checkpoint(telemetered, 0).payload)
    assert "bus_state" in state
