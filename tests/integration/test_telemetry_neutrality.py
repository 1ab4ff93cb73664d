"""Telemetry must be observationally invisible to the simulation.

The acceptance bar for the telemetry layer: the trace digest is
identical with recording on and off, serial and under both cluster
transports — spans and metric sampling only ever *read*
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
    return _digest(run_dons(scenario, TraceLevel.FULL))


@pytest.mark.parametrize("which", ["scenario", "fattree4_scenario"])
def test_single_engine_digest_neutral(request, which):
    """Telemetry does not move the digest."""
    sc = request.getfixturevalue(which)
    reference = _digest(run_dons(sc, TraceLevel.FULL, telemetry=False))
    on = run_dons(sc, TraceLevel.FULL, telemetry=True)
    assert _digest(on) == reference
    off = run_dons(sc, TraceLevel.FULL, telemetry=False)
    assert _digest(off) == reference
    # The memo's own spans and histogram ride the same bus.
    memo = run_dons(sc, TraceLevel.FULL, telemetry=True, ffwd=True)
    assert _digest(memo) == reference


@pytest.mark.parametrize(
    "transport", ["local", pytest.param("shm", id="process")])
def test_cluster_digest_neutral(scenario, reference_digest, transport):
    from repro.cluster import AgentSpec, ClusterEngine
    from repro.core import EngineRunner
    part = contiguous_partition(scenario.topology, 2)
    digests = {}
    for telemetry in (False, True):
        results = EngineRunner(ClusterEngine(
            [AgentSpec(a, scenario, part, TraceLevel.FULL,
                       telemetry=telemetry) for a in range(2)],
            transport=transport)).run()
        digests[telemetry] = results.trace.digest()
    assert digests[False] == digests[True] == reference_digest


def test_checkpoints_carry_the_bus_with_or_without_telemetry(scenario):
    """Telemetry on or off, a checkpoint carries the bus state (the
    window rows and counters a resumed run continues from), and
    restoring it leaves the restoring engine's telemetry switch alone."""
    import pickle
    from repro.core.checkpoint import restore_checkpoint, take_checkpoint
    from repro.core.engine import DodEngine
    checkpoints = {}
    for telemetry in (False, True):
        engine = DodEngine(scenario, telemetry=telemetry)
        engine.build()
        engine.advance()
        checkpoints[telemetry] = take_checkpoint(engine, engine._cursor)
        state = pickle.loads(checkpoints[telemetry].payload)
        assert state["bus_state"]["counters"]["windows"] == 1
    telemetered = DodEngine(scenario, telemetry=True)
    telemetered.build()
    restore_checkpoint(telemetered, checkpoints[False])
    assert telemetered.bus.telemetry
    assert telemetered.progress()["windows"] == 1
