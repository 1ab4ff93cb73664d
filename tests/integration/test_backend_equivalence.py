"""Backend equivalence: the NumPy columnar engine is byte-identical.

The vectorized backend replaces the ECS storage and the four system
kernels wholesale, so its conformance gate is the strongest one the
repo has: identical canonical traces — same digests — and the
identical machine-model op stream as the Python reference kernels,
alone and when hosting cluster agents.  Everything here runs the *same
scenario* through both backends and diffs the byte-level observables.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.engine import DodEngine
from repro.core.instrument import OP_FORWARD
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import dumbbell, fattree
from repro.traffic import Flow, Transport, fixed_flows
from repro.units import GBPS


def run_backend(scenario, backend):
    engine = DodEngine(scenario, TraceLevel.FULL, backend=backend)
    results = engine.run()
    return results, engine


def assert_backends_identical(scenario):
    a, _ = run_backend(scenario, "python")
    b, eng = run_backend(scenario, "numpy")
    assert eng.backend == "numpy"
    assert a.trace.digest() == b.trace.digest()
    assert a.trace.sorted_entries() == b.trace.sorted_entries()
    assert a.fcts_ps() == b.fcts_ps()
    assert a.drops == b.drops and a.marks == b.marks
    assert a.events.total == b.events.total
    return a, b


def test_dumbbell_dctcp_serial(dumbbell_scenario):
    a, _ = assert_backends_identical(dumbbell_scenario)
    assert a.completed() == 4


@pytest.mark.parametrize("trace_level", [TraceLevel.NONE, TraceLevel.FULL],
                         ids=["untraced", "traced"])
def test_fattree_op_stream_identical(fattree4_scenario, trace_level):
    """The machine-model probes read the op stream, so the fused pass
    must publish what the four reference systems publish: the same
    ``(code, location, uid)`` sequence, op for op — ``OP_FORWARD`` per
    switch in arrival order included — next to the same trace.  Probes
    run untraced (``run_dons_probed``), where the fused pass takes its
    serial transmit sweep; traced it takes the two-phase commit."""
    runs = {}
    for backend in ("python", "numpy"):
        engine = DodEngine(fattree4_scenario, trace_level, backend=backend)
        ops = []
        engine.bus.subscribe_ops(
            lambda code, location, uid, ops=ops:
            ops.append((code, location, uid)))
        engine.run()
        runs[backend] = ops, engine.bus.trace_digest()
    ops, _digest = runs["python"]
    assert sum(op[0] == OP_FORWARD for op in ops) > 1000
    assert runs["numpy"] == runs["python"]


def test_loss_regime_with_retransmissions():
    topo = dumbbell(8, edge_rate_bps=10 * GBPS, bottleneck_rate_bps=1 * GBPS)
    flows = [Flow(i, i, 8 + i, 120_000, 0) for i in range(8)]
    sc = make_scenario(topo, flows, buffer_bytes=15_000)
    a, _ = assert_backends_identical(sc)
    assert a.drops > 0, "loss regime not exercised"


def test_udp_closed_form_schedule():
    """The vectorized UDP enqueue-time kernel vs the scalar recurrence."""
    topo = dumbbell(4)
    flows = fixed_flows(topo.hosts, n_flows=4, size_bytes=80_000,
                        transport=Transport.UDP, seed=3)
    assert_backends_identical(make_scenario(topo, flows))


def test_cluster_agents_on_numpy_backend(fattree4_scenario):
    """2 local-transport agents hosting NumPy-backed engines equal the
    single-machine Python engine, byte for byte."""
    from repro.cluster import DonsManager
    from repro.des.partition_types import contiguous_partition
    from repro.partition import ClusterSpec

    ref, _ = run_backend(fattree4_scenario, "python")
    partition = contiguous_partition(fattree4_scenario.topology, 2)
    mgr = DonsManager(fattree4_scenario, ClusterSpec.homogeneous(2),
                      TraceLevel.FULL, transport="local", backend="numpy")
    run = mgr.run(partition=partition)
    assert run.results.trace.digest() == ref.trace.digest()

    # The spec round-trips the backend through rebuild (fault recovery
    # and process transports reconstruct agents from their specs).
    from repro.cluster.agent import AgentSpec, spec_of
    spec = AgentSpec(0, fattree4_scenario, partition,
                     TraceLevel.NONE, backend="numpy")
    agent = spec.make()
    assert agent.backend == "numpy"
    assert spec_of(agent).backend == "numpy"


def test_env_var_selects_default_backend(dumbbell_scenario, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    eng = DodEngine(dumbbell_scenario)
    assert eng.backend == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert DodEngine(dumbbell_scenario).backend == "python"
    # An explicit argument beats the environment.
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert DodEngine(dumbbell_scenario, backend="python").backend == "python"


def test_unknown_backend_raises(dumbbell_scenario):
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        DodEngine(dumbbell_scenario, backend="fortran")
