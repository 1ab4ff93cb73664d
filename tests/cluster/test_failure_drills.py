"""Unhappy-path drills of the process transport: nobody waits
unboundedly on a dead peer.

* a worker ``SIGKILL``-ed mid-run without any checkpoint surfaces as a
  typed error within the budget, and ``finalize()`` still releases every
  process and segment;
* the same kill with periodic snapshots is answered by a coordinated
  rollback and the merged trace is byte-identical to the fault-free run;
* when the *coordinator* of a run is killed, its workers notice the
  closed control pipe and exit on their own.

The scenario runs for ~3,000 windows and an agent may be at most one
progress log (1,024 windows) ahead of the coordinator, so a kill right
after the first reported window always lands mid-run.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cluster import AgentSpec, ClusterEngine
from repro.cluster.shm import reap_orphans
from repro.des.partition_types import contiguous_partition
from repro.errors import ClusterError
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import Transport, fixed_flows
from repro.units import GBPS, us
from shm_leaks import leaked_segments

#: Seconds within which a failure must have surfaced / been survived.
BUDGET_S = 10.0


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = fixed_flows(topo.hosts, n_flows=16, size_bytes=200_000,
                        transport=Transport.DCTCP, seed=3)
    return make_scenario(topo, flows, buffer_bytes=60_000)


def _engine(scenario, transport, **kwargs):
    part = contiguous_partition(scenario.topology, 2)
    specs = [AgentSpec(a, scenario, part, TraceLevel.FULL) for a in range(2)]
    engine = ClusterEngine(specs, transport=transport, **kwargs)
    engine.build()
    return engine


def _sigkill_worker(agent_id):
    (worker,) = [p for p in multiprocessing.active_children()
                 if p.name == f"dons-agent-{agent_id}"]
    os.kill(worker.pid, signal.SIGKILL)


def _agents_alive():
    return [p.name for p in multiprocessing.active_children()
            if p.name.startswith("dons-agent-")]


def test_sigkill_without_checkpoint_fails_fast_and_leaks_nothing(scenario):
    engine = _engine(scenario, "shm")
    t0 = time.monotonic()
    try:
        assert engine.advance()
        _sigkill_worker(1)
        with pytest.raises(ClusterError, match="no checkpoint exists"):
            while engine.advance():
                pass
    finally:
        with pytest.raises(ClusterError):
            engine.finalize()   # the dead agent cannot report
    assert time.monotonic() - t0 < BUDGET_S
    assert _agents_alive() == []
    assert leaked_segments() == []


def test_sigkill_with_checkpoints_recovers_byte_identical(scenario):
    reference = _engine(scenario, "local")
    while reference.advance():
        pass
    expected = reference.finalize()

    engine = _engine(scenario, "shm", checkpoint_every=400)
    t0 = time.monotonic()
    try:
        windows = 0
        while engine.advance():
            windows += 1
            if windows == 450:
                _sigkill_worker(0)
    finally:
        results = engine.finalize()
    assert time.monotonic() - t0 < BUDGET_S
    assert [r.agent for r in engine.recoveries] == [0]
    assert engine.recoveries[0].restored_from_window < engine.recoveries[
        0].failed_window
    # advance() returned True exactly once per cluster window
    assert windows == reference.stats.windows == engine.stats.windows
    assert results.trace.entries == expected.trace.entries
    assert engine.stats == reference.stats


_COORDINATOR = """
import multiprocessing, sys, time
from repro.cluster import AgentSpec, ClusterEngine
from repro.des.partition_types import contiguous_partition
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import Transport, fixed_flows
from repro.units import GBPS, us
topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
flows = fixed_flows(topo.hosts, n_flows=16, size_bytes=200_000,
                    transport=Transport.DCTCP, seed=3)
sc = make_scenario(topo, flows, buffer_bytes=60_000)
part = contiguous_partition(topo, 2)
engine = ClusterEngine([AgentSpec(a, sc, part) for a in range(2)],
                       transport="shm")
engine.build()
assert engine.advance()
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
time.sleep(120)
"""


def _gone(pid):
    """Exited — reaped already, or a zombie nobody will wait for."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def test_workers_exit_when_the_coordinator_is_killed():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", _COORDINATOR], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2
        assert not any(_gone(pid) for pid in workers)
        proc.kill()
        proc.wait(timeout=BUDGET_S)
        deadline = time.monotonic() + BUDGET_S
        while (not all(_gone(pid) for pid in workers)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        survivors = [pid for pid in workers if not _gone(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == [], "workers outlived their coordinator"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        # The killed coordinator could not unlink its rings and board.
        reap_orphans()
