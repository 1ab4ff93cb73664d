"""Shared fixtures: small, fast scenarios reused across the suite,
plus a teardown guard against leaked cluster worker processes and a
time limit that turns a hung cluster barrier into a failure."""

from __future__ import annotations

import multiprocessing
import signal

import pytest

from repro.cluster.shm import remove_segment
from repro.scenario import Scenario, make_scenario
from repro.topology import dumbbell, fattree
from repro.traffic import Flow, Transport
from repro.units import GBPS, us
from shm_leaks import leaked_segments

#: Seconds to wait for a leaked agent worker to die before escalating.
_REAP_TIMEOUT_S = 5.0

#: Budget of one test that drives cluster agents (the slowest takes a
#: few seconds): a barrier that hangs must fail here, in seconds, not
#: stall the whole tier-1 run.
_CLUSTER_TEST_TIMEOUT_S = 30.0


class ClusterTestTimeout(Exception):
    """A cluster test outlived its budget (hung barrier, lost worker)."""


@pytest.fixture(autouse=True)
def reap_leaked_agent_workers():
    """Fail fast — and clean up — if a test leaks ProcessTransport workers
    or shared-memory segments.

    Every cluster worker process is named ``dons-agent-<id>`` by the
    transport, and every shared segment the shm transport creates starts
    with :data:`repro.cluster.shm.SEGMENT_PREFIX` and its owner's pid.
    A test that aborts mid-run (assertion failure, raised exception,
    fault-injection path gone wrong) can strand both: workers parked on
    their command queues, segments pinned in ``/dev/shm``.  This fixture
    terminates and joins surviving workers and unlinks the leftover
    segments of :func:`shm_leaks.leaked_segments` after each test, then
    fails the test that leaked them so the leak is fixed at the source
    rather than masked.  Another live run's segments are left alone.
    """
    yield
    leaked = [
        p for p in multiprocessing.active_children()
        if p.name.startswith("dons-agent-")
    ]
    names = [p.name for p in leaked]
    for proc in leaked:
        proc.terminate()
    deadline = _REAP_TIMEOUT_S
    for proc in leaked:
        proc.join(timeout=deadline)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=deadline)
    # Workers must be dead before reaping segments, else a live worker
    # could recreate what we just unlinked.
    reaped = [name for name in leaked_segments() if remove_segment(name)]
    if not leaked and not reaped:
        return
    problems = []
    if names:
        problems.append(
            f"worker processes: {', '.join(sorted(names))} (terminated)")
    if reaped:
        problems.append(
            f"shared-memory segments: {', '.join(reaped)} (unlinked)")
    pytest.fail("test leaked " + "; ".join(problems))


@pytest.fixture(autouse=True)
def cluster_test_time_limit(request, reap_leaked_agent_workers):
    """SIGALRM budget for everything under ``tests/cluster`` and
    ``tests/integration`` (no ``pytest-timeout`` here).  Depends on the
    reaper so that, after a timeout, the stranded workers and segments
    are still cleaned up — teardown runs in reverse order."""
    path = str(request.node.fspath)
    if ("/tests/cluster/" not in path and "/tests/integration/" not in path
            or not hasattr(signal, "setitimer")):
        yield
        return

    def on_alarm(_signum, _frame):
        raise ClusterTestTimeout(
            f"{request.node.nodeid} exceeded {_CLUSTER_TEST_TIMEOUT_S:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, _CLUSTER_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_dumbbell():
    """4-pair dumbbell at 10 Gbps."""
    return dumbbell(4, edge_rate_bps=10 * GBPS, bottleneck_rate_bps=10 * GBPS)


@pytest.fixture
def dumbbell_scenario(small_dumbbell) -> Scenario:
    """Four 150 KB DCTCP flows across the dumbbell."""
    flows = [
        Flow(i, i, 4 + i, 150_000, 0, Transport.DCTCP) for i in range(4)
    ]
    return make_scenario(small_dumbbell, flows)


@pytest.fixture
def fattree4():
    """FatTree4 at 10 Gbps (16 hosts, 20 switches)."""
    return fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))


@pytest.fixture
def fattree4_scenario(fattree4) -> Scenario:
    """Mixed DCTCP/UDP flows with staggered starts on FatTree4."""
    hosts = fattree4.hosts
    flows = []
    for i in range(10):
        transport = Transport.DCTCP if i % 3 else Transport.UDP
        flows.append(
            Flow(i, hosts[i % 16], hosts[(i * 7 + 3) % 16],
                 30_000 + 999 * i, i * us(2), transport)
        )
    return make_scenario(fattree4, flows)
