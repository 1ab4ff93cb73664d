"""Fault injection and recovery accounting (§8, Discussion).

The paper's fault-tolerance story is checkpoint-based: periodically
snapshot every agent; when a machine dies, restore the simulation from
the latest snapshot and continue.  This module holds the two small data
types the stack shares:

* :class:`FaultPlan` — a deterministic fault to inject: kill one agent
  when the cluster reaches a given window.  The
  :class:`~repro.cluster.runtime.ClusterEngine` grants the agents a
  horizon that stops in front of that window and then triggers the
  transport's ``kill`` hook (a ``ProcessTransport`` worker is actually
  ``terminate()``-d; a ``LocalTransport`` engine is dropped), so the
  recovery path under test is the real one.
* :class:`RecoveryStats` — what one recovery cost: which snapshot it
  restored and how many already-reported windows were re-executed.

Recovery itself is *coordinated rollback*
(``ClusterEngine._recover`` → ``Transport.restore_all``): every agent —
not just the dead one — is restored from the latest coordinated
snapshot, a dead worker is respawned first, every pair ring is replaced
by a fresh segment, and the normal window loop re-runs from the
snapshot window with the already-reported windows consumed silently.
On a ``ProcessTransport`` the checkpoints travel on the workers' control
pipes, so a rollback strands no segment of its own; the one thing it
can orphan is an oversize batch's blob that the old timeline never
read, which :func:`~repro.cluster.shm.reap_orphans` removes once its
writer has exited.
Because engine state between windows is a pure function of the windows
executed, the recovered run's merged trace is byte-identical to the
fault-free run (tests/cluster/test_fault_recovery.py,
tests/cluster/test_failure_drills.py).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FaultPlan:
    """Kill ``agent`` when the cluster reaches window ``at_window``.

    The kill fires in front of the first agreed cluster window >=
    ``at_window`` (windows with no pending work never run, so an exact
    match may not exist).  ``fired`` records that the fault happened.
    """

    agent: int
    at_window: int
    fired: bool = False


@dataclass
class RecoveryStats:
    """The measured cost of one agent recovery."""

    agent: int
    failed_window: int
    restored_from_window: int
    windows_replayed: int = 0
