"""The four systems of the DOD engine, executed in LCC-safe order:
ACKSystem, SendSystem, ForwardSystem, TransmitSystem (§3.3).

There is one window pipeline — pop the window's columns, classify them
once (:func:`repro.core.window.plan_window`), run the four systems over
the plan's slices (:func:`run_window`), commit — and one set of systems
that runs it.  Each system is one sweep over its slice of the plan:

* ACK sorts each host's deliveries and sweeps every host in one
  :func:`ack_window` call that commits in place;
* Send runs :func:`send_kernel` per flow and stages the outputs in
  flow order through :func:`commit_send`;
* Forward routes every switch arrival straight into the window's
  staging lists through a cross-window route cache;
* Transmit replays the window's port list in one ``replay_window``
  call with an in-place delivery sink (on a cluster agent a remote
  peer's packets go to its owner's outbox), traced or not: an observed
  window's sink publishes each port's op and trace records after it.

The systems stay individually callable in any order
(``bench/naive_order.py`` runs the rejected one)."""

from time import perf_counter

from .ack import ack_window, run_ack_system
from .send import commit_send, run_send_system, send_kernel
from .forward import run_forward_system
from .transmit import plan_transmit, run_transmit_system

__all__ = [
    "run_window",
    "run_ack_system", "run_send_system",
    "run_forward_system", "run_transmit_system",
    "ack_window",
    "send_kernel", "commit_send",
    "plan_transmit",
]


def run_window(engine, ctx, plan):
    """The four systems back to back over ``plan``; returns the five
    ``perf_counter`` phase marks ``(t0..t4)``."""
    ack_work, send_plan, forward_work = plan
    clock = perf_counter
    t0 = clock()
    run_ack_system(engine, ctx, ack_work)
    t1 = clock()
    run_send_system(engine, ctx, send_plan)
    t2 = clock()
    run_forward_system(engine, ctx, forward_work)
    t3 = clock()
    run_transmit_system(engine, ctx)
    t4 = clock()
    return t0, t1, t2, t3, t4
