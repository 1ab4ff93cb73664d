"""The four systems of the DOD engine, executed in LCC-safe order:
ACKSystem, SendSystem, ForwardSystem, TransmitSystem (§3.3).

There is one window pipeline — pop the window's columns, classify them
once (:func:`repro.core.window.plan_window`), run the four phases over
the plan's slices, commit — and ``backend`` picks the kernel set that
runs the phases, never another pipeline:

* these modules are the Python reference kernels
  (:func:`run_window_reference`): each system takes its slice of the
  plan.  The ACK system sorts each host's deliveries and sweeps every
  host in one :func:`ack_window` call that commits in place; Send,
  Forward and Transmit run a pure ``*_kernel`` per task (one flow,
  switch or port) and consolidate the outputs in task order through
  ``commit_*``.  The systems stay individually callable in any order
  (``bench/naive_order.py`` runs the rejected one);
* the ``numpy`` kernels are
  :func:`repro.core.systems.vectorized.run_window_fused` (imported by
  the engine only when that backend is selected), which share
  :func:`ack_window`, the send / transmit commit helpers, the two-phase
  :func:`transmit_kernel` and ``replay_window`` with the reference."""

from time import perf_counter

from .ack import ack_window, run_ack_system
from .send import commit_send, run_send_system, send_kernel
from .forward import commit_forward, forward_kernel, run_forward_system
from .transmit import (
    commit_transmit, plan_transmit, run_transmit_system, transmit_kernel,
)

__all__ = [
    "run_window_reference",
    "run_ack_system", "run_send_system",
    "run_forward_system", "run_transmit_system",
    "ack_window",
    "send_kernel", "commit_send",
    "forward_kernel", "commit_forward",
    "plan_transmit", "transmit_kernel", "commit_transmit",
]


def run_window_reference(engine, ctx, plan):
    """The four reference systems back to back over ``plan``; returns
    the five ``perf_counter`` phase marks ``(t0..t4)``."""
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
