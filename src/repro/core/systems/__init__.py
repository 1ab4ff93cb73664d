"""The four systems of the DOD engine, executed in LCC-safe order:
ACKSystem, SendSystem, ForwardSystem, TransmitSystem (§3.3).

Each system is written in the plan → kernel → commit shape: ``plan_*``
builds the work list (one task per host, flow, switch or port),
``*_kernel`` is a pure function over one task's column slice, and
``commit_*`` consolidates the kernel outputs in task order.

These modules are the Python reference (scalar orchestration over list
columns), which the engine runs back to back on the ``python`` backend.
The ``numpy`` backend runs the same kernels and commit helpers through
one fused pass, :func:`repro.core.systems.vectorized.run_window_fused`
(imported by the engine only when that backend is selected)."""

from .ack import ack_kernel, commit_ack, plan_ack, run_ack_system
from .send import commit_send, plan_send, run_send_system, send_kernel
from .forward import (
    commit_forward, forward_kernel, plan_forward, run_forward_system,
)
from .transmit import (
    commit_transmit, plan_transmit, run_transmit_system, transmit_kernel,
)

__all__ = [
    "run_ack_system", "run_send_system",
    "run_forward_system", "run_transmit_system",
    "plan_ack", "ack_kernel", "commit_ack",
    "plan_send", "send_kernel", "commit_send",
    "plan_forward", "forward_kernel", "commit_forward",
    "plan_transmit", "transmit_kernel", "commit_transmit",
]
