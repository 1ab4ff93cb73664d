"""§3.3 ablation: the naive Send-Forward-Transmit-ACK system order.

The paper proves ACK-Send-Forward-Transmit preserves LCC and rejects
this order: with ACK last, ACK-generated packets miss their window's
TransmitSystem and drift by one lookahead batch, so the trace diverges
from the sequential ground truth (flows still complete).  Bench-only —
the production engine runs the paper order and nothing else.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

from ..core.engine import DodEngine
from ..core.systems import (
    run_ack_system, run_forward_system, run_send_system, run_transmit_system,
)
from ..core.window import ENTRY_TIMER, Entry, WindowContext, plan_window
from ..metrics import TraceLevel
from ..scenario import Scenario


class NaiveOrderEngine(DodEngine):
    """:class:`DodEngine` with ACKSystem last."""

    def __init__(self, scenario: Scenario,
                 trace_level: TraceLevel = TraceLevel.NONE) -> None:
        super().__init__(scenario, trace_level)
        #: packets ACKSystem staged after this window's TransmitSystem ran
        self._carried_staged: Dict[int, list] = {}

    def _insert(self, t: int, node: int, entry: Entry) -> None:
        # ACK-last violates LCC (the ablation's point): an entry can target
        # the running window; clamp it forward, its bucket is already popped.
        win = max(self._window_of(t), self._running_window + 1)
        self.events.insert(win, node, entry)

    def process_window(self, index: int) -> WindowContext:
        ctx = self._open_window(index)
        ack_work, send_plan, forward_work = plan_window(self, ctx)
        for iface_id, staged in self._carried_staged.items():
            ctx.staged.setdefault(iface_id, []).extend(staged)
        t0 = perf_counter()
        run_send_system(self, ctx, send_plan)
        t1 = perf_counter()
        run_forward_system(self, ctx, forward_work)
        t2 = perf_counter()
        run_transmit_system(self, ctx)
        t3 = perf_counter()
        before = {k: len(v) for k, v in ctx.staged.items()}
        t4 = perf_counter()
        run_ack_system(self, ctx, ack_work)
        t5 = perf_counter()
        self._carried_staged = {
            k: v[before.get(k, 0):] for k, v in ctx.staged.items()
            if len(v) > before.get(k, 0)
        }
        if self._carried_staged:
            # Something is pending: the next window must run.
            self._insert((index + 1) * self.lookahead, 0, (ENTRY_TIMER, -1))
        self._close_window(ctx, t5 - t4, t1 - t0, t2 - t1, t3 - t2)
        return ctx
