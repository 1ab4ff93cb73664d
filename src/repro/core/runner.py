"""The unified engine runtime: one drive-and-collect loop for all engines.

Every simulator family used to hand-roll the same outer loop — build the
scenario state, advance until exhausted, assemble results, tear down.
:class:`EngineRunner` owns that loop once; an engine only has to
implement the small :class:`Engine` protocol:

* ``build()`` — construct entities/state from the scenario (idempotence
  is the engine's concern; the runner calls it once if ``built`` is
  false).
* ``advance() -> bool`` — execute one unit of progress (a lookahead
  window for the DOD engine, one event for the OOD baseline) and return
  whether more work remains.
* ``finalize() -> SimResults`` — assemble results and release resources
  (agent processes, open files).  The runner calls it from a ``finally``
  block, so resources are reclaimed even when a run raises.

``repro.cli``, the benchmarks, and the distributed stack all collect
results through this path instead of private copies of it: a
:class:`~repro.cluster.runtime.ClusterEngine` implements the same
protocol with *one cluster-wide lookahead window* as its ``advance()``
unit, so a distributed run — ``python -m repro profile --cluster``
included — shares this loop.  The runner itself stays cursor-agnostic
— ``advance()`` is always "do the next unit" — and runs to exhaustion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from .instrument import InstrumentationBus
    from ..metrics import SimResults


@runtime_checkable
class Engine(Protocol):
    """What the runner needs from a simulator."""

    name: str
    results: "SimResults"
    bus: "InstrumentationBus"
    built: bool

    def build(self) -> None:
        """Instantiate scenario state (entities, ports, initial events)."""

    def advance(self) -> bool:
        """Execute one unit of progress; False when the run is exhausted."""

    def finalize(self) -> "SimResults":
        """Assemble results and release resources (idempotent)."""


class EngineRunner:
    """Drives one engine from build to finalized results.

    ``on_step`` is an optional per-advance callback ``fn(steps)`` — the
    CLI's ``--progress`` line hangs off it; exceptions it raises
    propagate (it is a driver hook, not a subscriber).
    """

    def __init__(self, engine: "Engine", on_step=None) -> None:
        self.engine = engine
        self.on_step = on_step
        self.steps = 0

    def run(self) -> "SimResults":
        """Build if needed, advance to exhaustion, always finalize."""
        engine = self.engine
        bus = getattr(engine, "bus", None)
        record = bus is not None and getattr(bus, "telemetry", False)
        if record:
            t0 = bus.now()
        if not engine.built:
            engine.build()
        if record:
            bus.span_add("build", t0, bus.now(), "run",
                         {"engine": engine.name})
        on_step = self.on_step
        try:
            while engine.advance():
                self.steps += 1
                if on_step is not None:
                    on_step(self.steps)
        finally:
            engine.finalize()
            if record:
                bus.span_add("run", t0, bus.now(), "run",
                             {"engine": engine.name, "steps": self.steps})
        return engine.results


def chain_hooks(*hooks):
    """Compose per-step callbacks into one ``on_step``.

    ``EngineRunner`` takes a single hook; the CLI sometimes needs two on
    the same run (the ``--progress`` stderr meter *and* the live
    observability sampler).  ``None`` entries are dropped; a single
    survivor is returned as-is so the common one-hook path pays nothing.
    """
    live = [h for h in hooks if h is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def chained(steps: int) -> None:
        for hook in live:
            hook(steps)

    return chained

