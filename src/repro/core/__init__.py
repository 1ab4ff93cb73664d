"""The DONS core: ECS substrate, batch-based engine, four systems,
and the unified run loop (instrumentation bus + engine runner)."""

from .engine import DodEngine, run_dons
from .instrument import InstrumentationBus, SystemProfile
from .runner import Engine, EngineRunner
from .window import WindowContext

__all__ = [
    "DodEngine", "run_dons",
    "Engine", "EngineRunner",
    "InstrumentationBus", "SystemProfile",
    "WindowContext",
]
