"""The world is the state: an engine's egress ports are rows of
``world.egress``, so nothing of the OOD automaton's object graph
(``EgressPort`` -> ``Scheduler`` -> ``PortStats``) is held, pickled or
restored by the DOD engine."""

import io
import pickle

import pytest

from repro.core.checkpoint import (
    Checkpoint, restore_checkpoint, take_checkpoint,
)
from repro.core.engine import DodEngine
from repro.errors import SimulationError
from repro.scenario import make_scenario
from repro.schedulers import SchedulerKind
from repro.traffic import Flow, Transport


def pickled_globals(payload):
    """``(module, name)`` of every GLOBAL / STACK_GLOBAL opcode — each
    one is a ``find_class`` call of the unpickler."""
    seen = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            seen.add((module, name))
            return super().find_class(module, name)

    Recorder(io.BytesIO(payload)).load()
    return seen


@pytest.mark.parametrize("kind", list(SchedulerKind))
def test_checkpoint_names_no_automaton_class(small_dumbbell, kind):
    flows = [Flow(i, i, 4 + i, 150_000, 0, Transport.DCTCP, priority=i % 3)
             for i in range(4)]
    scenario = make_scenario(small_dumbbell, flows, scheduler=kind,
                             num_classes=3)
    engine = DodEngine(scenario)
    engine.build()
    assert not hasattr(engine, "ports")
    for _ in range(40):
        engine.advance()
    assert engine.active_ports, "nothing queued: the snapshot is trivial"
    modules = {module for module, _name in pickled_globals(
        take_checkpoint(engine, engine._cursor).payload)}
    assert not {m for m in modules if m.startswith("repro.schedulers")
                or m == "repro.protocols.egress"}, modules


def test_v2_checkpoint_is_refused(dumbbell_scenario):
    """v2 payloads carried the ports as an object graph next to the
    world; unpickling one into this engine would drop them silently."""
    engine = DodEngine(dumbbell_scenario)
    engine.build()
    current = take_checkpoint(engine, 0)
    stale = Checkpoint("dons-checkpoint-v2", current.scenario_name, 0,
                       current.payload)
    with pytest.raises(SimulationError, match="format"):
        restore_checkpoint(engine, stale)
