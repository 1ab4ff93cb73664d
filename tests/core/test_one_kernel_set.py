"""One set of systems runs every window.

``DodEngine``'s ``backend`` keyword survives only because the benchmark
workloads still pass it: whatever it says, the same ``run_window`` runs
and the trace comes out the same.  And ``core/systems`` is plain Python
— every ordering-contract sort is a ``list.sort`` by the contract key.
"""

import re
import sys
from pathlib import Path

import pytest

from repro.conformance.oracles import result_parts
from repro.core import systems as systems_mod
from repro.core.engine import DodEngine
from repro.des import run_baseline
from repro.metrics import TraceLevel

SYSTEMS = Path(systems_mod.__file__).parent


def run_window_codes(engine):
    """The code objects named ``run_window`` called during one run, and
    the run's result parts."""
    codes = set()

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "run_window":
            codes.add(frame.f_code)

    sys.setprofile(profiler)
    try:
        results = engine.run()
    finally:
        sys.setprofile(None)
    stats = [engine.port_stats(i) for i in range(len(engine.world.egress))]
    return codes, result_parts(results, stats)


@pytest.mark.parametrize("trace_level", [TraceLevel.NONE, TraceLevel.FULL])
def test_backend_keyword_selects_nothing(fattree4_scenario, trace_level):
    engines = [DodEngine(fattree4_scenario, trace_level),
               DodEngine(fattree4_scenario, trace_level, backend="python"),
               DodEngine(fattree4_scenario, trace_level, backend="numpy")]
    parts = []
    for engine in engines:
        codes, results = run_window_codes(engine)
        assert codes == {systems_mod.run_window.__code__}
        assert not hasattr(engine, "backend")
        parts.append(results)
    assert parts[0] == parts[1] == parts[2]
    digests = {engine.trace.digest() for engine in engines}
    assert len(digests) == 1
    if trace_level:
        truth = run_baseline(fattree4_scenario, TraceLevel.FULL)
        assert digests == {truth.trace.digest()}


def test_core_systems_import_no_numpy():
    sources = sorted(SYSTEMS.glob("*.py"))
    assert {p.name for p in sources} == {
        "__init__.py", "ack.py", "forward.py", "send.py", "transmit.py"}
    for path in sources:
        assert not re.search(r"\bnumpy\b", path.read_text()), path.name
