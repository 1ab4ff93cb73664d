"""What the measuring phases share: the import path of the program under
test, driving an engine through its public protocol from outside, the
checked and time-limited run, and the harness's own spans.

``run.py`` starts the phases with ``src/`` on ``PYTHONPATH`` and every
``REPRO_*`` variable removed from the environment.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy
from repro.cluster.shm import reap_orphans

from estimator import SLICE_EVERY_S, factor, spin, spin_slice
from workloads import Steps, fingerprint, make_engine, make_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: A set-up faster than this is looped until it has run for
#: ``SETUP_LOOP_S`` and reported per iteration.
SETUP_MIN_S = 0.05
SETUP_LOOP_S = 0.10


class RepeatTimeout(Exception):
    """A timed repeat outlived its budget (hung barrier, runaway run)."""


def _on_alarm(_signum, _frame):
    raise RepeatTimeout("repeat exceeded its time limit")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# --- driving an engine from outside ----------------------------------------

def drive(engine):
    """``advance()`` to exhaustion, then ``finalize()``, with a
    calibration slice between two ``advance()`` calls whenever one is
    due, one before the first call and one after ``finalize()``.

    Returns the clock readings around every call: a ``(t0, t1)`` pair
    per ``advance()`` — the last one is the call that found nothing
    left —, the pair around ``finalize()``, a pair per slice, and the
    slices.
    """
    clock = perf_counter
    advances, slice_spans, slices = [], [], []
    more = True
    due = 0.0
    while more:
        t0 = clock()
        if t0 >= due:
            slices.append(spin_slice())
            t1 = clock()
            slice_spans.append((t0, t1))
            due = t1 + SLICE_EVERY_S
            t0 = t1
        more = engine.advance()
        advances.append((t0, clock()))
    t0 = clock()
    engine.finalize()
    t1 = clock()
    slices.append(spin_slice())
    slice_spans.append((t1, clock()))
    return advances, (t0, t1), slice_spans, slices


def reap_cluster(engine) -> None:
    """Failure path of a repeat: stop the agent workers, let the engine
    release what it still holds, then unlink leftover shared-memory
    segments (same order as tests/conftest.py: a live worker could
    recreate a segment)."""
    workers = [p for p in multiprocessing.active_children()
               if p.name.startswith("dons-agent-")]
    for proc in workers:
        proc.terminate()
    for proc in workers:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
    try:
        engine.finalize()
    except Exception:  # its workers are gone; only the clean-up matters
        log("finalize after a failed run: " + traceback.format_exc())
    reap_orphans()


def checked_run(engine, numpy_weight: float, expected: Optional[str],
                timeout_s: float,
                pinned: Optional[int] = None) -> Dict[str, Any]:
    """One timed run of a built engine, bounded by ``timeout_s`` and
    compared with the reference.  Never raises: a run that raised, hung
    or produced different simulated results is a failed operation.
    ``wall_s`` covers the ``advance()`` loop and ``finalize()``;
    ``cal_s`` is the same in calibrated seconds."""
    out: Dict[str, Any] = {"ok": False}
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        advances, finalize, slice_spans, slices = drive(engine)
        signal.setitimer(signal.ITIMER_REAL, 0)
        results = engine.results
        out["advances"] = advances
        out["finalize"] = finalize
        out["slice_spans"] = slice_spans
        out["slices"] = slices
        # The slices inside the run are the harness's time, not the run's.
        out["wall_s"] = (finalize[1] - advances[0][0]
                         - sum(t1 - t0 for t0, t1 in slice_spans[1:-1]))
        out["factor"] = factor(slices, numpy_weight)
        out["cal_s"] = out["wall_s"] * out["factor"]
        out["events"] = results.events.total
        out["results"] = results
        if expected is not None and fingerprint(results) != expected:
            out["error"] = "result fingerprint differs from the OOD reference"
        elif pinned is not None and results.events.total != pinned:
            out["error"] = (f"{results.events.total} simulated events, "
                            f"{pinned} pinned")
        else:
            out["ok"] = True
    except Exception:  # boundary: the remaining repeats must still run
        signal.setitimer(signal.ITIMER_REAL, 0)
        out["error"] = traceback.format_exc()
        reap_cluster(engine)
    if "error" in out:
        log(f"FAILED run: {out['error']}")
    return out


def setup(workload, seed: int, small: bool, steps: Steps,
          reference: bool = False, **variant):
    """Scenario construction plus engine construction and ``build()``;
    ``reference`` builds the OOD simulator on the same inputs instead."""
    scenario = workload.inputs(seed, small, steps)

    def build_engine():
        engine = (make_reference(scenario, **variant) if reference
                  else make_engine(workload, scenario, **variant))
        engine.build()
        return engine

    return scenario, steps.call("engine.build_s", build_engine)


def timed_setup(workload, seed: int, small: bool):
    """One repeat's set-up: ``(engine, calibrated seconds per set-up,
    iterations)``.  A set-up too short to time is looped and reported
    per iteration; the engines it leaves over are released outside the
    timed region.  Calibrated by slices before, after and — when it is
    looped — between iterations."""
    slices = spin()
    t0 = perf_counter()
    _scenario, engine = setup(workload, seed, small, Steps())
    total = perf_counter() - t0
    iterations = 1
    if total < SETUP_MIN_S:
        due = perf_counter() + SLICE_EVERY_S
        while total < SETUP_LOOP_S:
            engine.finalize()
            if perf_counter() >= due:
                slices.append(spin_slice())
                due = perf_counter() + SLICE_EVERY_S
            t0 = perf_counter()
            _scenario, engine = setup(workload, seed, small, Steps())
            total += perf_counter() - t0
            iterations += 1
    slices += spin()
    return (engine,
            total / iterations * factor(slices, workload.numpy_weight),
            iterations)


def environment(args: Dict[str, Any], workload) -> Dict[str, Any]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "git_rev": rev or "unknown",
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "engine_args": {"backend": workload.backend, "ffwd": workload.ffwd,
                        "agents": workload.agents},
        "arguments": args,
    }


# --- the harness's own spans -------------------------------------------------

class Tracer:
    """Spans recorded by the harness around its calls into the program,
    kept in memory as ``[name, t0, t1]`` (``perf_counter`` seconds) and
    nested afterwards by :func:`nest_spans`."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []

    def add(self, name: str, t0: float, t1: float) -> None:
        self.spans.append([name, t0, t1])

    def add_bus(self, bus) -> None:
        """Harvest the spans an engine's ``InstrumentationBus`` recorded
        (bus time is ``perf_counter`` seconds since the bus epoch).
        System and window spans keep their names; the others are
        prefixed with their category (``cluster.agree``,
        ``transport.send``), after the ``a<i>:`` agent tag if any."""
        offset = -bus.rel(0.0)
        for t0, t1, name, cat, _attrs in bus.spans:
            if cat not in ("system", "window"):
                agent, colon, rest = name.rpartition(":")
                name = f"{agent}{colon}{cat}.{rest}"
            self.spans.append([name, t0 + offset, t1 + offset])


def nest_spans(spans: List[List[Any]]) -> List[List[Any]]:
    """Give every span an id and the id of the span that caused it.

    Returns ``[id, parent, name, t0, t1]`` rows.  Spans of cluster
    agents (``a<i>:<name>``, recorded on another process's clock) nest
    among themselves on one track per agent; everything else nests on
    the driver's track.  Within a track the parent of a span is the
    innermost span that contains it; a span nothing contains has
    parent -1.
    """
    def track(name: str) -> str:
        return name.split(":", 1)[0] if ":" in name else ""

    order = sorted(range(len(spans)),
                   key=lambda i: (track(spans[i][0]), spans[i][1],
                                  -spans[i][2]))
    rows: List[List[Any]] = []
    stack: List[int] = []
    current = None
    for new_id, i in enumerate(order):
        name, t0, t1 = spans[i]
        if track(name) != current:
            current = track(name)
            stack = []
        while stack and rows[stack[-1]][4] < t1:
            stack.pop()
        rows.append([new_id, stack[-1] if stack else -1, name, t0, t1])
        stack.append(new_id)
    return rows


def self_times(rows: List[List[Any]]) -> List[float]:
    """Per row of :func:`nest_spans`: the span's duration minus the part
    its child spans cover."""
    own = [row[4] - row[3] for row in rows]
    for _id, parent, _name, t0, t1 in rows:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own
