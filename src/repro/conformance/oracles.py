"""Engine oracles: one scenario, every execution stack, canonical traces.

An *oracle* runs one scenario through one engine configuration and
returns an :class:`OracleRun`: the canonicalized trace (via the
instrumentation bus's canonicalization hook), the results object, and
the bus counters.  The conformance runner compares every oracle's trace
against the reference (the classical OOD simulator — the ground truth of
the paper's fidelity claim) and feeds each trace to the reference-free
invariant checkers.

All oracles drive their engine through the shared
:class:`~repro.core.runner.EngineRunner` protocol — the same loop the
CLI and benchmarks use — so what the harness certifies is the code path
users actually run:

* ``ood`` — the OOD baseline (reference).
* ``dons`` — the DOD engine.
* ``dons-ffwd`` — the DOD engine with window-signature memoization +
  fast-forwarding forced on (``core/memo.py``); its byte-identity
  against the rest is the fast-forward conformance gate.
* ``dons-notrace`` / ``dons-ffwd-notrace`` — the same two at
  ``TraceLevel.NONE``, the configuration the benchmark times: nothing
  observes the window, so the TransmitSystem's delivery sink takes its
  unpublished branch (a local peer's packets go straight into the
  event columns) and a memo hit skips replaying its trace tape —
  neither of which a tracing oracle reaches.  There is no trace to diff, so these
  are held to the reference by :func:`result_parts` instead.
* ``cluster-local-N`` / ``cluster-shm-N`` — the cluster runtime over
  N agents (N in 2/3/4), contiguous partition: in-process agents, or
  worker processes exchanging window frames with each other over
  shared-memory pair rings.
* ``checkpoint`` — run a few windows, snapshot, discard the engine,
  resume a fresh one from the checkpoint (the pause/resume path).
* ``fault-recovery`` — 2-agent cluster with periodic snapshots and a
  deliberate agent kill mid-run; recovery must restore byte-identity.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cluster import DonsManager, FaultPlan
from ..core.checkpoint import CheckpointingEngine, take_checkpoint
from ..core.engine import DodEngine
from ..des import OodSimulator
from ..des.partition_types import contiguous_partition
from ..errors import ReproError
from ..metrics import SimResults, TraceLevel
from ..partition import ClusterSpec
from ..scenario import Scenario


@dataclass
class OracleRun:
    """What one oracle produced for one scenario."""

    oracle: str
    #: canonical (sorted) trace entries; ``None`` for a trace-off run
    trace: Optional[List[tuple]]
    results: SimResults
    counters: Dict[str, int] = field(default_factory=dict)
    lookahead_ps: int = 0
    #: :func:`result_parts` of the run — what the trace-off oracles are
    #: compared on; ``None`` for the cluster and recovery oracles, whose
    #: ports live in their agents.
    parts: Optional[List[Tuple[str, Any]]] = None

    @property
    def n_entries(self) -> int:
        return len(self.trace or ())


def result_parts(results: SimResults,
                 port_stats) -> List[Tuple[str, Any]]:
    """What a run without a trace must agree on with the reference, as
    named parts so a mismatch says where: the four event counts with
    drops, marks and tx_bytes, every flow's start and completion, the
    RTT samples, and every port's ``PortStats`` (``port_stats``, in
    interface order).  ``end_time_ps`` is left out — the engines
    legitimately differ there (window end vs last event)."""
    ev = results.events
    parts: List[Tuple[str, Any]] = [
        ("totals", (ev.send, ev.forward, ev.transmit, ev.ack,
                    results.drops, results.marks, results.tx_bytes))]
    parts += [(f"flow {flow_id}", (fr.start_ps, fr.complete_ps))
              for flow_id, fr in sorted(results.flows.items())]
    parts.append(("rtt samples", tuple(results.rtt_samples)))
    parts += [(f"iface {iface_id}", astuple(stats))
              for iface_id, stats in enumerate(port_stats)]
    return parts


def _finish(name: str, scenario: Scenario, results: SimResults,
            counters: Dict[str, int], port_stats=None) -> OracleRun:
    if results.trace is None:
        raise ReproError(f"oracle {name!r} produced no trace")
    return OracleRun(
        oracle=name,
        trace=results.trace.sorted_entries(),
        results=results,
        counters=dict(counters),
        lookahead_ps=scenario.lookahead_ps,
        parts=(result_parts(results, port_stats)
               if port_stats is not None else None),
    )


def run_ood(scenario: Scenario) -> OracleRun:
    sim = OodSimulator(scenario, TraceLevel.FULL)
    return _finish("ood", scenario, sim.run(), {},
                   [port.stats for port in sim.ports])


def run_dod(scenario: Scenario, name: str = "dons", ffwd: bool = False,
            trace: bool = True) -> OracleRun:
    """``trace=False`` runs the engine as the benchmark does, with no
    trace recorder; the run then carries only its result parts."""
    engine = DodEngine(scenario,
                       TraceLevel.FULL if trace else TraceLevel.NONE,
                       ffwd=ffwd)
    results = engine.run()
    run = _finish(name, scenario, results, engine.bus.counters,
                  [engine.port_stats(i)
                   for i in range(len(engine.world.egress))])
    if not trace:
        run.trace = None
    return run


def run_cluster(scenario: Scenario, transport: str, agents: int,
                name: str) -> OracleRun:
    agents = min(agents, scenario.topology.num_nodes)
    partition = contiguous_partition(scenario.topology, agents)
    mgr = DonsManager(scenario, ClusterSpec.homogeneous(agents),
                      TraceLevel.FULL, transport=transport)
    run = mgr.run(partition=partition)
    return _finish(name, scenario, run.results,
                   run.bus.counters if run.bus else {})


#: Checkpoint cadence / fault window of the recovery oracles.  Small on
#: purpose: conformance scenarios are short, and the fault must usually
#: fire (a fault landing after the run ends degrades to a plain cluster
#: run, which is still a valid — just weaker — oracle).
CHECKPOINT_AFTER_WINDOWS = 5
FAULT_AT_WINDOW = 8
FAULT_CHECKPOINT_EVERY = 3


def run_checkpoint_resume(scenario: Scenario) -> OracleRun:
    """Run a few windows, snapshot, discard the engine, resume fresh."""
    engine = DodEngine(scenario, TraceLevel.FULL)
    engine.build()
    current = -1
    for _ in range(CHECKPOINT_AFTER_WINDOWS):
        nxt = engine._next_window(current)
        if nxt is None:
            break
        duration = scenario.duration_ps
        if duration is not None and nxt * engine.lookahead > duration:
            break
        current = nxt
        engine.process_window(current)
    ckpt = take_checkpoint(engine, current)
    del engine  # the "crash": nothing of the first engine survives
    fresh = CheckpointingEngine(scenario, TraceLevel.FULL)
    results = fresh.resume_from(ckpt)
    return _finish("checkpoint", scenario, results, fresh.bus.counters)


def run_fault_recovery(scenario: Scenario) -> OracleRun:
    """2-agent cluster, periodic snapshots, one agent killed mid-run."""
    agents = min(2, scenario.topology.num_nodes)
    partition = contiguous_partition(scenario.topology, agents)
    fault = FaultPlan(agent=agents - 1, at_window=FAULT_AT_WINDOW)
    mgr = DonsManager(scenario, ClusterSpec.homogeneous(agents),
                      TraceLevel.FULL, transport="local",
                      checkpoint_every=FAULT_CHECKPOINT_EVERY, fault=fault)
    run = mgr.run(partition=partition)
    return _finish("fault-recovery", scenario, run.results,
                   run.bus.counters if run.bus else {})


#: Oracle registry: name -> callable(scenario) -> OracleRun.
ORACLES: Dict[str, Callable[[Scenario], OracleRun]] = {
    "ood": run_ood,
    "dons": run_dod,
    # The memoization/fast-forward gate: same engine with the window
    # cache forced on.  Trace byte-identity against every other oracle
    # is what certifies fast-forwarded windows (see core/memo.py).
    "dons-ffwd": lambda sc: run_dod(sc, name="dons-ffwd", ffwd=True),
    "dons-notrace": lambda sc: run_dod(sc, name="dons-notrace",
                                       trace=False),
    "dons-ffwd-notrace": lambda sc: run_dod(
        sc, name="dons-ffwd-notrace", ffwd=True, trace=False),
    "checkpoint": run_checkpoint_resume,
    "fault-recovery": run_fault_recovery,
}
for _n in (2, 3, 4):
    ORACLES[f"cluster-local-{_n}"] = (
        lambda sc, n=_n: run_cluster(sc, "local", n, f"cluster-local-{n}"))
    ORACLES[f"cluster-shm-{_n}"] = (
        lambda sc, n=_n: run_cluster(sc, "shm", n, f"cluster-shm-{n}"))

#: The acceptance set: every stack the fidelity claim covers.  The first
#: entry is the reference every other trace is diffed against.
DEFAULT_ORACLES: Tuple[str, ...] = (
    "ood", "dons", "dons-ffwd", "dons-notrace", "dons-ffwd-notrace",
    "cluster-local-2", "cluster-local-3", "cluster-shm-2",
    "checkpoint", "fault-recovery",
)


def run_oracle(name: str, scenario: Scenario) -> OracleRun:
    try:
        oracle = ORACLES[name]
    except KeyError:
        raise ReproError(
            f"unknown oracle {name!r}; known: {', '.join(sorted(ORACLES))}"
        )
    return oracle(scenario)
