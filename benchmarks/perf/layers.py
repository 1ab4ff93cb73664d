"""The ``layers`` phase: where the time of one workload goes.

Everything here is measured from outside the program: by timing calls
into its public functions, by reading the ``InstrumentationBus`` the
engines already own, and by one ``cProfile`` run.  In order:

1. paired rounds — the OOD reference, the workload as configured and
   its variants (other backend, memo off, serial / one agent),
   interleaved so a ratio compares neighbours in time;
2. one traced run (``telemetry=True``, agents too) whose bus spans and
   the harness's own spans are nested into one tree and written to
   ``out/<workload>.trace.json``;
3. one ``cProfile`` run, aggregated by ``src/repro`` module;
4. the scaled-down sibling at ``TraceLevel.FULL``, digest against OOD;
5. layer probes on fixed synthetic input;
6. further paired rounds while the time budget lasts.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.metrics import TraceLevel

from estimator import Slice, factor, percentile, spin, spread
from harness import (
    OUT_DIR, ROOT, Tracer, checked_run, environment, log, nest_spans,
    self_times, setup,
)
from probes import run_probes
from workloads import WORKLOADS, Steps, Workload, fingerprint

#: Paired rounds at most; the first is always made.
MAX_ROUNDS = 3

#: ``pycalls.share.<bucket>``: the ``src/repro`` modules that make the
#: most Python calls across the four workloads.  Calls made anywhere
#: else in ``src/repro`` are ``pycalls.share.other``.
PYCALL_BUCKETS = (
    "core.systems", "core.engine", "core.events", "core.memo",
    "protocols", "schedulers", "cluster",
)

SYSTEMS = ("ack", "send", "forward", "transmit")


def _bucket_of(path: str) -> Optional[str]:
    """``src/repro/core/systems/send.py`` -> ``core.systems``; ``None``
    for code outside ``src/repro``."""
    marker = os.sep + os.path.join("src", "repro") + os.sep
    at = path.rfind(marker)
    if at < 0:
        return None
    parts = path[at + len(marker):].split(os.sep)
    parts[-1] = parts[-1][:-3]  # drop ".py"
    name = ".".join(parts[:2]) if parts[0] == "core" else parts[0]
    return name if name in PYCALL_BUCKETS else "other"


class Session:
    """One workload's layer measurements, sharing seed, reference
    fingerprint, spin history and the attempted/failed tally."""

    def __init__(self, workload: Workload, args: Dict[str, Any]) -> None:
        self.workload = workload
        self.seed = args["seed"]
        self.small = args["small"]
        self.timeout_s = args["timeout_s"]
        self.expected: Optional[str] = None
        #: every calibration slice of the phase (``cal.spin_*``)
        self.slices: List[Slice] = []
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, steps: Optional[Steps] = None,
            small: Optional[bool] = None, expected: Optional[str] = None,
            check: bool = True,
            profiler: Optional[cProfile.Profile] = None,
            **variant) -> Dict[str, Any]:
        """Set up and run one engine variant.  Returns the checked run
        plus the calibration factor of its set-up.  Unless
        ``check`` is off the result is compared with ``expected``
        (default: this session's reference fingerprint, once the first
        OOD run has supplied it)."""
        if check and expected is None:
            expected = self.expected
        # The python backend and the OOD simulator never enter NumPy.
        numpy_weight = self.workload.numpy_weight
        if variant.get("reference") or variant.get("backend") == "python":
            numpy_weight = 0.0
        small = self.small if small is None else small
        steps = steps or Steps()
        gc.collect()
        around_setup = spin()
        _scenario, engine = setup(self.workload, self.seed, small, steps,
                                  **variant)
        around_setup += spin()
        gc.collect()
        if profiler is not None:
            profiler.enable()
        run = checked_run(engine, numpy_weight, expected, self.timeout_s)
        if profiler is not None:
            profiler.disable()
        self.attempted += 1
        if not run["ok"]:
            self.failed += 1
            raise SystemExit(f"layer run {label!r} failed: {run['error']}")
        run["engine"] = engine
        run["setup_factor"] = factor(around_setup, numpy_weight)
        run["steps"] = steps.seconds
        self.slices += around_setup
        self.slices += run["slices"]
        log(f"  {label}: {run['wall_s']:.3f} s raw, "
            f"{run['events'] / run['cal_s']:.0f} cal events/s")
        return run


def _variants(workload: Workload) -> Dict[str, Dict[str, Any]]:
    """The paired runs of one round, by label.  ``ood`` goes first: the
    first one also supplies the reference fingerprint."""
    variants: Dict[str, Dict[str, Any]] = {
        "ood": {"reference": True},
        "base": {},
        "python": {"backend": "python", "agents": 0},
    }
    if workload.ffwd:
        variants["plain"] = {"ffwd": False}
    if workload.agents:
        variants["serial_numpy"] = {"backend": "numpy", "agents": 0}
        variants["one_agent"] = {"agents": 1}
    return variants


def paired_round(session: Session) -> Dict[str, Dict[str, Any]]:
    out = {}
    for label, variant in _variants(session.workload).items():
        steps = Steps() if label == "base" else None
        out[label] = session.run(label, steps=steps, **variant)
        if label == "ood" and session.expected is None:
            session.expected = fingerprint(out[label]["results"])
    return out


def round_metrics(workload: Workload,
                  rounds: List[Dict[str, Dict[str, Any]]]) -> Dict[str, float]:
    """Medians over the rounds; every ratio is paired within a round."""
    def rate(label: str) -> float:
        return median([r[label]["events"] / r[label]["cal_s"]
                       for r in rounds])

    def ratio(num: str, den: str) -> float:
        return median([r[num]["cal_s"] / r[den]["cal_s"] for r in rounds])

    numpy_label = "serial_numpy" if workload.agents else "base"
    m = {
        "des.ood_cal_events_per_s": rate("ood"),
        "des.ratio_dons_over_ood": ratio("base", "ood"),
        "backend.python_cal_events_per_s": rate("python"),
        "backend.ratio_numpy_over_python": ratio(numpy_label, "python"),
        "memo.plain_cal_events_per_s": 0.0,
        "memo.ratio_ffwd_over_plain": 0.0,
        "cluster.ratio_over_serial": 0.0,
        "cluster.ratio_over_best_serial": 0.0,
        "cluster.ratio_1agent_over_serial": 0.0,
        "cluster.overhead_us_per_window": 0.0,
    }
    if workload.ffwd:
        m["memo.plain_cal_events_per_s"] = rate("plain")
        m["memo.ratio_ffwd_over_plain"] = ratio("base", "plain")
    if workload.agents:
        m["cluster.ratio_over_serial"] = ratio("base", "python")
        m["cluster.ratio_over_best_serial"] = ratio("base", "serial_numpy")
        m["cluster.ratio_1agent_over_serial"] = ratio("one_agent", "python")
        m["cluster.overhead_us_per_window"] = median([
            (r["base"]["cal_s"] - r["python"]["cal_s"]) * 1e6
            / (len(r["base"]["advances"]) - 1) for r in rounds])
    return m


def protocol_metrics(base: Dict[str, Any]) -> Dict[str, float]:
    """The engine protocol timed from outside, from one ``base`` run."""
    advances, cal = base["advances"], base["factor"]
    finalize = base["finalize"]
    windows = len(advances) - 1  # the last advance() found nothing left
    per_window = sorted((t1 - t0) * cal * 1e6
                        for t0, t1 in advances[:windows])
    m = {name: seconds * base["setup_factor"]
         for name, seconds in base["steps"].items()}
    m.update({
        "engine.advance_s": base["cal_s"] - (finalize[1] - finalize[0]) * cal,
        "engine.finalize_s": (finalize[1] - finalize[0]) * cal,
        "engine.windows": windows,
        "engine.events_per_window": base["events"] / windows,
        "engine.window_us_p50": percentile(per_window, 0.50),
        "engine.window_us_p99": percentile(per_window, 0.99),
        "run.wall_s_raw": base["wall_s"],
        "run.events_per_s_raw": base["events"] / base["wall_s"],
    })
    return m


def counter_metrics(base: Dict[str, Any]) -> Dict[str, float]:
    """Exact counts: they repeat run to run on the same inputs."""
    events = base["results"].events
    counters = base["engine"].bus.counters
    hits = counters.get("memo.hit", 0)
    misses = counters.get("memo.miss", 0)
    m = {
        "events.send": events.send, "events.forward": events.forward,
        "events.transmit": events.transmit, "events.ack": events.ack,
        "pool.tasks": counters.get("pool.tasks", 0),
        "pool.items": counters.get("pool.items", 0),
        "memo.hit": hits,
        "memo.miss": misses,
        "memo.validate": counters.get("memo.validate", 0),
        "memo.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cluster.windows": counters.get("cluster.windows", 0),
        "transport.shm_frames": counters.get("transport.shm_frames", 0),
        "transport.shm_bytes": counters.get("transport.shm_bytes", 0),
        "transport.shm_fallbacks": counters.get("transport.shm_fallbacks", 0),
        "transport.records_in": counters.get("transport.records_in", 0),
        "transport.rpc_messages": 0,
    }
    if hasattr(base["engine"], "stats"):
        m["transport.rpc_messages"] = base["engine"].stats.rpc_messages
    return m


def traced_run(session: Session, paired_cal_s: float) -> Dict[str, Any]:
    """One run with telemetry on; returns its metrics and the span tree.

    The attribution closes by construction of the tree: the wall time of
    the ``engine.advance_loop`` span equals the sum of the self times of
    itself and everything nested in it.  What no layer span covers is
    reported, not hidden: the self time of the window spans is
    ``engine.window_overhead_s`` (calendar pop, plan glue), of the
    ``engine.advance`` spans ``engine.drain_overhead_s`` (next-window
    search, memo probe), of the loop span itself — the harness's own
    clock reads — ``trace.unattributed_s``.
    """
    tracer = Tracer()
    run = session.run("traced", steps=Steps(tracer), telemetry=True)
    advances, cal = run["advances"], run["factor"]
    bus = run["engine"].bus
    loop = (advances[0][0], advances[-1][1])
    tracer.add("engine.advance_loop", *loop)
    for t0, t1 in advances:
        tracer.add("engine.advance", t0, t1)
    tracer.add("engine.finalize", *run["finalize"])
    for t0, t1 in run["slice_spans"]:
        tracer.add("cal.slice", t0, t1)
    tracer.add_bus(bus)
    rows = nest_spans(tracer.spans)

    total: Dict[str, float] = {}   # by span name, calibrated seconds
    own: Dict[str, float] = {}     # same, self time, driver track in-loop
    for (_id, _parent, name, t0, t1), self_s in zip(rows, self_times(rows)):
        total[name] = total.get(name, 0.0) + (t1 - t0) * cal
        if (":" not in name and name != "cal.slice"
                and loop[0] <= t0 and t1 <= loop[1]):
            own[name] = own.get(name, 0.0) + self_s * cal

    m: Dict[str, float] = {
        "trace.overhead_ratio": run["cal_s"] / paired_cal_s,
        "engine.drain_overhead_s": own["engine.advance"],
        # the harness's clock reads; its calibration slices are not the
        # run's time and are taken out like everywhere else
        "trace.unattributed_s": own["engine.advance_loop"],
        "cluster.agree_s": total.get("cluster.agree", 0.0),
        "cluster.flush_s": total.get("cluster.flush", 0.0),
        "transport.send_s": total.get("transport.send", 0.0),
        "transport.serialize_s": total.get("transport.serialize", 0.0),
        "transport.unpack_s": total.get("transport.unpack", 0.0),
    }
    for system in SYSTEMS:
        # Serial: the engine's own totals.  Cluster: summed over the
        # agents, which run side by side — CPU seconds, not wall.
        m[f"systems.{system}_s"] = cal * sum(
            prof.elapsed_s for name, prof in bus.totals.items()
            if name == system or name.endswith(":" + system))
    window = "window"
    m.update(dict.fromkeys((
        "cluster.agent_compute_s_sum", "cluster.agent_busy_s_max",
        "cluster.barrier_wait_s_sum", "cluster.busy_imbalance"), 0.0))
    if session.workload.agents:
        window = "cluster.window"
        split = cluster_split(bus, cal)
        m.update(split["metrics"])
        # Of a cluster window's self time (fan-out, agents computing,
        # replies), what the slowest agent spent inside its own window
        # is compute on the critical path; the rest is coordination.
        own["agents.critical_path"] = split["critical_s"]
        own[window] -= split["critical_s"]
    m["engine.window_overhead_s"] = own[window]
    return {
        "metrics": m,
        "rows": rows,
        "t_zero": loop[0],
        "attribution": {
            "advance_loop_s": cal * (
                loop[1] - loop[0]
                - sum(t1 - t0 for t0, t1 in run["slice_spans"][1:-1])),
            "self_s": own, "sum_s": sum(own.values())},
        "bus": {
            "counters": dict(bus.counters),
            "totals": {name: {"items": p.items, "tasks": p.tasks,
                              "elapsed_s": p.elapsed_s}
                       for name, p in bus.totals.items()},
            "metrics": bus.metrics.snapshot(),
        },
    }


def cluster_split(bus, cal: float) -> Dict[str, Any]:
    """Agent-side view of a traced cluster run: each agent's own window
    spans, and the busy / barrier-wait gauges the coordinator keeps."""
    slowest: Dict[int, float] = {}   # window index -> slowest agent
    compute = 0.0
    for t0, t1, name, _cat, attrs in bus.spans:
        if name.endswith(":window"):
            index = attrs["index"]
            slowest[index] = max(slowest.get(index, 0.0), t1 - t0)
            compute += t1 - t0
    gauges = bus.metrics.gauges
    busy = [v for k, v in gauges.items() if k.endswith(":busy_s")]
    wait = [v for k, v in gauges.items() if k.endswith(":barrier_wait_s")]
    return {
        "critical_s": sum(slowest.values()) * cal,
        "metrics": {
            "cluster.agent_compute_s_sum": compute * cal,
            "cluster.agent_busy_s_max": max(busy) * cal,
            "cluster.barrier_wait_s_sum": sum(wait) * cal,
            "cluster.busy_imbalance": max(busy) * len(busy) / sum(busy),
        },
    }


def profiled_run(session: Session) -> Dict[str, Any]:
    """Interpreter work: calls into ``src/repro`` functions per event,
    and each module's share of them.  The counts are exact and repeat;
    the ``tottime`` shares kept in the trace file are approximate
    (cProfile charges every call, not native work)."""
    profiler = cProfile.Profile()
    run = session.run("cprofile", profiler=profiler)
    calls: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    for (path, _line, _fn), (_cc, nc, tt, _ct, _callers) in \
            pstats.Stats(profiler).stats.items():
        bucket = _bucket_of(path)
        if bucket is not None:
            calls[bucket] = calls.get(bucket, 0) + nc
            seconds[bucket] = seconds.get(bucket, 0.0) + tt
    total_calls = sum(calls.values())
    total_s = sum(seconds.values())
    m = {"pycalls.per_event": total_calls / run["events"]}
    for bucket in PYCALL_BUCKETS + ("other",):
        m[f"pycalls.share.{bucket}"] = calls.get(bucket, 0) / total_calls
    return {
        "metrics": m,
        "approximate_tottime_share": {
            bucket: s / total_s for bucket, s in sorted(seconds.items())},
    }


def digest_check(session: Session) -> Dict[str, Any]:
    """The scaled-down sibling at full trace level: the workload's
    engine must reproduce the OOD trace byte for byte."""
    ood = session.run("sibling ood", small=True, reference=True,
                      check=False, trace_level=TraceLevel.FULL)
    want = fingerprint(ood["results"])
    dons = session.run("sibling dons", small=True, expected=want,
                       trace_level=TraceLevel.FULL)
    a = ood["results"].trace.digest()
    b = dons["results"].trace.digest()
    if a != b:
        session.failed += 1
        log(f"FAILED digest check: ood {a} != dons {b}")
    return {"ood": a, "dons": b, "equal": a == b,
            "entries": len(ood["results"].trace)}


def phase_layers(args: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[args["workload"]]
    session = Session(workload, args)
    t_start = perf_counter()

    rounds = [paired_round(session)]
    round_s = perf_counter() - t_start
    base = rounds[0]["base"]
    metrics = protocol_metrics(base)
    metrics.update(counter_metrics(base))
    traced = traced_run(session, base["cal_s"])
    metrics.update(traced["metrics"])
    profile = profiled_run(session)
    metrics.update(profile["metrics"])
    digest = digest_check(session)
    metrics.update(run_probes(session.slices))
    while (len(rounds) < MAX_ROUNDS and args.get("repeats") is None
           and perf_counter() - t_start + round_s <= args["seconds"]):
        rounds.append(paired_round(session))
    metrics.update(round_metrics(workload, rounds))
    metrics["cluster.agent_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if workload.agents else 0.0)
    whole = [py + nps for py, nps in session.slices]
    metrics["cal.spin_ms"] = median(whole) * 1e3
    metrics["cal.spin_spread"] = spread(whole)

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{workload.name}.trace.json")
    names = sorted({row[2] for row in traced["rows"]})
    index = {name: i for i, name in enumerate(names)}
    t_zero = traced["t_zero"]
    with open(trace_path, "w") as fh:
        json.dump({
            "workload": workload.name,
            "environment": environment(args, workload),
            "span_names": names,
            "span_columns": ["id", "parent", "name", "t0_s", "t1_s"],
            "spans": [[i, p, index[n], round(t0 - t_zero, 7),
                       round(t1 - t_zero, 7)]
                      for i, p, n, t0, t1 in traced["rows"]],
            "attribution": traced["attribution"],
            "bus": traced["bus"],
            "pycalls_approximate_tottime_share":
                profile["approximate_tottime_share"],
            "digest_check": digest,
            "rounds": len(rounds),
            "metrics": metrics,
        }, fh)
    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
        "detail": {
            "rounds": len(rounds),
            "digest_equal": digest["equal"],
            "attribution": traced["attribution"],
            "trace_file": os.path.relpath(trace_path, ROOT),
        },
    }
