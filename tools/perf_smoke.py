#!/usr/bin/env python
"""Perf smoke harness: the columnar hot path must not regress.

Runs a fixed FatTree4 DCTCP scenario on both engines (the OOD baseline
and the DOD engine, the latter on both the Python and NumPy backends),
measures wall-clock and event counts, writes a JSON report, and asserts
the DOD engine has not regressed more than ``--tolerance`` (default
20%) against the recorded baseline.  The NumPy backend carries standing
gates of its own: its event counts must equal the Python backend's
exactly, ``ratio_numpy_over_python`` must stay below ``NUMPY_GATE``
(the vectorized backend exists to be faster).

The telemetry layer carries its own standing gates: a fully
instrumented run (``ratio_telemetry_over_plain``) must stay under
``TELEMETRY_GATE`` and must reproduce the plain run's event counts
exactly.

The live observability plane (``repro.metrics.live``) is gated the
same way: a plain (untelemetered) run with the full plane attached —
NDJSON sampler at a 50 ms interval plus a live OpenMetrics endpoint —
must stay under ``LIVE_GATE`` of the bare run beside it
(``ratio_live_over_plain``, paired per repeat) and must reproduce its
event counts exactly.

The window-signature memo (``repro.core.memo``) is gated on a separate
steady-state UDP scenario where its hit rate is near 100%: the
fast-forwarded run must reproduce the plain run's event counts exactly,
record a nonzero hit count, skip most of its windows inside cycle jumps
(a count, not a timing), and keep ``ratio_ffwd_over_plain`` under
``FFWD_GATE``.

The workload library carries a standing gate on its headline scale: a
100k-flow DiffServ WAN twin (``wan_twin_s``) is synthesized columnar
and executed on the preferred backend every repeat; the flow budget
must be met and the python/numpy backends must agree on its event
counts exactly.

The distributed stack is measured on the zero-copy shared-memory
transport (2 process agents, ``transport="shm"``), paired per repeat
against the best serial engine run of the same iteration, plus a
1/2/4-agent ``cluster_scaling`` curve for the CI artifact.  Standing
gates: the merged cluster run must reproduce the serial event counts
exactly, and — on a machine with at least two usable cores, where
agent parallelism is physically possible — ``ratio_cluster_over_dons``
must stay under ``CLUSTER_GATE`` (= 1.0: the cluster exists to beat
serial).  On a single-core machine the ratio degrades to
baseline-relative monitoring like the dons/ood ratio, because two
agents time-slicing one core cannot beat the engine they are
time-slicing; ``cpus`` in the report records which regime was
measured.

Wall-clock is machine-dependent, so the regression check is *relative*:
the dons/ood time ratio of this run is compared against the baseline's
ratio — the OOD engine acts as the per-machine speed calibration, the
way the cost model uses measured quantities instead of absolute clocks.
Event counts are deterministic and must match the baseline exactly.

Usage:

    PYTHONPATH=src python tools/perf_smoke.py             # check
    PYTHONPATH=src python tools/perf_smoke.py --record    # re-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

BASELINE = os.path.join(REPO, "tools", "BENCH_smoke_baseline.json")
REPORT = os.path.join(REPO, "BENCH_smoke.json")
REPEATS = 3
#: Standing gate: a fully-telemetered run (spans + metric sampling on)
#: may cost at most 15% over the plain run on the same scenario.  The
#: *disabled* path has no within-run reference (its guards are compiled
#: into every run), so it is held by the baseline-relative dons/ood
#: ratio check instead.
TELEMETRY_GATE = 1.15
#: Standing gate on the live observability plane: a plain run with the
#: NDJSON sampler (50 ms interval) + OpenMetrics endpoint attached may
#: cost at most 5% over the bare run beside it.  The sampler reads
#: engine state between windows and is wall-clock throttled, so its
#: steady-state cost is one perf_counter comparison per window.
LIVE_GATE = 1.05
#: Standing gate on the vectorized backend: numpy/python wall-clock on
#: the smoke scenario.  The columnar pipeline (raw-column plan pass,
#: fused serial forward, inline class-aware port replay with column
#: delivery) measures 0.55–0.68 on the reference machine, best-of-3;
#: the gate sits at 0.75 to absorb machine noise while still failing
#: any change that costs the backend its structural advantage.  (The
#: original target for this work was 0.5 — the measured best is ~0.55,
#: so the gate encodes what the code actually achieves.)
NUMPY_GATE = 0.75
#: Standing gate on the window-signature memo (repro.core.memo): the
#: fast-forwarded steady-state run over the plain run of the same
#: scenario on the reference backend, paired per repeat.  With cycle
#: jumps (> 95% of the windows skipped, one executed validation in 32)
#: ten runs measured 0.076-0.087 and 0.143 for a cold first repeat
#: (docs/PERFORMANCE.md, "Memo"); it was 0.33-0.41 when every hit paid
#: a probe and an apply.  The gate sits above all ten and below half of
#: the old range, so losing the jumps fails it.
FFWD_GATE = 0.2
#: Standing gate on the distributed stack: the 2-agent shared-memory
#: cluster over the best serial engine run, paired per repeat.  Enforced
#: only when the machine has >= CLUSTER_GATE_MIN_CPUS usable cores —
#: below that the agents time-slice one core and the ratio is held by
#: the baseline-relative check instead.
CLUSTER_GATE = 1.0
CLUSTER_GATE_MIN_CPUS = 2
#: Agent counts of the cluster scaling curve in the report/artifact.
CLUSTER_CURVE = (1, 2, 4)


def smoke_scenario():
    from repro.scenario import make_scenario
    from repro.topology import fattree
    from repro.traffic import Transport, fixed_flows
    from repro.units import GBPS

    topo = fattree(4, rate_bps=10 * GBPS)
    flows = fixed_flows(topo.hosts, n_flows=64, size_bytes=200_000,
                        transport=Transport.DCTCP, seed=1)
    return make_scenario(topo, flows, name="FatTree4-dctcp-smoke")


def _events(results) -> dict:
    ev = results.events
    return {"total": ev.total, "send": ev.send, "forward": ev.forward,
            "transmit": ev.transmit, "ack": ev.ack,
            "completed": results.completed()}


def fuzz_runner_spec():
    """The fixed conformance spec the fuzz-runner entry times.  Small
    enough to keep the smoke fast; big enough that harness overhead
    (FULL traces, canonicalization, diff, invariant catalogue) is a
    measurable slice of the check."""
    from repro.conformance.generator import ScenarioSpec

    return ScenarioSpec(seed=11, topology="dumbbell", topo_arg=4,
                        traffic="fixed", n_flows=16, flow_kb=60)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def measure() -> dict:
    """Best-of-N wall-clock for both engines on the fixed scenario,
    plus 1/2/4-agent cluster runs of the same scenario on the
    shared-memory process transport (the distributed stack's cost
    relative to one engine: window agreement, frame packing, FINISH
    barriers — and, with >= 2 cores, its parallel speedup), plus one
    conformance ``check_spec`` on a fixed spec (the fuzz-runner entry:
    FULL-trace oracle runs + diff + invariants, so harness overhead is
    tracked like any other hot path)."""
    from repro.bench.scenarios import steady_state_scenario
    from repro.bench.workloads import wan_twin_smoke
    from repro.cluster import DonsManager
    from repro.conformance.runner import check_spec
    from repro.core.engine import DodEngine, run_dons
    from repro.core.runner import EngineRunner
    from repro.des import run_baseline
    from repro.metrics.live import LivePlane
    from repro.des.partition_types import contiguous_partition
    from repro.partition import ClusterSpec

    try:
        import numpy  # noqa: F401  (availability probe only)
        have_numpy = True
    except ImportError:
        have_numpy = False

    from repro.metrics.timeline import TELEMETRY_SCHEMA_VERSION

    scenario = smoke_scenario()
    steady = steady_state_scenario()
    # The workload-library entry: a 100k-flow DiffServ WAN twin
    # synthesized columnar (the arrival engine's headline scale).  The
    # duration cut keeps the executed event count smoke-sized; the
    # synthesis itself covers all 100k flows every repeat.
    wan_twin = wan_twin_smoke(100_000)
    partitions = {n: contiguous_partition(scenario.topology, n)
                  for n in CLUSTER_CURVE}
    fuzz_spec = fuzz_runner_spec()
    ood_s, dons_s, numpy_s, fuzz_s = [], [], [], []
    cluster_curve_s = {n: [] for n in CLUSTER_CURVE}
    telem_s, live_s = [], []
    steady_s, ffwd_s = [], []
    wan_s = []
    ood_res = dons_res = numpy_res = cluster_run = fuzz_report = None
    telem_res = steady_res = ffwd_res = None
    live_res = None
    wan_res = wan_py_res = None
    ffwd_hits = ffwd_jump_windows = 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        ood_res = run_baseline(scenario)
        ood_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        dons_res = run_dons(scenario, backend="python")
        dons_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        telem_res = run_dons(scenario, backend="python", telemetry=True)
        telem_s.append(time.perf_counter() - t0)
        # The live-plane entry: the same plain (untelemetered) run with
        # the full plane attached — NDJSON sampler at the 50 ms default
        # interval and a live OpenMetrics endpoint.  Plane construction
        # and teardown (server bind/join) stay outside the timed region;
        # the gate measures the per-window sampling cost a production
        # run would pay.
        eng = DodEngine(scenario, backend="python")
        plane = LivePlane(eng, path=os.devnull, interval_ms=50,
                          metrics_port=0)
        try:
            t0 = time.perf_counter()
            EngineRunner(eng, on_step=plane.on_step).run()
            live_s.append(time.perf_counter() - t0)
        finally:
            plane.close()
        live_res = eng.results
        if have_numpy:
            t0 = time.perf_counter()
            numpy_res = run_dons(scenario, backend="numpy")
            numpy_s.append(time.perf_counter() - t0)
        # The fast-forward entries run the steady-state UDP scenario on
        # the reference backend, plain vs memoized, pinned like the
        # others so a CI matrix exporting REPRO_FFWD cannot change what
        # is timed.
        t0 = time.perf_counter()
        steady_res = run_dons(steady, backend="python", ffwd=False)
        steady_s.append(time.perf_counter() - t0)
        eng = DodEngine(steady, backend="python", ffwd=True)
        t0 = time.perf_counter()
        ffwd_res = eng.run()
        ffwd_s.append(time.perf_counter() - t0)
        ffwd_hits = eng.bus.counters.get("memo.hit", 0)
        ffwd_jump_windows = eng.bus.counters.get("memo.jump_windows", 0)
        # The cluster curve runs the zero-copy shared-memory transport
        # at every agent count, in the same iteration as the serial
        # runs, so the speedup ratio can be paired per repeat.
        for n in CLUSTER_CURVE:
            t0 = time.perf_counter()
            run = DonsManager(scenario, ClusterSpec.homogeneous(n),
                              transport="shm").run(partition=partitions[n])
            cluster_curve_s[n].append(time.perf_counter() - t0)
            if n == 2:
                cluster_run = run
        # The WAN-twin entry times the preferred backend; one untimed
        # python-backend run backs the cross-backend event-equality gate
        # (counts are deterministic, so once is enough).
        wan_backend = "numpy" if have_numpy else "python"
        t0 = time.perf_counter()
        wan_res = run_dons(wan_twin, backend=wan_backend)
        wan_s.append(time.perf_counter() - t0)
        if wan_py_res is None:
            wan_py_res = (run_dons(wan_twin, backend="python")
                          if have_numpy else wan_res)
        t0 = time.perf_counter()
        fuzz_report = check_spec(fuzz_spec, ("ood", "dons"))
        fuzz_s.append(time.perf_counter() - t0)
    return {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "scenario": scenario.name,
        "repeats": REPEATS,
        "ood_s": min(ood_s),
        "dons_s": min(dons_s),
        "dons_telemetry_s": min(telem_s),
        "dons_live_s": min(live_s),
        "dons_numpy_s": min(numpy_s) if numpy_s else None,
        "dons_steady_s": min(steady_s),
        "dons_ffwd_s": min(ffwd_s),
        "wan_twin_s": min(wan_s),
        "wan_twin_flows": len(wan_twin.flows),
        "cluster_s": min(cluster_curve_s[2]),
        "cluster_scaling": {str(n): min(v)
                            for n, v in cluster_curve_s.items()},
        "cluster_transport": "shm",
        "cpus": _usable_cpus(),
        # The agents run the engine's default backend — the same python
        # reference kernels ``dons_s`` times — so cluster/dons compares
        # like with like.
        "serial_ref_backend": "python",
        "ratio_dons_over_ood": min(dons_s) / min(ood_s),
        # Paired per-repeat like the ffwd/cluster ratios: each
        # telemetered run over the plain run beside it, so load drift
        # across repeats cannot fake (or mask) an overhead regression.
        "ratio_telemetry_over_plain": min(
            t / p for t, p in zip(telem_s, dons_s)),
        # Paired per-repeat, same rationale: live plane vs the bare run
        # of the same iteration.
        "ratio_live_over_plain": min(
            lv / p for lv, p in zip(live_s, dons_s)),
        "ratio_numpy_over_python": (min(numpy_s) / min(dons_s)
                                    if numpy_s else None),
        # Paired per-repeat against the serial run measured in the same
        # iteration, so machine-load drift cannot pair a fast serial
        # with a slow cluster repeat the way min()/min() would.
        "ratio_cluster_over_dons": min(
            c / s for c, s in zip(cluster_curve_s[2], dons_s)),
        # Paired per-repeat ratio: each ffwd run is divided by the plain
        # run measured beside it in the same iteration, so machine-load
        # drift across repeats cannot pair a fast plain with a slow ffwd
        # (or vice versa) the way min()/min() would.
        "ratio_ffwd_over_plain": min(f / p for f, p in zip(ffwd_s, steady_s)),
        "fuzz_s": min(fuzz_s),
        # Paired per-repeat, same rationale as the other ratios.
        "ratio_fuzz_over_ood": min(
            f / o for f, o in zip(fuzz_s, ood_s)),
        "ood_events": _events(ood_res),
        "dons_events": _events(dons_res),
        "dons_telemetry_events": _events(telem_res),
        "dons_live_events": _events(live_res),
        "dons_numpy_events": _events(numpy_res) if numpy_res else None,
        "cluster_events": _events(cluster_run.results),
        "cluster_windows": cluster_run.traffic.windows,
        "dons_steady_events": _events(steady_res),
        "dons_ffwd_events": _events(ffwd_res),
        "wan_twin_events": _events(wan_res),
        "wan_twin_events_python": _events(wan_py_res),
        "ffwd_hits": ffwd_hits,
        "ffwd_jump_windows": ffwd_jump_windows,
        "fuzz_ok": fuzz_report.ok,
        "fuzz_entries": fuzz_report.entry_counts.get("dons", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", action="store_true",
                        help="overwrite the recorded baseline")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative slowdown vs baseline")
    parser.add_argument("--out", default=REPORT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    report = measure()
    print(f"scenario : {report['scenario']}")
    print(f"ood      : {report['ood_s']:.3f}s  "
          f"({report['ood_events']['total']} events)")
    print(f"dons     : {report['dons_s']:.3f}s  "
          f"({report['dons_events']['total']} events)")
    print(f"telemetry: {report['dons_telemetry_s']:.3f}s  "
          f"(ratio {report['ratio_telemetry_over_plain']:.3f}, "
          f"gate {TELEMETRY_GATE:.2f})")
    print(f"live     : {report['dons_live_s']:.3f}s  "
          f"(ratio {report['ratio_live_over_plain']:.3f}, "
          f"gate {LIVE_GATE:.2f})")
    if report["dons_numpy_s"] is not None:
        print(f"numpy    : {report['dons_numpy_s']:.3f}s  "
              f"({report['dons_numpy_events']['total']} events)")
    print(f"steady   : {report['dons_steady_s']:.3f}s  "
          f"({report['dons_steady_events']['total']} events)")
    print(f"ffwd     : {report['dons_ffwd_s']:.3f}s  "
          f"(ratio {report['ratio_ffwd_over_plain']:.3f}, "
          f"gate {FFWD_GATE:.2f}, {report['ffwd_hits']} hits, "
          f"{report['ffwd_jump_windows']} of them jumped)")
    print(f"wan twin : {report['wan_twin_s']:.3f}s  "
          f"({report['wan_twin_flows']} flows synthesized, "
          f"{report['wan_twin_events']['total']} events)")
    print(f"cluster2 : {report['cluster_s']:.3f}s  "
          f"({report['cluster_events']['total']} events, "
          f"{report['cluster_windows']} windows, shm transport)")
    print(f"scaling  : {report['cluster_scaling']} "
          f"(agents -> seconds, {report['cpus']} cpus)")
    print(f"fuzz     : {report['fuzz_s']:.3f}s  "
          f"({report['fuzz_entries']} trace entries, "
          f"ok={report['fuzz_ok']})")
    print(f"ratio    : {report['ratio_dons_over_ood']:.3f} (dons/ood)")
    if report["ratio_numpy_over_python"] is not None:
        print(f"ratio    : {report['ratio_numpy_over_python']:.3f} "
              f"(numpy/python)")
    print(f"ratio    : {report['ratio_cluster_over_dons']:.3f} "
          f"(cluster/dons)")
    print(f"ratio    : {report['ratio_fuzz_over_ood']:.3f} (fuzz/ood)")

    if not report["fuzz_ok"]:
        print("FAIL: fuzz-runner conformance check found a divergence",
              file=sys.stderr)
        return 1

    # Telemetry's standing gates (not baseline-relative): recording must
    # not perturb the simulation (identical event counts) and a fully
    # instrumented run must stay within TELEMETRY_GATE of the plain one.
    if report["dons_telemetry_events"] != report["dons_events"]:
        print(f"FAIL: telemetry changed the simulation: "
              f"{report['dons_telemetry_events']} != "
              f"{report['dons_events']}", file=sys.stderr)
        return 1
    if report["ratio_telemetry_over_plain"] > TELEMETRY_GATE:
        print(f"FAIL: telemetry overhead "
              f"{report['ratio_telemetry_over_plain']:.3f} exceeds the "
              f"{TELEMETRY_GATE:.2f} gate", file=sys.stderr)
        return 1

    # The live plane's standing gates: sampling must not perturb the
    # simulation (identical event counts) and a run with the plane
    # attached must stay within LIVE_GATE of the bare run beside it.
    if report["dons_live_events"] != report["dons_events"]:
        print(f"FAIL: live plane changed the simulation: "
              f"{report['dons_live_events']} != "
              f"{report['dons_events']}", file=sys.stderr)
        return 1
    if report["ratio_live_over_plain"] > LIVE_GATE:
        print(f"FAIL: live plane overhead "
              f"{report['ratio_live_over_plain']:.3f} exceeds the "
              f"{LIVE_GATE:.2f} gate", file=sys.stderr)
        return 1

    # The vectorized backend's standing gates (not baseline-relative):
    # it must produce the exact event counts of the reference kernels
    # and beat them by the NUMPY_GATE margin on the smoke scenario.
    if report["dons_numpy_s"] is not None:
        if report["dons_numpy_events"] != report["dons_events"]:
            print(f"FAIL: numpy backend events "
                  f"{report['dons_numpy_events']} != python backend "
                  f"{report['dons_events']}", file=sys.stderr)
            return 1
        if report["ratio_numpy_over_python"] >= NUMPY_GATE:
            print(f"FAIL: numpy/python ratio "
                  f"{report['ratio_numpy_over_python']:.3f} >= "
                  f"{NUMPY_GATE} — the vectorized backend must beat the "
                  f"reference kernels by the standing margin",
                  file=sys.stderr)
            return 1

    # The memo engine's standing gates (not baseline-relative): the
    # fast-forwarded steady-state run must reproduce the plain run's
    # event counts exactly, must actually hit the cache, and must beat
    # the plain run by the FFWD_GATE margin.
    if report["dons_ffwd_events"] != report["dons_steady_events"]:
        print(f"FAIL: fast-forward changed the simulation: "
              f"{report['dons_ffwd_events']} != "
              f"{report['dons_steady_events']}", file=sys.stderr)
        return 1
    if report["ffwd_hits"] == 0:
        print("FAIL: fast-forward run recorded zero memo hits — the "
              "steady-state scenario no longer exercises the cache",
              file=sys.stderr)
        return 1
    if 2 * report["ffwd_jump_windows"] < report["ffwd_hits"]:
        print(f"FAIL: only {report['ffwd_jump_windows']} of "
              f"{report['ffwd_hits']} fast-forwarded windows were skipped "
              f"by cycle jumps — the steady-state scenario no longer "
              f"proves its cycle", file=sys.stderr)
        return 1
    if report["ratio_ffwd_over_plain"] >= FFWD_GATE:
        print(f"FAIL: ffwd/plain ratio "
              f"{report['ratio_ffwd_over_plain']:.3f} >= {FFWD_GATE} — "
              f"the memo engine must fast-forward steady-state traffic "
              f"by the standing margin", file=sys.stderr)
        return 1

    # The workload library's standing gates (not baseline-relative):
    # the WAN-twin smoke must synthesize its full flow budget, and the
    # backends must agree on its event counts exactly — the arrival
    # engine's columnar build path is only correct if both backends
    # read the same traffic.
    if report["wan_twin_flows"] < 100_000:
        print(f"FAIL: wan twin synthesized only "
              f"{report['wan_twin_flows']} flows (< 100000)",
              file=sys.stderr)
        return 1
    if report["wan_twin_events"] != report["wan_twin_events_python"]:
        print(f"FAIL: wan twin backend events diverge: "
              f"{report['wan_twin_events']} != "
              f"{report['wan_twin_events_python']}", file=sys.stderr)
        return 1

    # The distributed stack's standing gates: the merged 2-agent run
    # must reproduce the serial event counts exactly, and — when agent
    # parallelism is physically possible — the shm cluster must beat
    # the serial engine it distributes.  On one core the ratio is held
    # by the baseline-relative check below instead.
    if report["cluster_events"] != report["dons_events"]:
        print(f"FAIL: cluster events {report['cluster_events']} != "
              f"serial {report['dons_events']}", file=sys.stderr)
        return 1
    if report["cpus"] >= CLUSTER_GATE_MIN_CPUS:
        if report["ratio_cluster_over_dons"] >= CLUSTER_GATE:
            print(f"FAIL: cluster/dons ratio "
                  f"{report['ratio_cluster_over_dons']:.3f} >= "
                  f"{CLUSTER_GATE} with {report['cpus']} cpus — the "
                  f"shared-memory cluster must beat the serial engine "
                  f"when cores allow it", file=sys.stderr)
            return 1
    else:
        print(f"note: single-core machine ({report['cpus']} cpu) — "
              f"cluster<serial gate skipped, ratio monitored against "
              f"baseline only")

    if args.record or not os.path.exists(BASELINE):
        with open(BASELINE, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"baseline recorded at {BASELINE}")
        report["baseline"] = "recorded"
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        return 0

    with open(BASELINE) as fh:
        base = json.load(fh)
    failures = []
    for key in ("ood_events", "dons_events", "dons_numpy_events",
                "cluster_events", "dons_steady_events", "dons_ffwd_events",
                "dons_live_events", "wan_twin_events"):
        if report[key] != base.get(key, report[key]):
            failures.append(f"{key} changed: {base[key]} -> {report[key]}")
    if report["cluster_windows"] != base.get("cluster_windows",
                                             report["cluster_windows"]):
        failures.append(
            f"cluster_windows changed: {base['cluster_windows']} -> "
            f"{report['cluster_windows']}")
    limit = base["ratio_dons_over_ood"] * (1.0 + args.tolerance)
    if report["ratio_dons_over_ood"] > limit:
        failures.append(
            f"dons/ood ratio {report['ratio_dons_over_ood']:.3f} exceeds "
            f"baseline {base['ratio_dons_over_ood']:.3f} + {args.tolerance:.0%}"
        )
    if "ratio_cluster_over_dons" in base:
        climit = base["ratio_cluster_over_dons"] * (1.0 + args.tolerance)
        if report["ratio_cluster_over_dons"] > climit:
            failures.append(
                f"cluster/dons ratio "
                f"{report['ratio_cluster_over_dons']:.3f} exceeds baseline "
                f"{base['ratio_cluster_over_dons']:.3f} + {args.tolerance:.0%}"
            )
    if report["fuzz_entries"] != base.get("fuzz_entries",
                                          report["fuzz_entries"]):
        failures.append(
            f"fuzz_entries changed: {base['fuzz_entries']} -> "
            f"{report['fuzz_entries']}")
    if "ratio_fuzz_over_ood" in base:
        flimit = base["ratio_fuzz_over_ood"] * (1.0 + args.tolerance)
        if report["ratio_fuzz_over_ood"] > flimit:
            failures.append(
                f"fuzz/ood ratio {report['ratio_fuzz_over_ood']:.3f} "
                f"exceeds baseline {base['ratio_fuzz_over_ood']:.3f} + "
                f"{args.tolerance:.0%}"
            )
    report["baseline"] = {"ratio_dons_over_ood": base["ratio_dons_over_ood"],
                          "limit": limit}
    report["regressed"] = bool(failures)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"report written to {args.out}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"OK: within {args.tolerance:.0%} of baseline "
          f"(limit {limit:.3f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
