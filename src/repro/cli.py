"""Command-line interface: run, compare, profile, and plan simulations.

    python -m repro run --topology fattree:4 --flows mesh:load=0.3 \
        --engine dons
    python -m repro compare --topology dumbbell:4 --flows fixed:n=8
    python -m repro profile --topology fattree:4 --flows fixed:n=32
    python -m repro plan --topology isp --machines 8
    python -m repro viz --topology abilene --flows mesh:max=100 \
        --out-dir ./viz-out
    python -m repro fuzz --seed 0 --runs 25 --shrink

Topology specs: ``fattree:K``, ``dumbbell:PAIRS``, ``abilene``, ``geant``,
``isp[:SEED]``.  Flow specs: ``mesh:key=value,...`` (load, seed, max,
duration_ms, sizes in {web,fb,tiny}), ``fixed:n=..,size=..[,transport=
dctcp|reno|udp]``, ``wan_twin:max=..,classes=..,arrival=onoff|poisson|
empirical`` (pair with ``--classes N --scheduler sp|drr``), or
``storage:blocks=..,block_kb=..,arrival=poisson|onoff|periodic``
(hosts[0] is the namenode; pair with ``--classes 2 --scheduler sp``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

from .errors import ConfigError, ReproError
from .metrics import TraceLevel
from .scenario import Scenario, make_scenario
from .schedulers import SchedulerKind
from .topology import Topology, abilene, dumbbell, fattree, geant, isp_wan
from .traffic import (
    DISTRIBUTIONS,
    Flow,
    Transport,
    fixed_flows,
    full_mesh_dynamic,
)
from .units import GBPS, ms, ps_to_us

_SIZE_ALIASES = {"web": "web-search", "fb": "fb-cache", "tiny": "tiny"}
_TRANSPORTS = {"dctcp": Transport.DCTCP, "udp": Transport.UDP,
               "reno": Transport.RENO}


def _parse_kv(spec: str) -> Dict[str, str]:
    if not spec:
        return {}
    out = {}
    for part in spec.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_topology(spec: str) -> Topology:
    """Parse a topology spec string."""
    name, _, arg = spec.partition(":")
    if name == "fattree":
        return fattree(int(arg or 4), rate_bps=10 * GBPS)
    if name == "dumbbell":
        return dumbbell(int(arg or 4))
    if name == "abilene":
        return abilene()
    if name == "geant":
        return geant()
    if name == "isp":
        return isp_wan(seed=int(arg or 2023))
    raise ConfigError(f"unknown topology {name!r}")


def build_flows(spec: str, topo: Topology) -> List[Flow]:
    """Parse a flow-generator spec string."""
    name, _, arg = spec.partition(":")
    kv = _parse_kv(arg)
    hosts = topo.hosts
    if name == "mesh":
        sizes = DISTRIBUTIONS[_SIZE_ALIASES.get(kv.get("sizes", "tiny"),
                                                kv.get("sizes", "tiny"))]
        return full_mesh_dynamic(
            hosts,
            duration_ps=ms(float(kv.get("duration_ms", 1.0))),
            load=float(kv.get("load", 0.3)),
            host_rate_bps=10 * GBPS,
            sizes=sizes,
            seed=int(kv.get("seed", 1)),
            max_flows=int(kv["max"]) if "max" in kv else 500,
        )
    if name == "fixed":
        transport = _TRANSPORTS[kv.get("transport", "dctcp")]
        return fixed_flows(
            hosts,
            n_flows=int(kv.get("n", 16)),
            size_bytes=int(kv.get("size", 100_000)),
            transport=transport,
            seed=int(kv.get("seed", 1)),
        )
    if name == "wan_twin":
        from .bench.workloads import wan_twin_flow_columns
        return wan_twin_flow_columns(
            hosts, int(kv.get("seed", 1)),
            horizon_ps=ms(float(kv.get("duration_ms", 0.5))),
            n_flows=int(kv["max"]) if "max" in kv else 500,
            classes=int(kv.get("classes", 3)),
            load=float(kv.get("load", 0.3)),
            arrival=kv.get("arrival", "onoff"),
        )
    if name == "storage":
        from .bench.workloads import storage_flow_columns
        return storage_flow_columns(
            hosts, int(kv.get("seed", 1)),
            horizon_ps=ms(float(kv.get("duration_ms", 0.5))),
            blocks=int(kv.get("blocks", 64)),
            block_bytes=int(kv.get("block_kb", 256)) * 1024,
            arrival=kv.get("arrival", "poisson"),
        )
    raise ConfigError(f"unknown flow generator {name!r}")


def build_scenario(args) -> Scenario:
    if getattr(args, "load", None):
        from .scenario_io import scenario_from_json
        with open(args.load) as fh:
            scenario = scenario_from_json(fh)
    else:
        topo = build_topology(args.topology)
        flows = build_flows(args.flows, topo)
        scenario = make_scenario(
            topo, flows,
            scheduler=SchedulerKind(args.scheduler),
            num_classes=args.classes,
            buffer_bytes=args.buffer_kb * 1024,
        )
    if getattr(args, "save", None):
        from .scenario_io import scenario_to_json
        with open(args.save, "w") as fh:
            scenario_to_json(scenario, out=fh)
        print(f"scenario saved to {args.save}")
    return scenario


def _summary(results) -> str:
    fcts = results.fcts_ps()
    lines = [
        f"engine          : {results.engine}",
        f"events          : {results.events.total} "
        f"(send {results.events.send}, forward {results.events.forward}, "
        f"transmit {results.events.transmit}, ack {results.events.ack})",
        f"flows completed : {results.completed()}/{len(results.flows)}",
        f"drops / marks   : {results.drops} / {results.marks}",
    ]
    if fcts:
        fcts = sorted(fcts)
        lines.append(
            f"FCT us p50/p99  : {ps_to_us(fcts[len(fcts) // 2]):.1f} / "
            f"{ps_to_us(fcts[-max(1, len(fcts) // 100)]):.1f}"
        )
    return "\n".join(lines)


class _Progress:
    """One-line stderr progress/ETA meter for long runs.

    Hangs off :class:`~repro.core.runner.EngineRunner`'s ``on_step``
    hook and formats :func:`repro.metrics.timeline.run_record` — the
    snapshot the live stream and ``stats`` read: windows done,
    events/s, percent complete with an ETA, and (for a timed cluster
    run) the largest cumulative barrier wait.  Suppressed entirely when
    stderr is not a TTY, so piped and CI output stays clean.
    """

    def __init__(self, engine, stream=None) -> None:
        self.engine = engine
        self.stream = sys.stderr if stream is None else stream
        isatty = getattr(self.stream, "isatty", None)
        self.enabled = bool(isatty and isatty())
        self.t0 = time.perf_counter()
        self._last = 0.0
        self._wrote = False

    def __call__(self, steps: int) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        if now - self._last < 0.2:  # 5 Hz is plenty for a human
            return
        self._last = now
        elapsed = now - self.t0
        from .metrics.timeline import run_record
        r = run_record(self.engine.bus, self.engine, elapsed)
        parts = [f"{r['windows']} windows", f"{r['events_per_s']:,.0f} ev/s"]
        frac = r["done"]
        if frac:
            eta = elapsed * (1.0 - frac) / frac
            parts.append(f"{frac * 100:3.0f}% eta {eta:5.1f}s")
        else:
            # No duration cut to project against: show elapsed instead.
            parts.append(f"t+{elapsed:.1f}s")
        if r["agents_wait_s"]:
            parts.append(f"wait {max(r['agents_wait_s']):.2f}s")
        self._wrote = True
        print("\r" + " | ".join(parts) + "\x1b[K", end="",
              file=self.stream, flush=True)

    def close(self) -> None:
        """Clear the meter line so normal output starts clean."""
        if self.enabled and self._wrote:
            print("\r\x1b[K", end="", file=self.stream, flush=True)


def _run_observed(args, scenario, telemetry):
    """Build the engine ``profile`` / ``stats`` asked for (serial, or
    ``--cluster N`` agents), attach what the invocation asked to watch
    it with — the ``--progress`` meter, the live plane's NDJSON stream
    (``profile --live FILE`` / ``stats --watch``) — run it to completion
    and release both.  Returns the finished engine."""
    from .core.runner import EngineRunner, chain_hooks
    if args.cluster:
        from .cluster import DonsManager
        from .partition import ClusterSpec, plan_scenario
        mgr = DonsManager(scenario, ClusterSpec.homogeneous(args.cluster),
                          transport=args.transport, telemetry=telemetry)
        engine = mgr._engine(plan_scenario(scenario, mgr.cluster).partition)
    else:
        from .core.engine import DodEngine
        engine = DodEngine(scenario, telemetry=telemetry, ffwd=args.ffwd)
    progress = _Progress(engine) if getattr(args, "progress", False) else None
    live = None
    target = "-" if getattr(args, "watch", False) else getattr(
        args, "live", None)
    if target is not None:
        from .metrics.live import LivePlane
        live = (LivePlane(engine, stream=sys.stderr) if target == "-"
                else LivePlane(engine, path=target))
    try:
        EngineRunner(engine, on_step=chain_hooks(
            progress, live.on_step if live else None)).run()
    finally:
        if progress:
            progress.close()
        if live:
            live.close()
    return engine


def cmd_run(args) -> int:
    scenario = build_scenario(args)
    if args.engine == "dons":
        from .core.engine import run_dons
        results = run_dons(scenario)
    else:
        from .des import run_baseline
        results = run_baseline(scenario)
    print(_summary(results))
    return 0


def cmd_compare(args) -> int:
    scenario = build_scenario(args)
    from .core.engine import run_dons
    from .des import run_baseline
    a = run_baseline(scenario, TraceLevel.FULL)
    b = run_dons(scenario, TraceLevel.FULL)
    same = a.trace.digest() == b.trace.digest()
    print(_summary(b))
    print(f"trace digests   : ood={a.trace.digest()}")
    print(f"                  dons={b.trace.digest()}")
    print(f"identical       : {same}")
    return 0 if same else 1


def cmd_profile(args) -> int:
    """Run the DOD engine (or a cluster of agents) and print the
    instrumentation-bus breakdown: per-window, per-system wall-clock,
    then totals.  With ``--cluster N`` the run is
    distributed over N agents and every row is tagged ``a<id>:<system>``
    — the timings are the *measured* per-agent window costs the merged
    cluster bus collected."""
    import json
    scenario = build_scenario(args)
    engine = _run_observed(args, scenario, bool(args.timeline))
    results, bus = engine.results, engine.bus
    agent_times = None
    if args.cluster:
        from .partition import measured_machine_times
        agent_times = measured_machine_times(bus, args.cluster)
    if args.timeline:
        from .metrics.timeline import write_timeline
        write_timeline(bus, args.timeline, manifest=dict(
            command="profile", scenario=scenario.name,
            transport=args.transport if args.cluster else None,
            cluster=args.cluster or None,
            # cluster agents never fast-forward
            ffwd=args.ffwd and not args.cluster,
        ))
        print(f"timeline written to {args.timeline}", file=sys.stderr)
    rows = bus.profile_rows()
    if args.json:
        json.dump({"counters": bus.counters, "rows": rows,
                   "agent_times_s": agent_times},
                  sys.stdout, indent=2)
        print()
        return 0
    print(_summary(results))
    print()
    width = max([12] + [len(r["system"]) for r in rows])
    print(f"{'window':>6} {'start_us':>9} {'system':<{width}} {'ms':>8}")
    per_window = 4 * (args.cluster or 1)
    shown = rows if args.all_windows else rows[-per_window * args.tail:]
    if len(shown) < len(rows):
        print(f"  ... ({len(rows) - len(shown)} earlier rows; "
              f"--all-windows to show)")
    for row in shown:
        print(f"{row['window']:>6} {ps_to_us(row['start_ps']):>9.1f} "
              f"{row['system']:<{width}} {row['elapsed_s'] * 1000:>8.3f}")
    print()
    print(f"{'totals':<{width + 4}} {'ms':>8}")
    for name, prof in sorted(bus.totals.items()):
        print(f"{name:<{width + 4}} {prof.elapsed_s * 1000:>8.3f}")
    print(f"windows {bus.counters.get('windows', 0):>{width + 5}}")
    from .metrics.timeline import memo_line
    memo = memo_line(bus)
    if memo:
        print(memo)
    if agent_times is not None:
        print()
        print("per-agent wall-clock (measured T_a):")
        for agent, seconds in enumerate(agent_times):
            print(f"  a{agent}: {seconds * 1000:.3f} ms")
    return 0


def cmd_stats(args) -> int:
    """Run one scenario with telemetry on and dump everything the bus
    measured — counters, gauges, histograms, per-system totals, and (for
    cluster runs) the per-agent busy / barrier-wait series — as JSON, to
    stdout or ``--out FILE`` (with a provenance manifest)."""
    import json
    scenario = build_scenario(args)
    bus = _run_observed(args, scenario, True).bus
    from .metrics.timeline import stats_dict, write_stats
    if args.out:
        write_stats(bus, args.out, manifest=dict(
            command="stats", scenario=scenario.name,
            transport=args.transport if args.cluster else None,
            cluster=args.cluster or None,
        ))
        print(f"stats written to {args.out}")
    else:
        json.dump(stats_dict(bus), sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_fuzz(args) -> int:
    from .conformance.runner import cmd_fuzz as run_fuzz_cli
    return run_fuzz_cli(args)


def cmd_plan(args) -> int:
    scenario = build_scenario(args)
    from .partition import ClusterSpec, machine_times, plan_scenario
    from .partition.loadest import estimate_scenario_loads
    cluster = ClusterSpec.homogeneous(args.machines)
    loads = estimate_scenario_loads(scenario)
    plan = plan_scenario(scenario, cluster, loads)
    print(f"machines        : {args.machines}")
    print(f"planning time   : {plan.planning_time_s * 1000:.1f} ms")
    print(f"bisections      : {plan.bisections} "
          f"({plan.rejected_bisections} rejected)")
    print(f"estimated T     : {plan.estimated_time_s:.6f}")
    sizes = plan.partition.part_sizes()
    times = machine_times(scenario.topology, plan.partition, loads, cluster)
    for machine, (size, t) in enumerate(zip(sizes, times)):
        print(f"  machine {machine}: {size:5d} nodes  T_a={t:.6f}")
    return 0


def cmd_viz(args) -> int:
    scenario = build_scenario(args)
    from .core.engine import run_dons
    from .partition.loadest import estimate_scenario_loads
    from .viz import (flow_gantt_svg, link_utilization_svg,
                      window_breakdown_heatmap)
    results = run_dons(scenario)
    os.makedirs(args.out_dir, exist_ok=True)
    gantt = os.path.join(args.out_dir, "flows.svg")
    with open(gantt, "w") as fh:
        fh.write(flow_gantt_svg(results, scenario))
    loads = estimate_scenario_loads(scenario)
    links = os.path.join(args.out_dir, "links.svg")
    with open(links, "w") as fh:
        fh.write(link_utilization_svg(loads, scenario, results.end_time_ps))
    print(_summary(results))
    print(f"\nper-system window load:")
    print(window_breakdown_heatmap(results))
    print(f"\nwrote {gantt}\nwrote {links}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DONS reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--topology", default="dumbbell:4",
                        help="fattree:K | dumbbell:N | abilene | geant | isp")
    common.add_argument("--flows", default="fixed:n=8,size=100000",
                        help="mesh:... | fixed:... | wan_twin:... | "
                             "storage:...")
    common.add_argument("--scheduler", default="fifo",
                        choices=[k.value for k in SchedulerKind])
    common.add_argument("--classes", type=int, default=3)
    common.add_argument("--buffer-kb", type=int, default=4096)
    common.add_argument("--save", metavar="FILE",
                        help="write the scenario JSON before running")
    common.add_argument("--load", metavar="FILE",
                        help="load a scenario JSON instead of building one")

    run = sub.add_parser("run", parents=[common],
                         help="run one scenario on one engine")
    run.add_argument("--engine", choices=["dons", "ood"], default="dons")
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", parents=[common],
                             help="run both engines, compare traces")
    compare.set_defaults(fn=cmd_compare)

    profile = sub.add_parser(
        "profile", parents=[common],
        help="run the DOD engine (or --cluster N agents), print "
             "per-window per-system breakdown")
    profile.add_argument("--json", action="store_true",
                         help="dump counters and rows as JSON")
    profile.add_argument("--all-windows", action="store_true",
                         help="print every window (default: the last few)")
    profile.add_argument("--tail", type=int, default=5,
                         help="windows to show without --all-windows")
    profile.add_argument("--cluster", type=int, default=0, metavar="N",
                         help="distribute over N agents; rows come from "
                              "the merged cluster bus tagged a<id>:system")
    profile.add_argument("--transport", choices=["local", "shm"],
                         default="local",
                         help="how cluster agents are hosted (with --cluster)")
    profile.add_argument("--timeline", metavar="FILE",
                         help="enable telemetry and export the run as "
                              "Chrome trace JSON (open in Perfetto)")
    profile.add_argument("--ffwd", action="store_true",
                         help="window-signature memo fast-forwarding for "
                              "steady-state traffic (ignored with "
                              "--cluster, where the memo is per-agent and "
                              "auto-disabled while cross-agent traffic is "
                              "pending)")
    profile.add_argument("--progress", action="store_true",
                         help="stderr progress/ETA line (TTY only)")
    profile.add_argument("--live", metavar="FILE",
                         help="stream NDJSON progress records to FILE "
                              "('-' = stderr) while the run executes; with "
                              "--timeline the flight recorder also arms and "
                              "dumps FILE.flight.json on crash/SIGUSR1")
    profile.set_defaults(fn=cmd_profile)

    stats = sub.add_parser(
        "stats", parents=[common],
        help="run with telemetry and dump counters / gauges / histograms")
    stats.add_argument("--cluster", type=int, default=0, metavar="N",
                       help="distribute over N agents")
    stats.add_argument("--transport", choices=["local", "shm"],
                       default="local",
                       help="how cluster agents are hosted (with --cluster)")
    stats.add_argument("--out", metavar="FILE",
                       help="write to FILE (plus FILE.manifest.json) "
                            "instead of stdout")
    stats.add_argument("--watch", action="store_true",
                       help="stream NDJSON progress records to stderr "
                            "while the run executes (the live plane; "
                            "stdout still gets the final stats)")
    stats.add_argument("--ffwd", action="store_true",
                       help="window-signature memo fast-forwarding, as in "
                            "profile --ffwd — lets the memo.* counters "
                            "show up in the exported stats")
    stats.set_defaults(fn=cmd_stats)

    plan = sub.add_parser("plan", parents=[common],
                          help="plan distributed execution")
    plan.add_argument("--machines", type=int, default=4)
    plan.set_defaults(fn=cmd_plan)

    viz = sub.add_parser("viz", parents=[common],
                         help="run and render SVG/ASCII visualizations")
    viz.add_argument("--out-dir", default="viz-out")
    viz.set_defaults(fn=cmd_viz)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing: generated scenarios "
             "through every engine stack, traces must be byte-identical "
             "and satisfy the reference-free invariants")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzz stream seed (same seed = same scenarios)")
    fuzz.add_argument("--runs", type=int, default=25,
                      help="generated scenarios to check")
    fuzz.add_argument("--shrink", action="store_true",
                      help="shrink the first failure to a minimal spec")
    fuzz.add_argument("--oracles", metavar="A,B,...",
                      help="comma-separated oracle set (first is the "
                           "reference); default: the acceptance set")
    fuzz.add_argument("--artifact-dir", metavar="DIR",
                      help="write a JSON repro artifact for a failure")
    fuzz.add_argument("--replay", metavar="FILE",
                      help="re-check one saved spec / corpus entry / "
                           "repro artifact instead of fuzzing")
    fuzz.add_argument("--progress", action="store_true",
                      help="stderr progress line (TTY only)")
    fuzz.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed (e.g. piped into head); exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
