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
from typing import Dict, List, Optional, Sequence

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


#: The keys each flow generator reads; any other key is refused.
_FLOW_KEYS = {
    "mesh": ("load", "seed", "max", "duration_ms", "sizes"),
    "fixed": ("n", "size", "transport", "seed"),
    "wan_twin": ("seed", "duration_ms", "max", "classes", "load",
                 "arrival"),
    "storage": ("seed", "duration_ms", "blocks", "block_kb", "arrival"),
}


def _parse_kv(spec: str, keys: Sequence[str]) -> Dict[str, str]:
    if not spec:
        return {}
    out = {}
    for part in spec.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise ConfigError(
                f"unknown key {key!r}; expected one of {', '.join(keys)}")
        out[key] = value.strip()
    return out


def _read(kv: Dict[str, str], key: str, default, kind=int):
    """``kv[key]`` read by ``kind`` (``default`` when absent); a value
    ``kind`` refuses is a ``ConfigError`` naming it."""
    if key not in kv:
        return default
    try:
        return kind(kv[key])
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key}: {kv[key]!r}") from None


def _sizes(name: str):
    return DISTRIBUTIONS[_SIZE_ALIASES.get(name, name)]


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:  # NumPy's generators take only non-negative seeds
        raise ValueError(text)
    return seed


def build_topology(spec: str) -> Topology:
    """Parse a topology spec string."""
    name, _, arg = spec.partition(":")
    if name == "abilene":
        return abilene()
    if name == "geant":
        return geant()
    sized = {"fattree": (4, int, lambda k: fattree(k, rate_bps=10 * GBPS)),
             "dumbbell": (4, int, dumbbell),
             "isp": (2023, _seed, lambda seed: isp_wan(seed=seed))}
    if name not in sized:
        raise ConfigError(f"unknown topology {name!r}")
    default, kind, make = sized[name]
    return make(_read({name: arg} if arg else {}, name, default, kind))


def build_flows(spec: str, topo: Topology) -> List[Flow]:
    """Parse a flow-generator spec string."""
    name, _, arg = spec.partition(":")
    if name not in _FLOW_KEYS:
        raise ConfigError(f"unknown flow generator {name!r}")
    kv = _parse_kv(arg, _FLOW_KEYS[name])
    hosts = topo.hosts
    if name == "mesh":
        return full_mesh_dynamic(
            hosts,
            duration_ps=ms(_read(kv, "duration_ms", 1.0, float)),
            load=_read(kv, "load", 0.3, float),
            host_rate_bps=10 * GBPS,
            sizes=_read(kv, "sizes", _sizes("tiny"), _sizes),
            seed=_read(kv, "seed", 1, _seed),
            max_flows=_read(kv, "max", 500),
        )
    if name == "fixed":
        return fixed_flows(
            hosts,
            n_flows=_read(kv, "n", 16),
            size_bytes=_read(kv, "size", 100_000),
            transport=_read(kv, "transport", Transport.DCTCP,
                            _TRANSPORTS.__getitem__),
            seed=_read(kv, "seed", 1, _seed),
        )
    if name == "wan_twin":
        from .bench.workloads import wan_twin_flow_columns
        return wan_twin_flow_columns(
            hosts, _read(kv, "seed", 1, _seed),
            horizon_ps=ms(_read(kv, "duration_ms", 0.5, float)),
            n_flows=_read(kv, "max", 500),
            classes=_read(kv, "classes", 3),
            load=_read(kv, "load", 0.3, float),
            arrival=kv.get("arrival", "onoff"),
        )
    from .bench.workloads import storage_flow_columns
    return storage_flow_columns(
        hosts, _read(kv, "seed", 1, _seed),
        horizon_ps=ms(_read(kv, "duration_ms", 0.5, float)),
        blocks=_read(kv, "blocks", 64),
        block_bytes=_read(kv, "block_kb", 256) * 1024,
        arrival=kv.get("arrival", "poisson"),
    )


def build_scenario(args) -> Scenario:
    if args.load:
        from .scenario_io import scenario_from_json
        try:
            with open(args.load) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"{args.load}: cannot read: {exc.strerror}") from None
        scenario = scenario_from_json(text)
    else:
        topo = build_topology(args.topology)
        flows = build_flows(args.flows, topo)
        scenario = make_scenario(
            topo, flows,
            scheduler=SchedulerKind(args.scheduler),
            num_classes=args.classes,
            buffer_bytes=args.buffer_kb * 1024,
        )
    if args.save:
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
    snapshot the live stream and the run report read: windows done,
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
    """Build the engine ``profile`` asked for (serial, or ``--cluster N``
    agents), attach what the invocation asked to watch it with — the
    ``--progress`` meter, the live plane's NDJSON stream (``--live``) —
    run it to completion and release both.  Returns the finished engine
    and the run's manifest fields, resolved once from the flags for
    every artifact the run writes."""
    from .core.runner import EngineRunner, chain_hooks
    manifest = dict(
        command=args.command, scenario=scenario.name,
        cluster=args.cluster or None,
        transport=args.transport if args.cluster else None,
        ffwd=args.ffwd and not args.cluster,  # agents never fast-forward
    )
    if args.cluster:
        from .cluster import AgentSpec, ClusterEngine
        from .partition import ClusterSpec, plan_scenario
        part = plan_scenario(scenario,
                             ClusterSpec.homogeneous(args.cluster)).partition
        engine = ClusterEngine(
            [AgentSpec(a, scenario, part, telemetry=telemetry)
             for a in range(part.num_parts)], transport=args.transport)
    else:
        from .core.engine import DodEngine
        engine = DodEngine(scenario, telemetry=telemetry, ffwd=args.ffwd)
    progress = _Progress(engine) if args.progress else None
    live = None
    if args.live is not None:
        from .metrics.live import LivePlane
        live = LivePlane(engine, path=args.live)
    try:
        EngineRunner(engine, on_step=chain_hooks(
            progress, live.on_step if live else None)).run()
    finally:
        if progress:
            progress.close()
        if live:
            live.close()
    return engine, manifest


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
    cluster bus collected.  ``--json`` prints the run report
    (:func:`repro.metrics.timeline.run_report`) instead, ``--out FILE``
    writes it with its manifest; either turns telemetry on."""
    import json
    from .metrics.timeline import memo_line, run_report, write_manifest
    scenario = build_scenario(args)
    t0 = time.perf_counter()
    engine, manifest = _run_observed(
        args, scenario, bool(args.timeline or args.json or args.out))
    bus = engine.bus
    report = run_report(bus, engine, time.perf_counter() - t0)
    if args.timeline:
        from .metrics.timeline import write_timeline
        write_timeline(bus, args.timeline, manifest=manifest)
        print(f"timeline written to {args.timeline}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        write_manifest(args.out, **manifest)
        print(f"report written to {args.out}", file=sys.stderr)
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
        return 0
    rows = report["rows"]
    print(_summary(engine.results))
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
    for name, total in report["totals"].items():
        print(f"{name:<{width + 4}} {total['elapsed_s'] * 1000:>8.3f}")
    print(f"windows {report['windows']:>{width + 5}}")
    memo = memo_line(report)
    if memo:
        print(memo)
    if report["agents_busy_s"] is not None:
        print()
        print("per-agent busy (measured T_a):")
        for agent, seconds in enumerate(report["agents_busy_s"]):
            print(f"  a{agent}: {seconds * 1000:.3f} ms")
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
                         help="print the run report as JSON (turns "
                              "telemetry on)")
    profile.add_argument("--out", metavar="FILE",
                         help="write the run report to FILE, plus "
                              "FILE.manifest.json (turns telemetry on)")
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
                              "--cluster: cluster agents never "
                              "fast-forward)")
    profile.add_argument("--progress", action="store_true",
                         help="stderr progress/ETA line (TTY only)")
    profile.add_argument("--live", metavar="FILE",
                         help="stream NDJSON progress records to FILE "
                              "('-' = stderr) while the run executes; with "
                              "--timeline a crash or SIGUSR1 also writes "
                              "FILE.flight.json, the last 64 windows' spans")
    profile.set_defaults(fn=cmd_profile)

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
