#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name with its unit.

    python3 benchmarks/perf/run.py --workload dcn_fattree8_dctcp \\
        --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` makes the layer-attributed traced run
and prints every per-layer metric; without ``--trace`` both are made.
Without ``--workload`` every workload is run.  The last line of
standard output of each run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--selfcheck`` runs every workload's end-to-end set twice on the same
code and fails if the two disagree by more than the metric's bound.

Each measurement happens in a fresh subprocess (``phases.py``) with
``src/`` on ``PYTHONPATH`` and every ``REPRO_*`` variable removed; this
file only starts them, names their numbers and prints the report.
See README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
from time import monotonic
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: A timed repeat that runs longer is a failed operation (hung barrier).
REPEAT_TIMEOUT_S = 60.0
#: One run (all its phases) that takes longer is killed with everything
#: it started; the pipeline allows a run 180 s.
RUN_TIMEOUT_S = 170.0


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_phase(phase: str, args: Dict[str, Any],
              deadline: float) -> Dict[str, Any]:
    """Run one phase in a fresh interpreter; returns its JSON result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "phases.py"), phase,
         json.dumps(args)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        # The phase leads its own process group: its cluster agents go
        # with it, and the shared-memory rings it created are named
        # after its pid.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for segment in glob.glob(f"/dev/shm/dons-shm-{proc.pid}-*"):
            os.unlink(segment)
        raise HarnessError(f"phase {phase} ran past the {RUN_TIMEOUT_S:.0f} s "
                           "allowed to one run")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"phase {phase} exited with {proc.returncode}")
    return json.loads(lines[-1])


def named(section: List[Dict[str, Any]],
          values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Attach units; every named metric exactly once, none unnamed."""
    names = [m["name"] for m in section]
    missing = sorted(set(names) - set(values))
    unnamed = sorted(set(values) - set(names))
    if missing or unnamed:
        raise HarnessError(f"metrics missing: {missing}; unnamed: {unnamed}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section}


def measure(spec: Dict[str, Any], workload: str, trace: int,
            opts: argparse.Namespace, seed: Optional[int] = None,
            quiet: bool = False) -> Dict[str, Any]:
    """One run of one workload; prints its report and result line."""
    common = {
        "workload": workload, "seed": opts.seed if seed is None else seed,
        "seconds": opts.seconds, "repeats": opts.repeats,
        "small": opts.small, "timeout_s": REPEAT_TIMEOUT_S,
    }
    deadline = monotonic() + RUN_TIMEOUT_S
    if trace:
        out = run_phase("layers", common, deadline)
        section = spec["per_layer"]
    else:
        reference = run_phase("reference", common, deadline)
        out = run_phase("e2e", dict(common, pin_events=opts.pin_events,
                                    expected=reference["fingerprint"]),
                        deadline)
        section = spec["end_to_end"]
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": named(section, out["metrics"]),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "layers" if trace else "e2e"
    with open(os.path.join(OUT_DIR, f"{workload}.{kind}.json"), "w") as fh:
        json.dump(dict(result, detail=out["detail"]), fh, indent=1)
    if not quiet:
        report(workload, trace, section, result, out["detail"])
        print(json.dumps(result), flush=True)
    return result


def report(workload: str, trace: int, section: List[Dict[str, Any]],
           result: Dict[str, Any], detail: Dict[str, Any]) -> None:
    kind = "per-layer (traced run)" if trace else "end-to-end (tracing off)"
    print(f"== {workload}: {kind}")
    for m in section:
        value = result["metrics"][m["name"]]["value"]
        print(f"{m['name']:<36} {value:>16.6g} {m['unit']:<10} "
              f"({m['better']} is better)")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<36} {share:>16.6g} {'share':<10} "
          f"({result['failed']} of {result['attempted']} operations)")
    for key, value in detail.items():
        print(f"  {key}: {json.dumps(value)}")


def selfcheck(spec: Dict[str, Any], workloads: List[str],
              opts: argparse.Namespace) -> int:
    """Two sets of end-to-end runs of the same code must agree within
    the bounds of ``BENCHMARK.json``.  A set is ``--runs`` runs per
    workload on consecutive seeds; the sets are compared by medians."""
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    for which in (1, 2):
        values: Dict[str, Dict[str, List[float]]] = {}
        for workload in workloads:
            for i in range(opts.runs):
                print(f"set {which}: {workload} seed {opts.seed + i}",
                      file=sys.stderr, flush=True)
                result = measure(spec, workload, 0, opts,
                                 seed=opts.seed + i, quiet=True)
                if not result["correct"]:
                    raise HarnessError(f"{workload}: failed operations")
                for name, m in result["metrics"].items():
                    values.setdefault(workload, {}).setdefault(
                        name, []).append(m["value"])
        sets.append(values)
    status = 0
    print(f"{'workload':<24}{'metric':<18}{'set 1':>12}{'set 2':>12}"
          f"{'differ':>9}{'bound':>8}{'spread 1':>10}{'spread 2':>10}")
    for workload in workloads:
        for m in spec["end_to_end"]:
            a, b = (s[workload][m["name"]] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            differ = abs(med_a - med_b) / med_a
            spreads = ["       n/a"] * 2
            if opts.runs >= 2:
                spreads = [
                    f"{(q[2] - q[0]) / q[1]:>10.4f}"
                    for q in (statistics.quantiles(v, n=4) for v in (a, b))]
            verdict = "" if differ <= m["bound"] else "  OVER BOUND"
            if verdict:
                status = 1
            print(f"{workload:<24}{m['name']:<18}{med_a:>12.5g}{med_b:>12.5g}"
                  f"{differ:>9.4f}{m['bound']:>8.2f}{spreads[0]}{spreads[1]}"
                  f"{verdict}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: src/repro is not in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="default: every workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the traffic generators only")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="time budget of the measuring loop")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end, 1: per-layer; default: both")
    parser.add_argument("--repeats", type=int,
                        help="exactly this many timed repeats, whatever "
                             "--seconds says")
    parser.add_argument("--small", action="store_true",
                        help="run the scaled-down sibling of each workload")
    parser.add_argument("--pin-events", type=int,
                        help="override the pinned simulated event total")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two end-to-end sets on the same code must "
                             "agree within the bounds")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload in a --selfcheck set")
    opts = parser.parse_args(argv)
    workloads = [opts.workload] if opts.workload else names
    try:
        if opts.selfcheck:
            return selfcheck(spec, workloads, opts)
        traces = (0, 1) if opts.trace is None else (opts.trace,)
        for workload in workloads:
            for trace in traces:
                measure(spec, workload, trace, opts)
    except HarnessError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
