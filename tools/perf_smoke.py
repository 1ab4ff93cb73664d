#!/usr/bin/env python
"""Perf smoke: the standing gates, checked on the benchmark's small siblings.

For each ``BENCHMARK.json`` workload this runs

    python benchmarks/perf/run.py --workload W --small --trace 1 --seconds 2

(one traced run; every repeat is checked against the OOD fingerprint and
``run.py`` strips ``REPRO_*`` and sets ``PYTHONPATH`` itself), reads the
JSON object on its last line, and holds the per-layer ratios to ``GATES``.
A workload with failed operations, or a ratio outside its limit, exits 1.

Every limit sits outside the range ten runs measured on a 2-vCPU box
(docs/PERFORMANCE.md, "Standing gates", lists the values).  ``PRINTED``
ratios cannot be held to a limit at this size — run-to-run noise is
wider than the margin, the 2-agent cluster is not below 1.0 yet
(ROADMAP), and numpy/python lost its margin when the python kernels
took the shared plan and the no-op skip (the three dons/ood rows are
what gates the fused pass) — so they are reported and never gated.

    python tools/perf_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(workload, metric, op, limit)``: the metric's value must be
#: ``op`` (``"<"`` or ``">"``) the limit.
GATES = (
    ("dcn_fattree8_dctcp", "des.ratio_dons_over_ood", "<", 1.0),
    ("steady_udp_ffwd", "des.ratio_dons_over_ood", "<", 1.0),
    ("wan_twin_35k", "des.ratio_dons_over_ood", "<", 1.0),
    ("steady_udp_ffwd", "memo.ratio_ffwd_over_plain", "<", 0.2),
    ("steady_udp_ffwd", "memo.hit", ">", 0),
)

#: ``(workload, metric)`` reported beside the gates, not gated.
PRINTED = (
    ("dcn_fattree8_dctcp", "backend.ratio_numpy_over_python"),
    ("cluster2_shm_fattree4", "cluster.ratio_over_serial"),
    ("cluster2_shm_fattree4", "cluster.ratio_1agent_over_serial"),
    ("dcn_fattree8_dctcp", "trace.overhead_ratio"),
    ("steady_udp_ffwd", "trace.overhead_ratio"),
    ("wan_twin_35k", "trace.overhead_ratio"),
    ("cluster2_shm_fattree4", "trace.overhead_ratio"),
)


def value(results: Dict[str, Dict[str, Any]], workload: str,
          metric: str) -> float:
    return results[workload]["metrics"][metric]["value"]


def check(results: Dict[str, Dict[str, Any]]) -> List[str]:
    """The failures in ``results`` (workload -> ``run.py`` result object):
    one line per workload with failed operations and per gate not met."""
    failures = []
    for workload, result in results.items():
        if result["failed"]:
            failures.append(f"{workload}: {result['failed']} of "
                            f"{result['attempted']} operations failed")
    for workload, metric, op, limit in GATES:
        got = value(results, workload, metric)
        if not (got < limit if op == "<" else got > limit):
            failures.append(f"{workload}: {metric} = {got:.4g}, "
                            f"gate {op} {limit}")
    return failures


def run_small(workload: str) -> Dict[str, Any]:
    """One traced run of ``workload``'s small sibling; its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "benchmarks", "perf", "run.py"),
         "--workload", workload, "--small", "--trace", "1", "--seconds", "2"],
        stdout=subprocess.PIPE, text=True, cwd=REPO)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    results = {workload: run_small(workload) for workload in workloads}
    rows = ([(w, m, f"gate {op} {limit}") for w, m, op, limit in GATES]
            + [(w, m, "not gated") for w, m in PRINTED])
    for workload, metric, note in rows:
        print(f"{workload:<24}{metric:<36}"
              f"{value(results, workload, metric):>10.4g}  {note}")
    failures = check(results)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"OK: {len(GATES)} gates on {len(workloads)} workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
