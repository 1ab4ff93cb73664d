"""The measuring subprocesses: ``reference``, ``e2e`` and ``layers``.

``run.py`` starts this file once per phase in a fresh interpreter
(``python phases.py <phase> '<json arguments>'``) and reads one JSON
object from the last line of its standard output.

* ``reference`` runs the OOD simulator once on the workload's inputs and
  returns the result fingerprint every timed repeat is compared with.
* ``e2e`` runs nothing but the workload's end-to-end repeats, so its
  ``ru_maxrss`` is the workload's ``peak_rss_mb``.
* ``layers`` (layers.py) does everything else: paired layer runs, the
  traced run, the cProfile run, the scaled-down digest check and the
  layer probes.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from statistics import median
from time import perf_counter
from typing import Any, Dict, List

from harness import checked_run, environment, log, setup, timed_setup
from estimator import slowness, spread
from layers import phase_layers
from workloads import WORKLOADS, Steps, fingerprint

#: Fewest timed repeats a time-budgeted run makes, however slow.
MIN_REPEATS = 3


# --- phase: reference ------------------------------------------------------

def phase_reference(args: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[args["workload"]]
    _scenario, engine = setup(workload, args["seed"], args["small"], Steps(),
                              reference=True)
    run = checked_run(engine, workload.numpy_weight, None, args["timeout_s"])
    if not run["ok"]:
        raise SystemExit("the OOD reference run failed")
    return {"fingerprint": fingerprint(run["results"]),
            "events": run["events"]}


# --- phase: e2e ------------------------------------------------------------

def phase_e2e(args: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[args["workload"]]
    seed, small = args["seed"], args["small"]
    pinned = args.get("pin_events")
    if pinned is None and not small:
        pinned = workload.pinned_events.get(seed)
    budget_s = args["seconds"]
    fixed_repeats = args.get("repeats")

    repeats: List[Dict[str, Any]] = []
    slow: List[float] = []  # slowness of every slice of the phase
    t_start = perf_counter()
    while True:
        elapsed = perf_counter() - t_start
        if fixed_repeats is not None:
            if len(repeats) >= fixed_repeats:
                break
        elif (len(repeats) >= MIN_REPEATS
                and elapsed + elapsed / len(repeats) > budget_s):
            break
        gc.collect()
        engine, setup_s, iterations = timed_setup(workload, seed, small)
        gc.collect()
        run = checked_run(engine, workload.numpy_weight, args["expected"],
                          args["timeout_s"], pinned)
        rep = {"ok": run["ok"], "setup_s": setup_s,
               "error": run.get("error")}
        if "cal_s" in run:  # ran to the end, right or wrong
            rep.update(events=run["events"], run_s_raw=run["wall_s"],
                       run_s=run["cal_s"])
            slow += slowness(run["slices"], workload.numpy_weight)
        repeats.append(rep)
        log(f"  repeat {len(repeats)}: "
            + (f"{rep['events'] / rep['run_s']:.0f} cal events/s, "
               f"run {rep['run_s_raw']:.3f} s raw, set-up "
               f"{setup_s * 1e3:.2f} cal ms x{iterations}"
               if rep["ok"] else "FAILED"))

    # A repeat that ran to the end with wrong results is a failed
    # operation, and still a timing.
    timed = [r for r in repeats if "run_s" in r]
    if not timed:
        raise SystemExit("no timed repeat ran to the end")
    rates = [r["events"] / r["run_s"] for r in timed]
    metrics = {
        "cal_events_per_s": median(rates),
        "setup_s": median([r["setup_s"] for r in repeats]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "attempted": len(repeats),
        "failed": sum(not r["ok"] for r in repeats),
        "metrics": metrics,
        "detail": {
            "repeats": len(repeats),
            "cal_events_per_s_spread": spread(rates),
            "events": timed[0]["events"],
            "run_s_raw_median": median([r["run_s_raw"] for r in timed]),
            "machine_slowness_median": median(slow),
            "machine_slowness_spread": spread(slow),
            "errors": [r["error"].strip().splitlines()[-1]
                       for r in repeats if not r["ok"]],
            "environment": environment(args, workload),
        },
    }


# --- entry point -----------------------------------------------------------

def main(argv: List[str]) -> int:
    phases = {"reference": phase_reference, "e2e": phase_e2e,
              "layers": phase_layers}
    out = phases[argv[1]](json.loads(argv[2]))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
