#!/usr/bin/env python
"""Fault tolerance (§8): checkpoint a run, 'crash', resume, verify.

Runs a FatTree scenario with periodic checkpoints into two replica
directories, simulates a crash by discarding the engine, resumes from
the surviving replica, and verifies the resumed trace is identical to an
uninterrupted run.  Finishes by printing the first per-flow completion
times straight off the resumed ``SimResults``.

    python examples/fault_tolerant_run.py
"""

import os
import tempfile

from repro import fattree, full_mesh_dynamic, make_scenario, run_dons
from repro.core.checkpoint import CheckpointingEngine, CheckpointStore
from repro.metrics import TraceLevel
from repro.traffic import TINY
from repro.units import GBPS, ms, ps_to_us, us


def main() -> None:
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.5), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=77, max_flows=80)
    scenario = make_scenario(topo, flows, name="fault-tolerant-demo")

    reference = run_dons(scenario, TraceLevel.FULL)
    print(f"reference run: {reference.completed()}/{len(flows)} flows, "
          f"digest {reference.trace.digest()}")

    with tempfile.TemporaryDirectory() as tmp:
        replicas = [os.path.join(tmp, "rack-a"), os.path.join(tmp, "rack-b")]
        store = CheckpointStore(replicas)
        engine = CheckpointingEngine(scenario, TraceLevel.FULL,
                                     store=store, every_windows=25,
                                     name="demo")
        engine.run()
        print(f"checkpointed run: {engine.checkpoints_taken} snapshots "
              f"into {len(replicas)} replicas")

        # --- the crash: one replica dies WITH the machine ----------------
        for name in os.listdir(replicas[0]):
            os.remove(os.path.join(replicas[0], name))
        del engine

        checkpoint = store.load("demo")  # served by the survivor
        fresh = CheckpointingEngine(scenario, TraceLevel.FULL)
        resumed = fresh.resume_from(checkpoint)

    assert resumed.trace.digest() == reference.trace.digest()
    print(f"resumed from window {checkpoint.current_window}: trace "
          f"identical to the uninterrupted run")

    print(f"\nper-flow results ({len(resumed.flows)} flows), head:")
    print("  flow_id  size_bytes  fct_us")
    for fid in sorted(resumed.flows)[:5]:
        fr = resumed.flows[fid]
        fct = f"{ps_to_us(fr.fct_ps):.3f}" if fr.fct_ps is not None else "-"
        print(f"  {fid:>7}  {fr.size_bytes:>10}  {fct}")


if __name__ == "__main__":
    main()
