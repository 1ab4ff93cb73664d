#!/usr/bin/env python
"""Data-center incast: the partition/aggregate pattern that motivates DCTCP.

31 workers inside a FatTree8 answer a query to one aggregator at the
same instant.  The aggregator's edge link becomes the hotspot; DCTCP's
ECN-threshold marking keeps the queue bounded.  We sweep the switch
buffer size and compare schedulers, printing queue/drop/FCT statistics —
the kind of study the paper positions DONS for.

    python examples/datacenter_incast.py
"""

from repro import fattree, incast, make_scenario, run_dons
from repro.schedulers import SchedulerKind
from repro.units import GBPS, ps_to_us, us


def run_case(buffer_kb: int, scheduler: SchedulerKind):
    topo = fattree(8, rate_bps=10 * GBPS, delay_ps=us(1))
    hosts = topo.hosts
    target = hosts[0]
    workers = hosts[1:32]
    flows = incast(target, workers, size_bytes=64_000, stagger_ps=0)
    scenario = make_scenario(
        topo, flows,
        name=f"incast-{buffer_kb}KB-{scheduler.value}",
        scheduler=scheduler,
        buffer_bytes=buffer_kb * 1024,
    )
    res = run_dons(scenario)
    fcts = res.fcts_ps()
    return {
        "completed": res.completed(),
        "drops": res.drops,
        "marks": res.marks,
        "p50_us": ps_to_us(sorted(fcts)[len(fcts) // 2]) if fcts else None,
        "p99_us": ps_to_us(sorted(fcts)[-1]) if fcts else None,
    }


def main() -> None:
    print(f"{'buffer':>8} {'sched':>6} {'done':>5} {'drops':>6} "
          f"{'marks':>6} {'p50 FCT us':>11} {'max FCT us':>11}")
    for buffer_kb in (32, 128, 1024):
        for sched in (SchedulerKind.FIFO, SchedulerKind.DRR):
            r = run_case(buffer_kb, sched)
            print(f"{buffer_kb:>6}KB {sched.value:>6} {r['completed']:>5} "
                  f"{r['drops']:>6} {r['marks']:>6} "
                  f"{r['p50_us']:>11.1f} {r['p99_us']:>11.1f}")
    print("\nsmall buffers drop and retransmit; ECN marking kicks in "
          "before loss on the larger ones.")


if __name__ == "__main__":
    main()
