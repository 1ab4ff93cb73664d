#!/usr/bin/env python
"""Quickstart: simulate a dumbbell with DCTCP on both engines.

Runs four 150 KB DCTCP flows over a shared 10 Gbps bottleneck, first on
the classical object-oriented DES baseline, then on the data-oriented
DONS engine, and shows the paper's headline property: the two engines
produce identical results — same FCTs, same RTT samples, same event
trace digest — while being architecturally different.

    python examples/quickstart.py
"""

from repro import (
    Flow, Transport, dumbbell, make_scenario, run_baseline, run_dons,
)
from repro.metrics import TraceLevel
from repro.units import GBPS, ps_to_us


def main() -> None:
    # 1. Topology: 4 host pairs around one 10 Gbps bottleneck.
    topo = dumbbell(4, edge_rate_bps=10 * GBPS,
                    bottleneck_rate_bps=10 * GBPS)
    print(f"topology: {topo}")

    # 2. Traffic: hosts 0..3 each send 150 KB to hosts 4..7.
    flows = [Flow(i, i, 4 + i, 150_000, 0, Transport.DCTCP)
             for i in range(4)]

    # 3. One scenario, two engines.
    scenario = make_scenario(topo, flows, name="quickstart")
    baseline = run_baseline(scenario, TraceLevel.FULL)
    dons = run_dons(scenario, TraceLevel.FULL)

    # 4. Results.
    print("\nflow completion times (us):")
    for fid, fct in enumerate(dons.fcts_ps()):
        print(f"  flow {fid}: {ps_to_us(fct):9.2f}")

    rtts = dons.rtts_ps()
    print(f"\nRTT samples: {len(rtts)}   "
          f"min {ps_to_us(min(rtts)):.2f} us   "
          f"max {ps_to_us(max(rtts)):.2f} us")
    print(f"ECN marks at the bottleneck: {dons.marks}")

    # 5. The fidelity claim, checked live.
    assert baseline.fcts_ps() == dons.fcts_ps()
    assert baseline.trace.digest() == dons.trace.digest()
    print(f"\ntrace digest (both engines): {dons.trace.digest()}")
    print("OOD baseline and DONS agree, timestamp for timestamp.")


if __name__ == "__main__":
    main()
