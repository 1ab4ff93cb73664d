"""Layer probes: single layers on fixed synthetic input, independent of
the workload, seed and every other layer.  Each probe is calibrated by
the slices taken immediately before and after it."""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict, List

from repro.cluster.shm import (
    KIND_OUTBOX, ShmRing, outbox_record_count, pack_outbox, unpack_outbox,
)
from repro.core.events import EventColumns
from repro.partition import ClusterSpec, plan_scenario
from repro.routing import build_fib
from repro.scenario import make_scenario
from repro.topology import abilene, fattree
from repro.traffic import Transport, fixed_flows
from repro.traffic.arrivals import synthesize
from repro.units import GBPS

from estimator import Slice, factor, spin
from workloads import wan_processes


def _row(i: int):
    # flow, is_ack, seq, size, ce, ece, send_ts, src, dst
    return (i % 64, 0, i, 1500, 0, 0, i * 1000, i % 16, 16 + i % 16)


def _events_insert_pop() -> float:
    """Million entries per second through ``insert_arrivals`` and
    ``pop_window_columns``: 50 ports x 40 emissions per window."""
    lookahead = 1_000_000
    emissions = [(_row(i), i * 20_000, (i + 1) * 20_000) for i in range(40)]
    rounds, ports = 200, 50
    events = EventColumns()
    t0 = perf_counter()
    for r in range(rounds):
        for port in range(ports):
            events.insert_arrivals(port, emissions, lookahead * (r + 1),
                                   lookahead, r + 1)
        for win in events.windows():
            events.pop_window_columns(win)
    return rounds * ports * len(emissions) / 1e6, perf_counter() - t0


def _shm_roundtrip():
    """A 1,000-record outbox through ``pack_outbox`` -> ``write_frame``
    -> ``read_frame`` -> ``unpack_outbox`` in one process."""
    outbox = {1: [(i * 1000, i % 20, _row(i)) for i in range(1000)]}
    count = outbox_record_count(outbox)
    rounds = 100
    ring = ShmRing.create("bench-probe")
    try:
        pack_s = 0.0
        nbytes = 0
        t0 = perf_counter()
        for _ in range(rounds):
            p0 = perf_counter()
            payload = pack_outbox(outbox)
            pack_s += perf_counter() - p0
            nbytes += len(payload)
            seq = ring.write_frame(KIND_OUTBOX, count, [payload])
            _kind, _count, view = ring.read_frame(seq)
            unpack_outbox(view)
            view.release()
            ring.mark_consumed(seq)
        total_s = perf_counter() - t0
    finally:
        ring.unlink()
        ring.close()
    return rounds, total_s, nbytes, pack_s


def run_probes(slice_log: List[Slice]) -> Dict[str, float]:
    """Every probe metric; the slices taken go to ``slice_log``.  The
    probes mix interpreter and NumPy work: both halves count equally."""
    def timed(fn):
        gc.collect()
        slices = spin()
        out = fn()
        slices += spin()
        slice_log.extend(slices)
        return out, factor(slices, 0.5)

    m: Dict[str, float] = {}
    (mops, seconds), cal = timed(_events_insert_pop)
    m["probe.events.insert_pop_Mops"] = mops / (seconds * cal)

    (rounds, total_s, nbytes, pack_s), cal = timed(_shm_roundtrip)
    m["probe.shm.frame_roundtrip_us"] = total_s * cal / rounds * 1e6
    m["probe.shm.pack_MBps"] = nbytes / 1e6 / (pack_s * cal)

    n_flows = 100_000
    procs = wan_processes(abilene().hosts, n_flows)

    def synth():
        t0 = perf_counter()
        synthesize(procs, 1)
        return perf_counter() - t0

    seconds, cal = timed(synth)
    m["probe.arrivals.synth_flows_per_s"] = n_flows / (seconds * cal)

    topo = fattree(8, rate_bps=10 * GBPS)

    def fib(rounds=3):
        t0 = perf_counter()
        for _ in range(rounds):
            table = build_fib(topo)
        return table, (perf_counter() - t0) / rounds

    (table, seconds), cal = timed(fib)
    m["probe.fib.build_s"] = seconds * cal

    flows = fixed_flows(topo.hosts, n_flows=256, size_bytes=200_000,
                        transport=Transport.DCTCP, seed=1)
    scenario = make_scenario(topo, flows, name="probe", fib=table)

    def plan(rounds=10):
        t0 = perf_counter()
        for _ in range(rounds):
            plan_scenario(scenario, ClusterSpec.homogeneous(4))
        return (perf_counter() - t0) / rounds

    seconds, cal = timed(plan)
    m["probe.partition.plan_s"] = seconds * cal
    return m
