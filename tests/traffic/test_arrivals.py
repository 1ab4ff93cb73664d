"""Columnar arrival engine: batch/scalar equivalence, chunk-invariant
determinism, exact per-class accounting, degenerate mixes, round trips."""

import json
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.scenario import make_scenario
from repro.scenario_io import scenario_from_json, scenario_to_json
from repro.topology import dumbbell
from repro.traffic import Flow, Transport, arrivals
from repro.traffic.arrivals import (
    ARRIVAL_KINDS, ArrivalProcess, FlowColumns,
    INTERARRIVAL_CDFS, synthesize,
)
from repro.units import GBPS, PS_PER_S, us

HOSTS = tuple(range(8))
HORIZON = us(200)


@st.composite
def processes(draw):
    """A short list of valid arrival processes over a shared host set."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(ARRIVAL_KINDS))
        classes = draw(st.integers(min_value=1, max_value=3))
        mix = tuple(draw(st.floats(min_value=0.05, max_value=1.0))
                    for _ in range(classes))
        kw = dict(
            kind=kind, src_hosts=HOSTS, dst_hosts=HOSTS,
            horizon_ps=HORIZON,
            size_bytes=draw(st.integers(min_value=200, max_value=90_000)),
            transport=draw(st.sampled_from(
                [Transport.DCTCP, Transport.RENO, Transport.UDP])),
            priority_mix=mix,
            src_alpha=draw(st.sampled_from([0.0, 0.9, 1.4])),
            dst_alpha=draw(st.sampled_from([0.0, 1.1])),
            max_flows=draw(st.one_of(
                st.none(), st.integers(min_value=1, max_value=60))),
            start_ps=draw(st.sampled_from([0, us(3)])),
        )
        rate = draw(st.floats(min_value=0.2, max_value=4.0)) \
            * 200.0 * PS_PER_S / HORIZON
        if kind == "poisson":
            kw["rate_per_s"] = rate
        elif kind == "onoff":
            kw.update(rate_per_s=2 * rate, on_ps=HORIZON // 6,
                      off_ps=HORIZON // draw(st.sampled_from([3, 6, 12])))
        elif kind == "periodic":
            kw["period_ps"] = draw(st.sampled_from(
                [HORIZON // 200, HORIZON // 37, HORIZON // 5]))
        else:
            kw["inter_cdf"] = draw(st.sampled_from(
                sorted(INTERARRIVAL_CDFS)))
        out.append(ArrivalProcess(**kw))
    return out


class TestSynthesis:
    @given(procs=processes(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(deadline=None, max_examples=30)
    def test_batch_vs_scalar_equivalence(self, procs, seed):
        """The batch iterator, scalar iterator, indexing, and raw columns
        all describe the same flows."""
        cols = synthesize(procs, seed)
        scalar = list(cols)
        assert len(scalar) == len(cols)
        raw = cols.columns()
        rebuilt = {k: [] for k in raw}
        with mock.patch.object(arrivals, "DEFAULT_BATCH", 7):
            batches = list(cols.iter_batches())
        for s, batch in batches:
            assert s % 7 == 0
            for k in rebuilt:
                rebuilt[k].append(batch[k])
        for k, chunks in rebuilt.items():
            assert np.concatenate(chunks).tolist() == raw[k].tolist()
        for i, f in enumerate(scalar):
            assert isinstance(f, Flow)
            assert f.flow_id == i
            assert (f.src, f.dst, f.size_bytes, f.start_ps, f.priority) == \
                (int(raw["src"][i]), int(raw["dst"][i]),
                 int(raw["size_bytes"][i]), int(raw["start_ps"][i]),
                 int(raw["priority"][i]))
            assert int(f.transport) == int(raw["transport"][i])
            g = cols[i]
            assert (g.src, g.dst, g.size_bytes, g.start_ps) == \
                (f.src, f.dst, f.size_bytes, f.start_ps)

    @given(procs=processes(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(deadline=None, max_examples=20)
    def test_seed_determinism_across_chunk_sizes(self, procs, seed):
        """The synthesis chunk is a performance knob, never a semantic
        one: any chunk size yields bit-identical columns."""
        ref = synthesize(procs, seed, chunk=8192).columns()
        for chunk in (1, 3, 61, 1024):
            got = synthesize(procs, seed, chunk=chunk).columns()
            for k in ref:
                assert got[k].tolist() == ref[k].tolist(), (k, chunk)
        again = synthesize(procs, seed, chunk=8192).columns()
        assert all(again[k].tolist() == ref[k].tolist() for k in ref)

    @given(seed=st.integers(min_value=0, max_value=2**32),
           caps=st.lists(st.integers(min_value=1, max_value=40),
                         min_size=1, max_size=3))
    @settings(deadline=None, max_examples=20)
    def test_exact_per_class_rate_accounting(self, seed, caps):
        """One-hot class mixes with binding flow caps: the per-class
        flow counts must hit each process's cap exactly — arrivals are
        neither lost nor double-counted across the merge."""
        horizon_s = HORIZON / PS_PER_S
        procs = [
            ArrivalProcess(
                kind="poisson", src_hosts=HOSTS, dst_hosts=HOSTS,
                horizon_ps=HORIZON, rate_per_s=20.0 * cap / horizon_s,
                size_bytes=1000,
                priority_mix=tuple(1.0 if c == i else 0.0
                                   for c in range(len(caps))),
                max_flows=cap)
            for i, cap in enumerate(caps)
        ]
        cols = synthesize(procs, seed)
        counts = np.bincount(cols.columns()["priority"])
        assert len(cols) == sum(caps)
        for i, cap in enumerate(caps):
            assert counts[i] == cap
        # The merge is globally start-ordered with a deterministic tie
        # break, so starts are non-decreasing.
        starts = cols.columns()["start_ps"]
        assert (np.diff(starts) >= 0).all()

    def test_degenerate_mixes_rejected(self):
        base = dict(kind="poisson", src_hosts=HOSTS, dst_hosts=HOSTS,
                    horizon_ps=HORIZON, rate_per_s=1e6, size_bytes=100)
        with pytest.raises(ConfigError):
            ArrivalProcess(priority_mix=(), **base)
        with pytest.raises(ConfigError):
            ArrivalProcess(priority_mix=(0.0, 0.0), **base)
        with pytest.raises(ConfigError):
            ArrivalProcess(priority_mix=(0.5, -0.1), **base)
        with pytest.raises(ConfigError):  # no possible dst != src
            ArrivalProcess(kind="poisson", src_hosts=(3,), dst_hosts=(3,),
                           horizon_ps=HORIZON, rate_per_s=1e6,
                           size_bytes=100)
        with pytest.raises(ConfigError):  # empty process list
            synthesize([], 1)
        with pytest.raises(ConfigError):  # rate so low nothing arrives
            synthesize([ArrivalProcess(
                kind="poisson", src_hosts=HOSTS, dst_hosts=HOSTS,
                horizon_ps=HORIZON, rate_per_s=1e-6,
                size_bytes=100)], 1)

    def test_process_round_trip(self):
        proc = ArrivalProcess(
            kind="onoff", src_hosts=HOSTS, dst_hosts=HOSTS[:4],
            horizon_ps=HORIZON, rate_per_s=2e6, on_ps=us(10), off_ps=us(30),
            size_bytes=777, size_dist="tiny", transport=Transport.UDP,
            priority_mix=(0.25, 0.75), src_alpha=1.2, max_flows=9,
            label="rt")
        assert ArrivalProcess.from_dict(proc.to_dict()) == proc


class TestScenarioRoundTrip:
    def _cols(self, seed=5):
        return synthesize([ArrivalProcess(
            kind="poisson", src_hosts=HOSTS[:4], dst_hosts=HOSTS[:4],
            horizon_ps=HORIZON, rate_per_s=3e5, size_bytes=40_000,
            priority_mix=(0.5, 0.5), max_flows=20)], seed)

    def test_scenario_io_round_trip_keeps_columns(self):
        topo = dumbbell(2, edge_rate_bps=10 * GBPS)
        sc = make_scenario(topo, self._cols(), num_classes=2)
        back = scenario_from_json(scenario_to_json(sc))
        assert isinstance(back.flows, FlowColumns)
        a, b = sc.flows.columns(), back.flows.columns()
        for k in a:
            assert a[k].tolist() == b[k].tolist(), k
        # A document saved with the flow table's old ``batch_size``
        # field still loads, to the same columns.
        doc = json.loads(scenario_to_json(sc))
        assert "batch_size" not in doc["flow_columns"]
        doc["flow_columns"]["batch_size"] = 6
        old = scenario_from_json(json.dumps(doc)).flows.columns()
        for k in a:
            assert a[k].tolist() == old[k].tolist(), k

    def test_pickle_round_trip_keeps_columns(self):
        cols = self._cols()
        back = pickle.loads(pickle.dumps(cols))
        a, b = cols.columns(), back.columns()
        for k in a:
            assert a[k].tolist() == b[k].tolist(), k

    def test_indexing_builds_facades_on_demand(self):
        """``cols[i]`` is a fresh :class:`Flow` equal to row ``i`` of the
        iteration; nothing is cached between reads."""
        cols = self._cols()
        flows = list(cols)
        assert [cols[i] for i in range(len(cols))] == flows
        assert cols[-1] == flows[-1] and cols[1:3] == flows[1:3]
        assert cols[0] is not cols[0]
        with pytest.raises(IndexError):
            cols[len(cols)]
