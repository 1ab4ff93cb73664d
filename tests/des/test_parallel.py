"""Multi-LP parallel baseline: partitions, channels, null messages."""

from collections import Counter

import pytest

from repro.bench.scenarios import dcn_scenario
from repro.core.instrument import OP_SERVICE
from repro.des import (
    OodSimulator, ParallelOodSimulator, Partition, contiguous_partition,
    random_partition, run_baseline, single_partition,
)
from repro.errors import PartitionError, SimulationError
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import dumbbell, fattree
from repro.traffic import Flow
from repro.units import GBPS, us


class TestPartitionTypes:
    def test_single_partition(self, fattree4):
        p = single_partition(fattree4)
        assert p.num_parts == 1
        assert set(p.assignment) == {0}

    def test_random_partition_covers_all_parts(self, fattree4):
        p = random_partition(fattree4, 4, seed=1)
        assert set(p.assignment) == {0, 1, 2, 3}
        assert len(p.assignment) == fattree4.num_nodes

    def test_random_partition_deterministic(self, fattree4):
        assert (random_partition(fattree4, 3, 7).assignment
                == random_partition(fattree4, 3, 7).assignment)

    def test_contiguous_partition_balanced(self, fattree4):
        p = contiguous_partition(fattree4, 4)
        sizes = p.part_sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_cut_links(self, small_dumbbell):
        # hosts 0..7, swL=8, swR=9
        p = Partition(tuple([0] * 4 + [1] * 4 + [0, 1]), 2)
        cut = p.cut_links(small_dumbbell)
        assert len(cut) == 1  # only the bottleneck link is cut
        assert p.is_cut(small_dumbbell, cut[0])

    def test_invalid_partitions_rejected(self):
        with pytest.raises(PartitionError):
            Partition((), 1)
        with pytest.raises(PartitionError):
            Partition((0, 3), 2)  # part id out of range


class TestParallelExecution:
    def _scenario(self):
        topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
        hosts = topo.hosts
        flows = [Flow(i, hosts[i], hosts[15 - i], 50_000, i * us(1))
                 for i in range(8)]
        return make_scenario(topo, flows, buffer_bytes=40_000)

    @pytest.mark.parametrize("k,seed", [(2, 1), (3, 2), (4, 3)])
    def test_matches_sequential(self, k, seed):
        sc = self._scenario()
        ref = run_baseline(sc, TraceLevel.FULL)
        psim = ParallelOodSimulator(
            sc, random_partition(sc.topology, k, seed), TraceLevel.FULL)
        res = psim.run()
        assert sorted(res.trace.entries) == sorted(ref.trace.entries)
        assert res.fcts_ps() == ref.fcts_ps()
        assert res.events.total == ref.events.total

    def test_sync_statistics_populated(self):
        sc = self._scenario()
        psim = ParallelOodSimulator(sc, random_partition(sc.topology, 2, 1))
        psim.run()
        st = psim.stats
        assert st.rounds > 0
        assert st.null_messages > 0
        assert st.data_messages > 0
        assert len(st.lp_events) == 2
        assert sum(st.lp_events) > 0

    def test_worse_partition_more_messages(self):
        sc = self._scenario()
        rand = ParallelOodSimulator(sc, random_partition(sc.topology, 2, 1))
        rand.run()
        cont = ParallelOodSimulator(sc, contiguous_partition(sc.topology, 2))
        cont.run()
        assert rand.stats.data_messages >= cont.stats.data_messages

    def test_lp_ops_add_up_to_the_sequential_runs(self):
        """Per op code, the LPs' published ops add up to the sequential
        engine's: a service whose arrival crosses the cut is an
        ``OP_SERVICE`` like any other."""
        sc = dcn_scenario(4, 0.2, max_flows=40, seed=5)

        def counted(bus):
            counts = Counter()
            bus.ops = lambda code, _where, _uid: counts.update((code,))
            return counts

        seq = OodSimulator(sc)
        expected = counted(seq.bus)
        seq.run()
        psim = ParallelOodSimulator(sc, random_partition(sc.topology, 2, 1))
        per_lp = [counted(lp.bus) for lp in psim.lps]
        psim.run()
        assert expected[OP_SERVICE] > 0
        assert sum(per_lp, Counter()) == expected

    def test_partition_size_mismatch_raises(self, dumbbell_scenario):
        bad = Partition(tuple([0] * 3), 1)
        with pytest.raises(SimulationError):
            ParallelOodSimulator(dumbbell_scenario, bad)
