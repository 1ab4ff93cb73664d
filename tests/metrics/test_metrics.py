"""Metrics: trace recorder, results containers, Wasserstein distances."""

import numpy as np
import pytest

from repro.metrics import (
    EventCounts, FlowResult, SimResults, TraceKind, TraceLevel,
    TraceRecorder, load_vector_distance, normalized_w1, wasserstein_1d,
)


class TestTraceRecorder:
    def test_sorted_entries_and_digest_stable(self):
        a = TraceRecorder(TraceLevel.FULL)
        b = TraceRecorder(TraceLevel.FULL)
        a.deq(5, 1, 1, 0, 1)
        a.deq(3, 1, 1, 0, 0)
        b.deq(3, 1, 1, 0, 0)
        b.deq(5, 1, 1, 0, 1)
        assert a.sorted_entries() == b.sorted_entries()
        assert a.digest() == b.digest()

    def test_digest_differs_on_content(self):
        a = TraceRecorder(TraceLevel.FULL)
        b = TraceRecorder(TraceLevel.FULL)
        a.deq(3, 1, 1, 0, 0)
        b.deq(3, 1, 1, 0, 1)
        assert a.digest() != b.digest()

    def test_drop_and_flow_done_kinds(self):
        t = TraceRecorder(TraceLevel.FULL)
        t.drop(1, 2, 3, 0, 4)
        t.flow_done(9, 7, 3)
        kinds = [e[1] for e in t.entries]
        assert kinds == [TraceKind.DROP, TraceKind.FLOW_DONE]


class TestResults:
    def test_flow_result_fct(self):
        fr = FlowResult(0, 100, 400, 1000)
        assert fr.fct_ps == 300
        assert FlowResult(0, 100, None, 1000).fct_ps is None

    def test_flow_result_is_a_slotted_record(self):
        """One record per flow, so no ``__dict__``; it still compares,
        prints and pickles field by field."""
        import pickle
        fr = FlowResult(0, 100, 400, 1000)
        assert not hasattr(fr, "__dict__")
        with pytest.raises(AttributeError):
            fr.extra = 1
        assert fr == FlowResult(flow_id=0, start_ps=100, complete_ps=400,
                                size_bytes=1000)
        assert fr != FlowResult(0, 100, None, 1000) and fr != (0, 100, 400)
        assert repr(fr) == ("FlowResult(flow_id=0, start_ps=100, "
                            "complete_ps=400, size_bytes=1000)")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(fr, protocol))
            assert back == fr and back.fct_ps == 300
        fr.complete_ps = 700
        assert fr.fct_ps == 600

    def test_event_counts_add(self):
        a = EventCounts(1, 2, 3, 4)
        a.add(EventCounts(10, 20, 30, 40))
        assert (a.send, a.forward, a.transmit, a.ack) == (11, 22, 33, 44)
        assert a.total == 110

    def test_summaries(self):
        res = SimResults("e", "s", 10)
        res.flows[1] = FlowResult(1, 0, 500, 10)
        res.flows[0] = FlowResult(0, 0, 200, 10)
        res.flows[2] = FlowResult(2, 0, None, 10)
        assert res.fcts_ps() == [200, 500]  # flow-id order, finished only
        assert res.completed() == 2


class TestWasserstein:
    def test_identical_distributions_zero(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert wasserstein_1d(xs, xs) == 0.0

    def test_shift_equals_offset(self):
        xs = np.arange(100.0)
        assert wasserstein_1d(xs, xs + 3.5) == pytest.approx(3.5)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        a = rng.exponential(2.0, 500)
        b = rng.normal(5.0, 1.0, 300)
        assert wasserstein_1d(a, b) == pytest.approx(
            scipy_stats.wasserstein_distance(a, b), rel=1e-9)

    def test_symmetry(self):
        a = [1.0, 4.0, 4.0]
        b = [2.0, 2.0, 8.0, 9.0]
        assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d([], [1.0])

    def test_normalized_w1(self):
        ref = [10.0] * 50
        assert normalized_w1(ref, ref) == 0.0
        assert normalized_w1([20.0] * 50, ref) == pytest.approx(1.0)

    def test_load_vector_distance(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        assert load_vector_distance(a, a) == 0.0
        # full mass relocated across the whole vector: maximal distance
        assert load_vector_distance(a, b) == pytest.approx(0.75)
        # relocation by one slot is a smaller change
        c = np.array([0.0, 1.0, 0.0, 0.0])
        assert load_vector_distance(a, c) < load_vector_distance(a, b)
        with pytest.raises(ValueError):
            load_vector_distance([1.0], [1.0, 2.0])

    def test_load_vector_scale_invariant(self):
        a = np.array([1.0, 2.0, 3.0])
        assert load_vector_distance(a, 10 * a) == pytest.approx(0.0)
