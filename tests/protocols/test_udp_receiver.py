"""UDP pacing schedule and receiver reassembly."""

from repro.protocols import ReceiverState, UdpSchedule
from repro.protocols.packet import HEADER_BYTES, MSS
from repro.units import GBPS, serialization_time_ps


class TestUdpSchedule:
    def test_enqueue_times_paced_at_line_rate(self):
        sched = UdpSchedule(0, 10 * MSS, start_ps=1000,
                            nic_rate_bps=10 * GBPS)
        per_seg = serialization_time_ps(MSS + HEADER_BYTES, 10 * GBPS)
        for seq in range(10):
            assert sched.enqueue_time(seq) == 1000 + seq * per_seg

    def test_last_segment_payload(self):
        sched = UdpSchedule(0, 2 * MSS + 100, 0, 10 * GBPS)
        assert sched.payload(0) == MSS
        assert sched.payload(2) == 100


class TestReceiver:
    def test_in_order_delivery(self):
        r = ReceiverState(0, total_segs=3, needs_ack=True)
        assert r.on_data(0, 0, 11, 100) == (1, 0, 11)
        assert r.on_data(1, 1, 12, 200) == (2, 1, 12)
        assert not r.complete
        assert r.on_data(2, 0, 13, 300) == (3, 0, 13)
        assert r.complete and r.complete_ps == 300

    def test_out_of_order_reassembly(self):
        r = ReceiverState(0, total_segs=4, needs_ack=True)
        assert r.on_data(2, 0, 0, 10) == (0, 0, 0)   # dup-ack style
        assert r.on_data(0, 0, 0, 20) == (1, 0, 0)
        assert r.on_data(1, 0, 0, 30) == (3, 0, 0)   # jumps past 2
        assert r.on_data(3, 0, 0, 40) == (4, 0, 0)
        assert r.complete_ps == 40

    def test_duplicates_do_not_double_count(self):
        r = ReceiverState(0, total_segs=2, needs_ack=True)
        r.on_data(0, 0, 0, 10)
        r.on_data(0, 0, 0, 20)  # duplicate
        assert r.unique_received == 1
        assert not r.complete
        r.on_data(1, 0, 0, 30)
        assert r.complete

    def test_duplicate_still_acks(self):
        r = ReceiverState(0, total_segs=5, needs_ack=True)
        r.on_data(0, 0, 0, 10)
        ack = r.on_data(0, 0, 0, 20)
        assert ack == (1, 0, 0)  # duplicate cumulative ack drives rtx

    def test_udp_receiver_never_acks(self):
        r = ReceiverState(0, total_segs=2, needs_ack=False)
        assert r.on_data(0, 0, 0, 10) is None
        assert r.on_data(1, 0, 0, 20) is None
        assert r.complete_ps == 20

    def test_completion_time_is_first_full_coverage(self):
        r = ReceiverState(0, total_segs=2, needs_ack=True)
        r.on_data(0, 0, 0, 10)
        r.on_data(1, 0, 0, 20)
        r.on_data(1, 0, 0, 99)  # late duplicate must not move it
        assert r.complete_ps == 20
