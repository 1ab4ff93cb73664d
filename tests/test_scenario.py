"""Scenario construction and validation."""

import pytest

from repro.errors import ConfigError
from repro.protocols import MSS, AqmConfig, AqmKind
from repro.scenario import HOST_BUFFER_BYTES, make_scenario
from repro.schedulers import SchedulerKind
from repro.topology import Topology, dumbbell
from repro.traffic import Flow
from repro.units import GBPS, HEADER_BYTES, us


def test_defaults(small_dumbbell):
    sc = make_scenario(small_dumbbell, [Flow(0, 0, 4, 1000, 0)])
    assert sc.switch_egress.aqm.kind == AqmKind.ECN_THRESHOLD
    assert sc.host_egress.buffer_bytes == HOST_BUFFER_BYTES
    assert sc.host_egress.aqm.kind == AqmKind.NONE
    assert sc.lookahead_ps == small_dumbbell.min_link_delay_ps()
    assert sc.fib.entry_count() > 0


def test_lookahead_is_taken_once_when_the_topology_freezes():
    """Both cluster transports read ``lookahead_ps`` every window, so a
    read must not walk the links: the frozen topology answers from the
    minimum ``freeze()`` took."""
    topo = dumbbell(2, delay_ps=us(3), bottleneck_delay_ps=us(2))
    sc = make_scenario(topo, [Flow(0, 0, 2, 1000, 0)])

    class Unwalkable(list):
        def __iter__(self):
            raise AssertionError("lookahead read walked the links")
    topo.links = Unwalkable(topo.links)
    assert [sc.lookahead_ps for _ in range(3)] == [us(2)] * 3


@pytest.mark.parametrize("buffer_bytes", [1_499, 1_024, 0, -1_024])
def test_buffer_below_one_full_size_packet_refused(small_dumbbell,
                                                   buffer_bytes):
    """A switch queue that cannot hold one full-size segment tail-drops
    every one of them, and DCTCP retransmits it forever: refused where
    the scenario is made, with the value named."""
    flows = [Flow(0, 0, 4, 100_000, 0)]
    with pytest.raises(ConfigError, match=f"buffer_bytes={buffer_bytes} "):
        make_scenario(small_dumbbell, flows, buffer_bytes=buffer_bytes)
    sc = make_scenario(small_dumbbell, flows, buffer_bytes=MSS + HEADER_BYTES)
    assert sc.switch_egress.buffer_bytes == 1_500


def test_flows_validated_against_hosts(small_dumbbell):
    with pytest.raises(ConfigError):
        make_scenario(small_dumbbell, [Flow(0, 0, 8, 1000, 0)])  # 8 = switch


def test_empty_flows_rejected(small_dumbbell):
    with pytest.raises(ConfigError):
        make_scenario(small_dumbbell, [])


def test_unfrozen_topology_rejected():
    topo = Topology("raw")
    h0, h1 = topo.add_host(), topo.add_host()
    s = topo.add_switch()
    topo.add_link(h0, s)
    topo.add_link(h1, s)
    from repro.scenario import Scenario
    with pytest.raises(ConfigError):
        make_scenario(topo, [Flow(0, h0, h1, 1, 0)])


def test_scheduler_and_classes_plumbed(small_dumbbell):
    sc = make_scenario(
        small_dumbbell,
        [Flow(0, 0, 4, 1000, 0, priority=2), Flow(1, 1, 5, 1000, 0)],
        scheduler=SchedulerKind.SP, num_classes=3,
    )
    assert sc.switch_egress.scheduler == SchedulerKind.SP
    assert sc.switch_egress.num_classes == 3
    assert sc.classifier_table() == [2, 0]


def test_shared_fib_reused(small_dumbbell):
    from repro.routing import build_fib
    fib = build_fib(small_dumbbell)
    sc = make_scenario(small_dumbbell, [Flow(0, 0, 4, 1000, 0)], fib=fib)
    assert sc.fib is fib


def test_custom_aqm(small_dumbbell):
    aqm = AqmConfig(kind=AqmKind.RED)
    sc = make_scenario(small_dumbbell, [Flow(0, 0, 4, 1000, 0)], aqm=aqm)
    assert sc.switch_egress.aqm.kind == AqmKind.RED


@pytest.mark.parametrize("field,value", [
    ("duration_ps", -5), ("duration_ps", -1), ("ecmp_mode", "spray"),
])
def test_bad_stop_or_ecmp_mode_refused(small_dumbbell, field, value):
    """A negative hard stop or an unknown ECMP mode used to build a
    scenario that ran 0 events; both are refused where it is made."""
    with pytest.raises(ConfigError, match=field):
        make_scenario(small_dumbbell, [Flow(0, 0, 4, 1000, 0)],
                      **{field: value})
