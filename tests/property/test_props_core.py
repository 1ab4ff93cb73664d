"""Property-based tests: core data structures and pure functions."""

from hypothesis import given, settings, strategies as st

from repro.core.ecs import CommandBuffer, FieldSpec, SoATable, consolidate
from repro.protocols.packet import segment_count, segment_payload, MSS
from repro.rng import ecmp_hash
from repro.units import GBPS, serialization_time_ps


@given(st.integers(min_value=1, max_value=10**7))
@settings(deadline=None)
def test_segmentation_reassembles_exactly(size):
    total = segment_count(size)
    assert sum(segment_payload(size, s) for s in range(total)) == size
    assert all(1 <= segment_payload(size, s) <= MSS for s in range(total))


@given(st.integers(min_value=0, max_value=10**7),
       st.integers(min_value=0, max_value=10**7),
       st.sampled_from([1, 10, 40, 100, 400]))
def test_serialization_superadditive_never_negative(a, b, gbps):
    rate = gbps * GBPS
    ta = serialization_time_ps(a, rate)
    tb = serialization_time_ps(b, rate)
    tab = serialization_time_ps(a + b, rate)
    # floor-division rounding can only lose < 1 ps per term
    assert 0 <= tab - (ta + tb) <= 2
    assert ta >= 0


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=1, max_size=4))
def test_ecmp_hash_stable_and_bounded(values):
    h = ecmp_hash(*values)
    assert h == ecmp_hash(*values)
    assert 0 <= h < 2**64


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 10**6)),
                max_size=200),
       st.integers(min_value=1, max_value=8))
def test_command_buffer_consolidation_preserves_everything(entries, workers):
    buffers = [CommandBuffer() for _ in range(workers)]
    for i, (target, item) in enumerate(entries):
        buffers[i % workers].append(target, item)
    sink = {}
    n = consolidate(buffers, sink)
    assert n == len(entries)
    flat = [(t, i) for t, items in sink.items() for i in items]
    assert sorted(flat) == sorted(entries)


@given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=300))
def test_soa_table_columns_mirror_inserts(values):
    t = SoATable("x", (FieldSpec("v", 0), FieldSpec("w", -1)))
    for v in values:
        t.add(v=v)
    assert t.column("v") == values
    assert t.column("w") == [-1] * len(values)
    assert len(t) == len(values)
