"""The OOD baseline family: sequential engine and multi-LP parallel engine."""

from .events import EventQueue
from .simulator import OodSimulator, run_baseline
from .parallel import (
    Channel, ParallelOodSimulator, ParallelRunStats,
)
from .partition_types import (
    Partition, contiguous_partition, random_partition, single_partition,
)

__all__ = [
    "EventQueue", "OodSimulator", "run_baseline",
    "Channel", "ParallelOodSimulator", "ParallelRunStats",
    "Partition", "contiguous_partition", "random_partition",
    "single_partition",
]
