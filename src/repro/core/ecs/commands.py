"""Command buffers: the write-conflict fix of Appendix C.

The ForwardSystem has a many-to-one write conflict: several IngressPorts
forward into one EgressPort buffer.  Per the paper, each task records
its writes in a private command buffer, and all buffers are consolidated
afterwards — the *command pattern*.

Consolidation happens in ascending task order, so the result does not
depend on how the tasks were executed; the TransmitSystem's merge-sort
then establishes the canonical chronological order anyway.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class CommandBuffer(Generic[T]):
    """Private append-only log of (target, item) writes for one task."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple[int, T]] = []

    def append(self, target: int, item: T) -> None:
        self.entries.append((target, item))

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


def consolidate(
    buffers: Sequence[CommandBuffer[T]],
    sink: Dict[int, List[T]],
) -> int:
    """Merge task buffers into per-target lists, in task order.

    Returns the number of consolidated writes (cost-model input).
    """
    total = 0
    for buf in buffers:
        for target, item in buf.entries:
            sink.setdefault(target, []).append(item)
        total += len(buf.entries)
    return total
