"""Thread-pool run-time environment of the DOD engine (§3.3).

Within a machine DONS runs one logical process; each system's work is
split into independent tasks (chunks of entities) executed on a worker
pool.  Because tasks within one system share no mutable state (writes go
through command buffers), results are identical whatever the thread
interleaving — the pool returns per-task results *in task order* and the
engine consolidates deterministically.

CPython's GIL means the pool cannot show real speedups here (DESIGN.md);
what it preserves is the execution structure — task granularity, barrier
per system, per-task accounting — which is what the cost model consumes
to reproduce the paper's utilization and speedup numbers.

Task accounting is published to the owning engine's
:class:`~repro.core.instrument.InstrumentationBus` (``pool.tasks`` /
``pool.items`` counters plus per-system profiles), which replaced the
pool-local ``PoolStats``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from .instrument import InstrumentationBus

T = TypeVar("T")
R = TypeVar("R")


def env_flag(name: str) -> bool:
    """The one truthiness rule for ``REPRO_*`` on/off switches: anything
    but unset / empty / ``0`` / ``false`` / ``off`` is on."""
    return os.environ.get(name, "") not in ("", "0", "false", "off")


class WorkerPool:
    """Deterministic map over independent tasks."""

    def __init__(self, workers: int = 1,
                 bus: Optional[InstrumentationBus] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.bus = bus if bus is not None else InstrumentationBus()
        self._pool: Optional[ThreadPoolExecutor] = None
        if workers > 1:
            self._pool = ThreadPoolExecutor(max_workers=workers)

    def map(
        self,
        system: str,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        sizes: Optional[Sequence[int]] = None,
    ) -> List[R]:
        """Run ``fn`` over ``tasks``; results returned in task order.

        ``sizes`` (items per task) feeds utilization accounting; defaults
        to 1 per task.
        """
        self.bus.task_batch(
            system, list(sizes) if sizes is not None else [1] * len(tasks)
        )
        if not tasks:
            return []
        if self._pool is None:
            return [fn(t) for t in tasks]
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        """Release the executor's threads (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    #: Backwards-compatible alias; ``close`` is the lifecycle API.
    shutdown = close

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def chunk_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``parts`` near-equal ranges."""
    if n <= 0:
        return []
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out
