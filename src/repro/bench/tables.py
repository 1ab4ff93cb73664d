"""ASCII tables for the benchmark harness.

Every bench regenerates a paper table or figure as text: the same rows
and series the paper reports, with a "paper" column beside the measured
or modeled value so shape agreement is visible at a glance.  Tables are
printed and also written under ``benchmarks/out/`` so they survive
pytest's output capture.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

_OUT_DIR_ENV = "REPRO_BENCH_OUT"


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: Optional[str] = None,
) -> str:
    """Render a fixed-width table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} ==",
             " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             sep]
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def out_dir() -> str:
    """Directory bench reports are written to."""
    path = os.environ.get(_OUT_DIR_ENV)
    if path is None:
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
            "benchmarks", "out")
    os.makedirs(path, exist_ok=True)
    return path


def emit(name: str, text: str) -> str:
    """Print a report and persist it under benchmarks/out/<name>.txt."""
    print("\n" + text)
    path = os.path.join(out_dir(), f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path

