"""The environment surface of ``src/repro`` is the five names README
lists, and the cluster stack reads no environment at all (agents are
configured by the ``AgentSpec`` that crosses the transport).  A new
switch therefore needs a reviewed diff here and in README."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
NAME = re.compile(r"REPRO_[A-Z_]+")


def test_repro_env_names_are_the_documented_five():
    in_code = {name for path in SRC.rglob("*.py")
               for name in NAME.findall(path.read_text())}
    in_readme = set(NAME.findall((ROOT / "README.md").read_text()))
    assert in_code == in_readme == {
        "REPRO_BACKEND", "REPRO_FFWD", "REPRO_LIVE_INTERVAL_MS",
        "REPRO_METRICS_PORT", "REPRO_BENCH_OUT",
    }


def test_cluster_stack_reads_no_environment():
    readers = [str(path.relative_to(ROOT))
               for path in (SRC / "cluster").rglob("*.py")
               if re.search(r"os\.environ|getenv", path.read_text())]
    assert readers == []
