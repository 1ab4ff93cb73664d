"""The environment surface of ``src/repro`` is the one name README
lists, read once by the module that owns its default; the engine and the
cluster stack read no environment at all (agents are configured by the
``AgentSpec`` that crosses the transport).  A new switch therefore needs
a reviewed diff here and in README."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
NAME = re.compile(r"REPRO_[A-Z_]+")


def test_repro_env_names_are_the_documented_ones():
    in_code = {name for path in SRC.rglob("*.py")
               for name in NAME.findall(path.read_text())}
    in_readme = set(NAME.findall((ROOT / "README.md").read_text()))
    assert in_code == in_readme == {"REPRO_BENCH_OUT"}


def test_each_name_has_one_reader():
    """``REPRO_BENCH_OUT`` in ``bench.tables``: nothing else under
    ``src/repro`` looks at the environment."""
    reads = {str(path.relative_to(SRC)):
             len(re.findall(r"os\.environ|getenv", path.read_text()))
             for path in SRC.rglob("*.py")}
    assert {path: n for path, n in reads.items() if n} == {
        "bench/tables.py": 1,
    }


def test_cluster_stack_reads_no_environment():
    readers = [str(path.relative_to(ROOT))
               for path in (SRC / "cluster").rglob("*.py")
               if re.search(r"os\.environ|getenv", path.read_text())]
    assert readers == []
