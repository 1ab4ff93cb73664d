"""Tests of the benchmark harness itself, on the scaled-down siblings.

Run with ``pytest benchmarks/perf`` (tier-1 collects ``tests/`` only).
Every test drives the one command, ``run.py``, the way the pipeline
does, and reads its last line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--small",
         "--repeats", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.fixture(scope="module", params=WORKLOADS)
def workload(request):
    return request.param


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_named_metric_once_with_its_unit(workload, trace, section):
    proc, lines = run_benchmark("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for name, unit in named.items():
        printed = [ln.split() for ln in lines[:-1] if ln.split()[0] == name]
        assert len(printed) == 1, name
        assert printed[0][2] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    if trace:
        with open(os.path.join(HERE, "out", f"{workload}.trace.json")) as fh:
            traced = json.load(fh)
        closes = traced["attribution"]
        assert closes["sum_s"] == pytest.approx(closes["advance_loop_s"],
                                                rel=1e-6)
        assert "engine.advance_loop" in closes["self_s"]
        assert traced["digest_check"]["equal"]
        assert traced["digest_check"]["entries"] > 0
        ids = {span[0] for span in traced["spans"]}
        assert all(span[1] in ids or span[1] == -1
                   for span in traced["spans"])


def test_wrong_pinned_event_total_is_a_failed_operation():
    proc, lines = run_benchmark("--workload", "steady_udp_ffwd",
                                "--trace", "0", "--pin-events", "12345")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    share = [ln.split() for ln in lines if ln.startswith("failed_share")]
    assert float(share[0][1]) > 0


def test_exits_nonzero_where_the_program_is_absent(tmp_path):
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
