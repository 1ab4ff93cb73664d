"""``tools/perf_smoke.py``: the gate decision, not the clock.

``check()`` is fed fabricated ``run.py`` result objects — the benchmark
is never run and nothing under ``benchmarks/perf/`` is imported."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "perf_smoke", os.path.join(ROOT, "tools", "perf_smoke.py"))
perf_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_smoke)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def passing_results():
    """Every workload clean, every gated metric just inside its limit."""
    results = {w: {"correct": True, "attempted": 5, "failed": 0,
                   "metrics": {}} for w in WORKLOADS}
    for workload, metric, op, limit in perf_smoke.GATES:
        value = limit - 0.01 if op == "<" else limit + 1
        results[workload]["metrics"][metric] = {"value": value,
                                                "unit": "ratio"}
    return results


def test_all_limits_met():
    assert perf_smoke.check(passing_results()) == []


def test_ratio_over_its_limit_fails():
    results = passing_results()
    metrics = results["wan_twin_35k"]["metrics"]
    metrics["des.ratio_dons_over_ood"]["value"] = 1.15
    assert perf_smoke.check(results) == [
        "wan_twin_35k: des.ratio_dons_over_ood = 1.15, gate < 1.0"]
    # The other direction: a count sitting on its limit has not passed it.
    results = passing_results()
    results["steady_udp_ffwd"]["metrics"]["memo.hit"]["value"] = 0
    assert perf_smoke.check(results) == [
        "steady_udp_ffwd: memo.hit = 0, gate > 0"]


def test_failed_operations_fail():
    results = passing_results()
    results["cluster2_shm_fattree4"].update(correct=False, failed=2)
    assert perf_smoke.check(results) == [
        "cluster2_shm_fattree4: 2 of 5 operations failed"]


def test_every_gated_name_is_a_benchmark_name():
    """A metric renamed in ``BENCHMARK.json`` fails here instead of
    silently un-gating."""
    metrics = {m["name"] for m in BENCHMARK["per_layer"]}
    named = [pair[:2] for pair in perf_smoke.GATES] + list(perf_smoke.PRINTED)
    assert named, "empty gate table"
    for workload, metric in named:
        assert workload in WORKLOADS, workload
        assert metric in metrics, metric
