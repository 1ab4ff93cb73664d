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


def _result(attempted, failed, metrics):
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": "u"}
                        for name, v in metrics.items()}}


def test_median_run_stands_for_three():
    """The median run of the named metric is kept whole — its other
    metrics too — and its operation counts are all three runs'."""
    runs = [_result(8, f, {"memo.ratio_ffwd_over_plain": v, "memo.hit": h})
            for f, v, h in ((0, 0.2353, 1), (1, 0.1279, 2), (0, 0.1417, 3))]
    median = perf_smoke.median_run(runs, "memo.ratio_ffwd_over_plain")
    assert median["metrics"] == runs[2]["metrics"]
    assert (median["attempted"], median["failed"]) == (24, 1)
    assert set(perf_smoke.MEDIAN_OF.items()) <= {
        pair[:2] for pair in perf_smoke.GATES}


def test_history_rows_append_to_a_json_list(tmp_path):
    """The trajectory writer on fabricated results: one row per
    workload, appended, never rewriting an earlier row."""
    env = {"rev": "abc123", "cpus": 2, "python": "3.12.0", "numpy": "2.0"}
    e2e = _result(5, 0, {"cal_events_per_s": 4.5e5, "setup_s": 0.012,
                         "peak_rss_mb": 60.0})
    layers = _result(1, 1, {"engine.windows": 90})
    row = perf_smoke.history_row(env, WORKLOADS[0], e2e, layers)
    assert row == dict(
        env, workload=WORKLOADS[0], seed=perf_smoke.SEED, small=True,
        attempted=6, failed=1, end_to_end=e2e["metrics"],
        per_layer=layers["metrics"])
    path = str(tmp_path / "history.json")
    perf_smoke.append_history(path, [row])
    perf_smoke.append_history(path, [dict(row, rev="def456"), row])
    with open(path) as fh:
        text = fh.read()
    history = json.loads(text)
    assert [r["rev"] for r in history] == ["abc123", "def456", "abc123"]
    assert history[0] == row
    assert len(text.splitlines()) == 2 + len(history)  # a row a line


def test_environment_names_the_code_and_the_box():
    env = perf_smoke.environment()
    assert set(env) == {"rev", "cpus", "python", "numpy"}
    assert env["cpus"] >= 1
