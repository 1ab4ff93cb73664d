"""The conformance harness's own tests: generator determinism, shrink
convergence, divergence attribution, invariant sensitivity, and the
planted-bug drill (the harness must catch the bug class it exists for).
"""

import dataclasses
import json

import pytest

from repro.conformance.diff import first_divergence, results_divergence
from repro.conformance.generator import (
    ScenarioSpec, generate_spec, shrink, shrink_candidates,
)
from repro.conformance.inject import (
    flipped_transmit_order, skewed_arrival_stream, stale_cache_delta,
    stale_window_index, torn_shm_read, unstable_transmit_sort,
)
from repro.conformance.invariants import check_invariants
from repro.conformance.oracles import run_oracle
from repro.conformance.runner import (
    check_spec, fuzz, load_spec_file, replay_file, write_artifact,
)
from repro.errors import ReproError

FAST_ORACLES = ("ood", "dons")
#: The memo-cache drill needs the fast-forward engine; corruption is
#: only observable on cache *hits*, so the fuzz stream must contain
#: steady-traffic specs that actually hit (seed 100 does, early).
FFWD_ORACLES = ("ood", "dons-ffwd")
#: The one-call transmit sink runs only without a trace stream, so only
#: these two oracles reach it.
NOTRACE_ORACLES = ("ood", "dons-notrace", "dons-ffwd-notrace")
#: The torn-frame drill needs an oracle that decodes shared-memory
#: frames; the pickled transports never touch the framing code.
SHM_ORACLES = ("ood", "cluster-shm-2")

SMALL = ScenarioSpec(seed=7, topology="dumbbell", topo_arg=2,
                     traffic="fixed", n_flows=4, flow_kb=30)


def caught_with_memo_on(planted_bug, seed):
    """A memo captures what the kernels emit, so the fast-forwarding
    engine inherits a planted kernel bug; it must not mask one."""
    with planted_bug():
        return not fuzz(seed, 25, FFWD_ORACLES).ok


class TestGenerator:
    def test_generation_is_deterministic(self):
        for i in range(8):
            assert generate_spec(3, i) == generate_spec(3, i)
        assert generate_spec(3, 0) != generate_spec(4, 0)

    def test_build_is_deterministic(self):
        spec = generate_spec(0, 0)
        a, b = spec.build(), spec.build()
        assert a.name == b.name
        assert len(a.flows) == len(b.flows)
        assert [(f.src, f.dst, f.start_ps) for f in a.flows] == \
               [(f.src, f.dst, f.start_ps) for f in b.flows]

    def test_spec_json_round_trip(self):
        for i in range(8):
            spec = generate_spec(1, i)
            doc = json.loads(json.dumps(spec.to_dict()))
            assert ScenarioSpec.from_dict(doc) == spec

    def test_generated_specs_build(self):
        for i in range(12):
            scenario = generate_spec(2, i).build()
            assert scenario.flows and scenario.lookahead_ps > 0

    def test_candidates_are_strictly_simpler(self):
        spec = generate_spec(0, 0)
        for cand in shrink_candidates(spec):
            assert cand != spec

    def test_shrink_converges_to_minimum(self):
        spec = dataclasses.replace(SMALL, n_flows=24, topo_arg=6,
                                   traffic="incast", scheduler="drr",
                                   num_classes=3)
        minimal = shrink(spec, lambda s: s.n_flows >= 3)
        assert minimal.n_flows == 3
        assert minimal.topology == "dumbbell" and minimal.topo_arg == 1
        assert minimal.traffic == "fixed" and minimal.scheduler == "fifo"

    def test_shrink_survives_invalid_candidates(self):
        def predicate(s):
            if s.topo_arg < 2:
                from repro.errors import ConfigError
                raise ConfigError("too small to build")
            return s.n_flows >= 3
        minimal = shrink(SMALL, predicate)
        assert minimal.topo_arg >= 2 and minimal.n_flows == 3


class TestOraclesAndInvariants:
    def test_unknown_oracle_is_an_error(self):
        with pytest.raises(ReproError, match="unknown oracle"):
            run_oracle("no-such-engine", SMALL.build())

    def test_clean_run_has_no_violations(self):
        scenario = SMALL.build()
        run = run_oracle("dons", scenario)
        assert run.trace and check_invariants(scenario, run) == []

    def test_invariants_flag_doctored_traces(self):
        scenario = SMALL.build()
        run = run_oracle("dons", scenario)

        negative = dataclasses.replace(
            run, trace=[(-1,) + run.trace[0][1:]] + run.trace[1:])
        assert any(v.invariant == "monotone-time"
                   for v in check_invariants(scenario, negative))

        from repro.metrics.trace import TraceKind
        deq = next(e for e in run.trace if e[1] == TraceKind.DEQ)
        doubled = dataclasses.replace(run, trace=sorted(run.trace + [deq]))
        found = {v.invariant for v in check_invariants(scenario, doubled)}
        assert "service-ordering" in found

        enq = next(e for e in run.trace if e[1] == TraceKind.ENQ)
        missing = dataclasses.replace(
            run, trace=[e for e in run.trace if e != enq])
        assert any(v.invariant == "conservation"
                   for v in check_invariants(scenario, missing))

        impossible = dataclasses.replace(run, lookahead_ps=10 ** 15)
        assert any(v.invariant == "lookahead"
                   for v in check_invariants(scenario, impossible))

    def test_first_divergence_attributes_the_op(self):
        scenario = SMALL.build()
        ref = run_oracle("ood", scenario)
        cand = run_oracle("dons", scenario)
        assert first_divergence(scenario, ref, cand) is None

        truncated = dataclasses.replace(cand, trace=cand.trace[:-1])
        div = first_divergence(scenario, ref, truncated)
        assert div is not None
        assert div.op_index == len(cand.trace) - 1
        assert div.cand_entry is None and div.ref_entry == ref.trace[-1]
        assert div.window == ref.trace[-1][0] // scenario.lookahead_ps
        assert div.system and div.entity
        assert "window" in div.format()


    def test_results_divergence_names_the_part(self):
        ref = run_oracle("ood", SMALL.build())
        cand = run_oracle("dons-notrace", SMALL.build())
        assert cand.trace is None and cand.n_entries == 0
        assert [name for name, _ in cand.parts] == \
               [name for name, _ in ref.parts]
        assert results_divergence(ref, cand) is None

        index = next(i for i, (name, _) in enumerate(cand.parts)
                     if name.startswith("iface"))
        name, stats = cand.parts[index]
        cand.parts[index] = (name, (stats[0] + 1,) + stats[1:])
        div = results_divergence(ref, cand)
        assert div is not None and div.op_index == index
        assert (div.system, div.entity) == ("results", name)
        assert div.ref_entry == (stats,) and div.window is None
        assert div.format().startswith("results divergence")

        cand.parts.pop()
        cand.parts[index] = (name, stats)
        div = results_divergence(ref, cand)
        assert div.op_index == len(cand.parts) and div.cand_entry == (None,)


class TestFuzzLoop:
    def test_check_spec_passes_on_fast_oracles(self):
        report = check_spec(SMALL, FAST_ORACLES)
        assert report.ok, report.summary()
        assert report.entry_counts["ood"] == report.entry_counts["dons"]

    def test_trace_off_oracles_are_held_to_the_reference(self):
        """Every scheduler the spec space draws, through the trace-off
        engine plain and fast-forwarded: result parts (event
        totals, flows, RTTs, every port's stats) equal the OOD run's."""
        seen = set()
        for index in range(40):
            spec = generate_spec(11, index)
            if spec.scheduler in seen:
                continue
            seen.add(spec.scheduler)
            report = check_spec(spec, NOTRACE_ORACLES)
            assert report.ok, report.summary()
            assert list(report.entry_counts) == ["ood"]
        assert seen == {"fifo", "sp", "rr", "drr"}

    def test_trace_off_oracle_cannot_be_the_reference(self):
        report = check_spec(SMALL, ("dons-notrace", "ood"))
        assert not report.ok and "reference" in report.error
        report = check_spec(SMALL, ("cluster-local-2", "dons-notrace"))
        assert not report.ok and "reference" in report.error

    def test_planted_ordering_bug_is_caught_and_shrunk(self, tmp_path):
        """The acceptance drill: flip the transmit kernel's tie-break;
        the fuzz loop must catch it within 25 runs and shrink it to a
        tiny topology with window/system/entity attribution."""
        with flipped_transmit_order():
            result = fuzz(0, 25, FAST_ORACLES, do_shrink=True,
                          artifact_dir=tmp_path)
        assert not result.ok, "planted bug survived 25 fuzz runs"
        assert result.shrunk is not None
        assert result.shrunk.spec.num_nodes() <= 8
        div = result.shrunk.divergences[0]
        assert div.window is not None and div.system and div.entity

        # The artifact replays: still failing under the bug, clean after.
        assert result.artifact is not None and result.artifact.exists()
        with flipped_transmit_order():
            assert not replay_file(result.artifact, FAST_ORACLES).ok
        assert replay_file(result.artifact, FAST_ORACLES).ok
        assert caught_with_memo_on(flipped_transmit_order, 0)

    def test_planted_stale_window_index_is_caught_and_shrunk(self, tmp_path):
        """The columnar-store drill: corrupt the window-occupancy index
        so singleton buckets are invisible to the scheduler.  The plain
        fast oracles must catch the starved windows — and shrink the
        repro small."""
        with stale_window_index():
            result = fuzz(0, 25, FAST_ORACLES, do_shrink=True,
                          artifact_dir=tmp_path)
        assert not result.ok, "planted bug survived 25 fuzz runs"
        assert result.shrunk is not None
        assert result.shrunk.spec.num_nodes() <= 8
        div = result.shrunk.divergences[0]
        assert div.window is not None and div.system and div.entity

        # The artifact replays: still failing under the bug, clean after.
        assert result.artifact is not None and result.artifact.exists()
        with stale_window_index():
            assert not replay_file(result.artifact, FAST_ORACLES).ok
        assert replay_file(result.artifact, FAST_ORACLES).ok
        assert caught_with_memo_on(stale_window_index, 0)

    def test_planted_unstable_sort_is_caught_and_shrunk(self, tmp_path):
        """The sort drill: replace the transmit ordering-contract sort
        with one unstable on (time, prio) ties.  The fuzz loop must
        catch it against the OOD reference — and shrink it small."""
        with unstable_transmit_sort():
            result = fuzz(0, 25, FAST_ORACLES, do_shrink=True,
                          artifact_dir=tmp_path)
        assert not result.ok, "planted bug survived 25 fuzz runs"
        assert result.shrunk is not None
        assert result.shrunk.spec.num_nodes() <= 8
        div = result.shrunk.divergences[0]
        assert div.window is not None and div.system and div.entity

        # Both transmit paths read the one hook: the trace-off sink is
        # infected too, and its result parts diverge from the reference.
        with unstable_transmit_sort():
            assert not check_spec(result.shrunk.spec,
                                  ("ood", "dons-notrace")).ok

        # The artifact replays: still failing under the bug, clean after.
        assert result.artifact is not None and result.artifact.exists()
        with unstable_transmit_sort():
            assert not replay_file(result.artifact, FAST_ORACLES).ok
        assert replay_file(result.artifact, FAST_ORACLES).ok
        assert caught_with_memo_on(unstable_transmit_sort, 0)

    def test_planted_stale_cache_delta_is_caught_and_shrunk(self, tmp_path):
        """The memoization drill: poison each captured window delta so
        cache hits replay a wrong write-set.  Executed windows stay
        byte-correct — only fast-forwarded replays diverge — so the bug
        is invisible to every oracle except ``dons-ffwd`` on a
        workload whose window signatures repeat."""
        with stale_cache_delta():
            result = fuzz(100, 25, FFWD_ORACLES, do_shrink=True,
                          artifact_dir=tmp_path)
        assert not result.ok, "planted bug survived 25 fuzz runs"
        assert result.shrunk is not None
        assert result.shrunk.spec.num_nodes() <= 8
        div = result.shrunk.divergences[0]
        assert div.window is not None and div.system and div.entity

        # Cycle jumps are part of the oracle that caught it: the failing
        # spec, run clean, is carried over whole cycles by them (under
        # the bug the first poisoned hit breaks the periodicity, so the
        # divergence is found before any jump could hide it).
        clean = run_oracle("dons-ffwd",
                           result.failures[0].spec.build())
        assert clean.counters["memo.jump"] > 0

        # Engines without the fast-forward cache never read a poisoned
        # delta: the same fuzz stream stays clean without the oracle.
        with stale_cache_delta():
            assert fuzz(100, 4, FAST_ORACLES).ok

        # The artifact replays: still failing under the bug, clean after.
        assert result.artifact is not None and result.artifact.exists()
        with stale_cache_delta():
            assert not replay_file(result.artifact, FFWD_ORACLES).ok
        assert replay_file(result.artifact, FFWD_ORACLES).ok

    def test_planted_torn_shm_read_is_caught_and_shrunk(self, tmp_path):
        """The process-transport drill: tear the shared-memory frame
        decoder so every multi-record frame loses its last record — the
        signature of a reader racing the writer past the commit word.
        Only the pair rings are infected, so the fuzz loop must catch
        the lost packets through the ``cluster-shm-2`` oracle — and
        shrink the repro small."""
        with torn_shm_read():
            result = fuzz(0, 25, SHM_ORACLES, do_shrink=True,
                          artifact_dir=tmp_path)
        assert not result.ok, "planted bug survived 25 fuzz runs"
        assert result.shrunk is not None
        assert result.shrunk.spec.num_nodes() <= 8
        div = result.shrunk.divergences[0]
        assert div.window is not None and div.system and div.entity

        # In-process agents never decode frames: the same fuzz stream
        # stays clean when the process transport is not asked for.
        with torn_shm_read():
            assert fuzz(0, 3, ("ood", "cluster-local-2")).ok

        # The artifact replays: still failing under the bug, clean after.
        assert result.artifact is not None and result.artifact.exists()
        with torn_shm_read():
            assert not replay_file(result.artifact, SHM_ORACLES).ok
        assert replay_file(result.artifact, SHM_ORACLES).ok

    def test_planted_skewed_arrivals_are_caught_and_shrunk(self, tmp_path):
        """The columnar-traffic drill: skew the first arrival batch's
        inter-arrival gaps by 7 us inside the ``batch_filter`` hook.
        Only consumers of the batch iterator are infected — the DOD
        builder's columnar path — while the OOD reference materializes
        flows scalar-wise and stays truthful.  The fuzz loop must reach
        a columnar spec (``wan_twin`` / ``storage``), catch the time
        shift as a trace divergence, and shrink it small."""
        with skewed_arrival_stream():
            result = fuzz(5, 25, FAST_ORACLES, do_shrink=True,
                          artifact_dir=tmp_path)
        assert not result.ok, "planted bug survived 25 fuzz runs"
        assert result.shrunk is not None
        assert result.shrunk.spec.traffic in ("wan_twin", "storage")
        assert result.shrunk.spec.num_nodes() <= 8
        div = result.shrunk.divergences[0]
        assert div.window is not None and div.system and div.entity

        # Per-flow traffic kinds never touch the batch hook: a fixed
        # spec stays byte-identical with the bug live.
        with skewed_arrival_stream():
            assert check_spec(SMALL, FAST_ORACLES).ok

        # The artifact replays: still failing under the bug, clean after.
        assert result.artifact is not None and result.artifact.exists()
        with skewed_arrival_stream():
            assert not replay_file(result.artifact, FAST_ORACLES).ok
        assert replay_file(result.artifact, FAST_ORACLES).ok
        assert caught_with_memo_on(skewed_arrival_stream, 5)

    def test_artifact_round_trip(self, tmp_path):
        report = check_spec(SMALL, FAST_ORACLES)
        path = write_artifact(report, tmp_path)
        assert load_spec_file(path) == SMALL
        doc = json.loads(path.read_text())
        assert doc["ok"] and doc["spec"]["seed"] == SMALL.seed


def test_fuzz_cli_smoke(capsys):
    from repro.cli import main
    assert main(["fuzz", "--seed", "0", "--runs", "1",
                 "--oracles", "ood,dons,dons-ffwd"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out
