"""The conformance fuzz loop behind ``python -m repro fuzz``.

One *run* = generate a spec, build its scenario, execute every requested
oracle, diff each trace against the reference, and feed every trace to
the invariant catalogue.  A failing run produces a :class:`CheckReport`
with the first divergence and/or invariant violations; with shrinking
enabled the spec is then minimized (re-running the full check per
candidate) and the minimal repro is written as a JSON artifact that
``replay_file`` / the regression-corpus test can re-execute exactly.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .diff import Divergence, first_divergence, results_divergence
from .generator import FORMAT, ScenarioSpec, generate_spec, shrink
from .invariants import Violation, check_invariants
from .oracles import DEFAULT_ORACLES, OracleRun, run_oracle
from ..errors import ConfigError, ReproError

#: Artifact schema version for failure repros and corpus entries.
ARTIFACT_FORMAT = "repro-conformance-artifact-v1"


@dataclass
class CheckReport:
    """The outcome of checking one spec across a set of oracles."""

    spec: ScenarioSpec
    oracles: Sequence[str]
    divergences: List[Divergence] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    entry_counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None     # an oracle raised instead of tracing
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (not self.divergences and not self.violations
                and self.error is None)

    def summary(self) -> str:
        if self.ok:
            n = self.entry_counts.get(self.oracles[0], 0)
            return (f"ok: {self.spec.scenario_name()} — "
                    f"{len(self.oracles)} oracles byte-identical "
                    f"({n} trace entries, {self.elapsed_s:.2f}s)")
        parts = [f"FAIL: {self.spec.scenario_name()}"]
        if self.error:
            parts.append(f"  error: {self.error}")
        for div in self.divergences:
            parts.append("  " + div.format().replace("\n", "\n  "))
        for vio in self.violations:
            parts.append(f"  invariant {vio}")
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": ARTIFACT_FORMAT,
            "spec": self.spec.to_dict(),
            "oracles": list(self.oracles),
            "ok": self.ok,
            "error": self.error,
            "divergences": [d.to_dict() for d in self.divergences],
            "violations": [
                {"invariant": v.invariant, "oracle": v.oracle,
                 "message": v.message}
                for v in self.violations
            ],
            "entry_counts": dict(self.entry_counts),
        }


def check_spec(spec: ScenarioSpec,
               oracles: Sequence[str] = DEFAULT_ORACLES) -> CheckReport:
    """Run one spec through every oracle; diff + invariants."""
    started = time.perf_counter()
    report = CheckReport(spec=spec, oracles=tuple(oracles))
    try:
        scenario = spec.build()
    except ConfigError as exc:
        # The generator should never emit an unbuildable spec; surface it
        # as a harness failure rather than silently skipping the run.
        report.error = f"spec does not build: {exc}"
        return report
    reference: Optional[OracleRun] = None
    for name in oracles:
        try:
            run = run_oracle(name, scenario)
        except ReproError as exc:
            report.error = f"oracle {name!r} failed: {exc}"
            break
        if run.trace is None:
            # A trace-off oracle: no trace to check or diff, its results
            # are held to the reference's part by part.
            if reference is None or reference.parts is None:
                report.error = (f"trace-off oracle {name!r} needs a serial "
                                "traced reference (ood or dons*) before it")
                break
            div = results_divergence(reference, run)
        else:
            report.entry_counts[run.oracle] = run.n_entries
            report.violations.extend(check_invariants(scenario, run))
            if reference is None:
                reference = run
                continue
            div = first_divergence(scenario, reference, run)
        if div is not None:
            report.divergences.append(div)
    report.elapsed_s = time.perf_counter() - started
    return report


def write_artifact(report: CheckReport, directory: Path) -> Path:
    """Persist a failing report as a replayable JSON repro."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{report.spec.scenario_name()}.json"
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path


def write_failure_telemetry(
        report: CheckReport,
        directory: Path) -> Tuple[Optional[Path], Optional[Path]]:
    """Re-run a failing spec on the DOD engine with telemetry on and
    archive, from that one run's bus, a Chrome-trace timeline and the
    flight dump of its last windows next to the repro artifact — the
    first things to open when triaging a nightly failure (the flight
    dump is the quick look when the full timeline is tens of MB).
    Returns ``(timeline, flight)``, each ``None`` when not written."""
    from ..core.engine import DodEngine
    from ..metrics.timeline import write_flight, write_timeline
    directory.mkdir(parents=True, exist_ok=True)
    try:
        engine = DodEngine(report.spec.build(), telemetry=True)
        engine.run()
    except ReproError:  # a failure can make the re-run itself unrunnable
        return None, None
    name = report.spec.scenario_name()
    timeline = directory / f"{name}.timeline.json"
    write_timeline(engine.bus, str(timeline), manifest=dict(
        command="fuzz", scenario=name,
    ))
    flight = directory / f"{name}.flight.json"
    if write_flight(engine.bus, str(flight)) is None:
        flight = None
    return timeline, flight


@dataclass
class FuzzResult:
    """Aggregate outcome of one fuzz campaign."""

    runs: int
    failures: List[CheckReport] = field(default_factory=list)
    shrunk: Optional[CheckReport] = None
    artifact: Optional[Path] = None
    timeline: Optional[Path] = None
    flight: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    seed: int,
    runs: int,
    oracles: Sequence[str] = DEFAULT_ORACLES,
    do_shrink: bool = False,
    artifact_dir: Optional[Path] = None,
    emit: Callable[[str], None] = lambda _msg: None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzResult:
    """Check ``runs`` generated scenarios; stop at the first failure.

    A failure is optionally shrunk to a minimal spec (re-checking each
    shrink candidate with the same oracle set) and written to
    ``artifact_dir`` as a JSON repro, along with a telemetry timeline of
    the failing scenario.  ``progress(done, total)`` is called before
    each run (the CLI's ``--progress`` meter).
    """
    result = FuzzResult(runs=runs)
    for index in range(runs):
        if progress is not None:
            progress(index + 1, runs)
        spec = generate_spec(seed, index)
        report = check_spec(spec, oracles)
        emit(f"[{index + 1}/{runs}] {report.summary()}")
        if report.ok:
            continue
        result.failures.append(report)
        final = report
        if do_shrink:
            emit("shrinking...")

            def still_fails(candidate: ScenarioSpec) -> bool:
                return not check_spec(candidate, oracles).ok

            minimal = shrink(spec, still_fails)
            final = check_spec(minimal, oracles)
            result.shrunk = final
            emit(f"shrunk to {minimal.scenario_name()} "
                 f"({minimal.num_nodes()} nodes, {minimal.n_flows} flows)")
            emit(final.summary())
        if artifact_dir is not None:
            result.artifact = write_artifact(final, artifact_dir)
            emit(f"repro artifact: {result.artifact}")
            result.timeline, result.flight = write_failure_telemetry(
                final, artifact_dir)
            if result.timeline is not None:
                emit(f"failure timeline: {result.timeline}")
            if result.flight is not None:
                emit(f"failure flight dump: {result.flight}")
        break
    return result


def load_spec_file(path: Path) -> ScenarioSpec:
    """Load a spec from a corpus entry, repro artifact, or bare spec.
    An unreadable file, non-JSON text or a non-object document is a
    :class:`ConfigError` naming the file."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the document must be a JSON object, "
                          f"got {type(data).__name__}")
    if data.get("format") == ARTIFACT_FORMAT:
        data = data.get("spec")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: the artifact's spec must be a "
                              "JSON object")
    if data.get("format") not in (None, FORMAT):
        raise ConfigError(
            f"{path}: unknown conformance file format {data.get('format')!r}")
    return ScenarioSpec.from_dict(data)


def replay_file(path: Path,
                oracles: Sequence[str] = DEFAULT_ORACLES) -> CheckReport:
    """Re-run a saved spec (corpus entry or failure artifact)."""
    return check_spec(load_spec_file(path), oracles)


def cmd_fuzz(args: Any) -> int:
    """CLI glue for ``python -m repro fuzz``."""
    oracles = (tuple(args.oracles.split(","))
               if args.oracles else DEFAULT_ORACLES)
    if args.replay:
        report = replay_file(Path(args.replay), oracles)
        print(report.summary())
        return 0 if report.ok else 1
    artifact_dir = Path(args.artifact_dir) if args.artifact_dir else None
    progress = None
    if getattr(args, "progress", False) and sys.stderr.isatty():
        def progress(done: int, total: int) -> None:
            sys.stderr.write(f"\rfuzz {done}/{total}\x1b[K")
            sys.stderr.flush()
    try:
        result = fuzz(args.seed, args.runs, oracles,
                      do_shrink=args.shrink, artifact_dir=artifact_dir,
                      emit=print, progress=progress)
    finally:
        if progress is not None:
            sys.stderr.write("\r\x1b[K")
            sys.stderr.flush()
    if result.ok:
        print(f"fuzz: {result.runs} runs, "
              f"{len(oracles)} oracles, all byte-identical")
        return 0
    return 1
