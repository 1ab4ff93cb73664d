"""CLI: spec parsing and command round trips."""

import pytest

from repro.cli import build_flows, build_topology, main, make_parser
from repro.errors import ConfigError
from repro.traffic import Transport


class TestSpecs:
    def test_topology_specs(self):
        assert build_topology("fattree:4").num_hosts == 16
        assert build_topology("dumbbell:3").num_hosts == 6
        assert build_topology("abilene").name == "Abilene"
        assert build_topology("geant").name == "GEANT"
        assert build_topology("isp:5").num_nodes > 100

    def test_unknown_topology(self):
        with pytest.raises(ConfigError):
            build_topology("torus:3")

    def test_mesh_flows(self):
        topo = build_topology("dumbbell:4")
        flows = build_flows("mesh:load=0.5,max=20,seed=3", topo)
        assert 0 < len(flows) <= 20

    def test_fixed_flows_with_transport(self):
        topo = build_topology("dumbbell:4")
        flows = build_flows("fixed:n=5,size=9999,transport=reno", topo)
        assert len(flows) == 5
        assert all(f.transport == Transport.RENO for f in flows)
        assert all(f.size_bytes == 9999 for f in flows)

    def test_bad_flow_spec(self):
        topo = build_topology("dumbbell:2")
        with pytest.raises(ConfigError):
            build_flows("storm:x", topo)
        with pytest.raises(ConfigError):
            build_flows("mesh:oops", topo)


class TestCommands:
    def test_run_dons(self, capsys):
        rc = main(["run", "--topology", "dumbbell:2",
                   "--flows", "fixed:n=2,size=30000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flows completed : 2/2" in out

    def test_run_ood(self, capsys):
        rc = main(["run", "--engine", "ood", "--topology", "dumbbell:2",
                   "--flows", "fixed:n=2,size=30000"])
        assert rc == 0

    def test_bad_backend_is_a_parse_error(self):
        """Every ``--backend`` is bad: there is one set of systems, and
        no subcommand selects one."""
        for command in ("run", "compare", "profile", "stats", "viz"):
            with pytest.raises(SystemExit):
                make_parser().parse_args([command, "--backend", "numpy"])

    def test_compare_identical(self, capsys):
        rc = main(["compare", "--topology", "fattree:4",
                   "--flows", "fixed:n=4,size=20000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "identical       : True" in out

    def test_plan(self, capsys):
        rc = main(["plan", "--topology", "fattree:4",
                   "--flows", "mesh:max=40,load=0.5", "--machines", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "machine 0" in out

    def test_viz(self, tmp_path, capsys):
        rc = main(["viz", "--topology", "dumbbell:2",
                   "--flows", "fixed:n=2,size=30000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "flows.svg").exists()
        assert (tmp_path / "links.svg").exists()

    def test_error_exit_code(self, capsys):
        rc = main(["run", "--topology", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTelemetryCommands:
    ARGS = ["--topology", "dumbbell:2", "--flows", "fixed:n=2,size=30000"]

    def test_profile_timeline_export(self, tmp_path, capsys):
        from repro.metrics.timeline import validate_timeline_file
        out = tmp_path / "timeline.json"
        rc = main(["profile", *self.ARGS, "--timeline", str(out)])
        assert rc == 0
        events = validate_timeline_file(str(out))
        assert any(e.get("name") == "run" for e in events)
        assert (tmp_path / "timeline.json.manifest.json").exists()

    def test_profile_cluster_timeline_export(self, tmp_path, capsys):
        from repro.metrics.timeline import validate_timeline_file
        out = tmp_path / "cluster.json"
        rc = main(["profile", *self.ARGS, "--cluster", "2",
                   "--timeline", str(out)])
        assert rc == 0
        events = validate_timeline_file(str(out))
        assert {e["pid"] for e in events} == {0, 1, 2}

    def test_profile_ffwd_flag(self, capsys):
        import json
        udp = ["--topology", "dumbbell:2",
               "--flows", "fixed:n=2,size=60000,transport=udp"]
        rc = main(["profile", *udp, "--ffwd", "--json"])
        assert rc == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert any(k.startswith("memo.") for k in counters)
        rc = main(["profile", *udp, "--json"])
        assert rc == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert not any(k.startswith("memo.") for k in counters)

    def test_timeline_manifest_records_resolved_switches(
            self, tmp_path, capsys):
        """The manifest reports what the engine actually ran with:
        ``--ffwd`` as given, and no kernel set — there is only one."""
        import json
        udp = ["--topology", "dumbbell:2",
               "--flows", "fixed:n=2,size=60000,transport=udp"]
        out = tmp_path / "timeline.json"
        rc = main(["profile", *udp, "--ffwd", "--timeline", str(out),
                   "--json"])
        assert rc == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert any(k.startswith("memo.") for k in counters)
        manifest = json.loads(
            (tmp_path / "timeline.json.manifest.json").read_text())
        assert manifest["ffwd"] is True
        assert "backend" not in manifest

    def test_stats_json_stdout(self, capsys):
        import json
        rc = main(["stats", *self.ARGS])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        from repro.metrics.timeline import TELEMETRY_SCHEMA_VERSION
        assert report["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert "flow.completion_time_us" in report["metrics"]["histograms"]

    def test_stats_to_file_with_manifest(self, tmp_path, capsys):
        """``--out`` writes the JSON record plus its manifest; the CSV
        twin is gone, so ``--format`` is not an option any more."""
        import json
        out = tmp_path / "stats.json"
        rc = main(["stats", *self.ARGS, "--out", str(out)])
        assert rc == 0
        assert "counters" in json.loads(out.read_text())
        assert (tmp_path / "stats.json.manifest.json").exists()
        with pytest.raises(SystemExit) as exc:
            main(["stats", *self.ARGS, "--format", "csv"])
        assert exc.value.code == 2

    def test_stats_cluster_reports_agent_series(self, tmp_path, capsys):
        import json
        out = tmp_path / "stats.json"
        rc = main(["stats", *self.ARGS, "--cluster", "2",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["agent_busy_s"]) == 2
        assert len(report["agent_barrier_wait_s"]) == 2

    def test_progress_suppressed_off_tty(self, capsys):
        rc = main(["profile", *self.ARGS, "--progress"])
        assert rc == 0
        assert "\r" not in capsys.readouterr().err

    def test_progress_meter_renders_on_tty(self):
        """The meter is a format string over ``run_record`` — the same
        snapshot the live stream and ``stats`` read."""
        import io
        from repro.cli import _Progress
        from repro.core.instrument import InstrumentationBus

        class Tty(io.StringIO):
            def isatty(self):
                return True

        class FakeEngine:
            bus = InstrumentationBus()
            wait_s = [0.25, 1.5]
            busy_s = [2.0, 1.0]

            def progress(self):
                return {"windows": 5, "sim_ps": 5_000, "events": 1000,
                        "duration_ps": 10_000, "done": 0.5}

        stream = Tty()
        meter = _Progress(FakeEngine(), stream=stream)
        meter._last = -1.0  # defeat throttling
        meter(5)
        meter(6)            # inside the 5 Hz throttle: not rendered
        meter.close()
        text = stream.getvalue()
        assert text.count("windows") == 1
        assert "5 windows" in text
        assert "ev/s" in text
        assert " 50% eta" in text
        assert "wait 1.50s" in text
