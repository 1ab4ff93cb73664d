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


BAD_SPECS = [
    ("--flows", "fixed:n=abc", "n"),
    ("--flows", "fixed:n=8,size=", "size"),
    ("--flows", "fixed:transport=quic", "transport"),
    ("--flows", "fixed:n=8,bogus=1", "bogus"),
    ("--flows", "mesh:sizes=nosuch", "sizes"),
    ("--flows", "mesh:seed=-1", "seed"),
    ("--flows", "mesh:max=0", "max_flows"),
    ("--flows", "mesh:max=-3", "max_flows"),
    ("--flows", "wan_twin:max=0", "n_flows"),
    ("--topology", "dumbbell:x", "dumbbell"),
    ("--topology", "isp:abc", "isp"),
    ("--topology", "isp:-5", "isp"),
    ("--topology", "fattree:k=3", "fattree"),
]


@pytest.mark.parametrize("flag,spec,key", BAD_SPECS,
                         ids=[spec for _, spec, _ in BAD_SPECS])
def test_bad_spec_exits_2_with_typed_error(flag, spec, key, capsys):
    """A malformed spec string is a ``ConfigError`` naming the bad key,
    which the CLI reports as ``error: ...`` with exit 2 (no traceback)."""
    args = {"--topology": "dumbbell:2", "--flows": "fixed:n=2"}
    args[flag] = spec
    with pytest.raises(ConfigError, match=key):
        if flag == "--topology":
            build_topology(spec)
        else:
            build_flows(spec, build_topology("dumbbell:2"))
    assert main(["run", "--topology", args["--topology"],
                 "--flows", args["--flows"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("engine,kb", [("dons", "1"), ("dons", "-1"),
                                       ("ood", "0")])
def test_buffer_below_one_packet_exits_2(engine, kb, capsys):
    """``--buffer-kb`` below one full-size packet would hang the run (every
    full-size segment dropped and retransmitted forever); it is an
    ``error: ...`` naming the value, exit 2, on either engine."""
    assert main(["run", "--engine", engine, "--topology", "dumbbell:2",
                 "--flows", "fixed:n=2", "--buffer-kb", kb]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"buffer_bytes={int(kb) * 1024} " in err


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
        for command in ("run", "compare", "profile", "viz"):
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
        """``--json`` prints the run report: the ``run_record`` keys,
        the bus sections and the memo section with its reasons."""
        import json
        from repro.core.instrument import InstrumentationBus
        from repro.metrics.timeline import TELEMETRY_SCHEMA_VERSION, run_record
        udp = ["--topology", "dumbbell:2",
               "--flows", "fixed:n=2,size=60000,transport=udp"]
        rc = main(["profile", *udp, "--ffwd", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == TELEMETRY_SCHEMA_VERSION
        counters = report["counters"]
        assert set(report) == {*run_record(InstrumentationBus()),
                               "schema_version", "counters", "metrics",
                               "totals", "rows", "spans", "memo"}
        assert report["memo_jump_windows"] == counters["memo.jump_windows"]
        assert report["memo"]["hit"] == counters["memo.hit"]
        assert report["memo"]["jump_refused.flow_tail"] == 1
        rc = main(["profile", *udp, "--json"])
        assert rc == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert not any(k.startswith("memo.") for k in counters)

    def test_profile_cluster_json_rows(self, capsys):
        """``profile --cluster 2 --json``: agents ship raw window rows,
        and the merged bus still prints one row per window, agent and
        system, with the pinned keys, in window order."""
        import json
        rc = main(["profile", *self.ARGS, "--cluster", "2", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["rows"]
        assert rows
        assert all(list(row) == ["window", "start_ps", "system", "elapsed_s"]
                   for row in rows)
        assert {row["system"] for row in rows} == {
            f"a{a}:{s}" for a in (0, 1)
            for s in ("ack", "send", "forward", "transmit")}
        windows = [row["window"] for row in rows]
        assert windows == sorted(windows)
        assert report["counters"]["cluster.windows"] == len(set(windows))

    @pytest.mark.parametrize("transport", ["local", "shm"])
    def test_profile_cluster_counts_the_run_windows(self, transport, capsys):
        """On the CLI smoke mesh an untelemetered ``profile --cluster 2``
        prints the serial run's window count (not the agents' executed
        windows summed) and a nonzero measured busy time per agent."""
        import json
        mesh = ["--topology", "fattree:4",
                "--flows", "mesh:load=0.3,max=20,seed=7"]
        cluster = [*mesh, "--cluster", "2", "--transport", transport]

        def windows_line(args):
            assert main(["profile", *args]) == 0
            out = capsys.readouterr().out.splitlines()
            return next(line for line in out if line.startswith("windows "))

        serial = windows_line(mesh)
        assert serial.split()[1] != "0"
        assert windows_line(cluster) == serial
        assert main(["profile", *cluster, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["agents_busy_s"]) == 2
        assert all(b > 0 for b in report["agents_busy_s"])
        assert report["windows"] == int(serial.split()[1])

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
        """The run's statistics are ``profile --json``, telemetered;
        the ``stats`` subcommand is gone."""
        import json
        from repro.metrics.timeline import TELEMETRY_SCHEMA_VERSION
        rc = main(["profile", *self.ARGS, "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert "flow.completion_time_us" in report["metrics"]["histograms"]
        with pytest.raises(SystemExit) as exc:
            main(["stats", *self.ARGS])
        assert exc.value.code == 2

    def test_stats_to_file_with_manifest(self, tmp_path, capsys):
        """``--out`` writes the report plus its manifest, and
        ``--timeline`` writes the same manifest fields; there is no
        ``--format``."""
        import json
        from repro.metrics.timeline import TELEMETRY_SCHEMA_VERSION
        udp = ["--topology", "dumbbell:2",
               "--flows", "fixed:n=2,size=60000,transport=udp"]
        out = tmp_path / "report.json"
        timeline = tmp_path / "timeline.json"
        rc = main(["profile", *udp, "--ffwd", "--out", str(out),
                   "--timeline", str(timeline)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert report["memo"]["hit"] > 0
        assert capsys.readouterr().out.startswith("engine ")

        def fields(path):
            manifest = json.loads(
                (tmp_path / f"{path.name}.manifest.json").read_text())
            manifest.pop("created_unix")
            return manifest

        assert fields(out) == fields(timeline)
        assert fields(out)["ffwd"] is True
        assert fields(out)["command"] == "profile"
        with pytest.raises(SystemExit) as exc:
            main(["profile", *self.ARGS, "--format", "csv"])
        assert exc.value.code == 2

    def test_stats_cluster_reports_agent_series(self, tmp_path, capsys):
        import json
        out = tmp_path / "report.json"
        rc = main(["profile", *self.ARGS, "--cluster", "2",
                   "--transport", "shm", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["agents_busy_s"]) == 2
        assert len(report["agents_wait_s"]) == 2
        assert report["shm_frames"] > 0
        manifest = json.loads(
            (tmp_path / "report.json.manifest.json").read_text())
        assert (manifest["cluster"], manifest["transport"]) == (2, "shm")

    def test_progress_suppressed_off_tty(self, capsys):
        rc = main(["profile", *self.ARGS, "--progress"])
        assert rc == 0
        assert "\r" not in capsys.readouterr().err

    def test_progress_meter_renders_on_tty(self):
        """The meter is a format string over ``run_record`` — the same
        snapshot the live stream and the run report read."""
        import io
        from repro.cli import _Progress
        from repro.core.instrument import InstrumentationBus

        class Tty(io.StringIO):
            def isatty(self):
                return True

        class FakeEngine:
            bus = InstrumentationBus()
            bus.metrics.gauges.update({
                "a0:busy_s": 2.0, "a0:barrier_wait_s": 0.25,
                "a1:busy_s": 1.0, "a1:barrier_wait_s": 1.5})

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
