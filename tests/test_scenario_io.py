"""Scenario serialization: JSON round trips preserve behaviour exactly."""

import io
import json

import pytest

from repro.core.engine import run_dons
from repro.errors import ConfigError
from repro.metrics import TraceLevel
from repro.protocols import AqmConfig, AqmKind
from repro.scenario import make_scenario
from repro.scenario_io import FORMAT, scenario_from_json, scenario_to_json
from repro.schedulers import SchedulerKind
from repro.topology import NodeKind, fattree
from repro.traffic import Flow, FlowColumns, Transport
from repro.units import GBPS, us


@pytest.fixture
def rich_scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(2))
    hosts = topo.hosts
    flows = [
        Flow(0, hosts[0], hosts[9], 44_000, 0, Transport.DCTCP, 1),
        Flow(1, hosts[3], hosts[12], 20_000, us(5), Transport.UDP),
        Flow(2, hosts[5], hosts[0], 60_000, us(2), Transport.RENO, 2),
    ]
    return make_scenario(topo, flows, scheduler=SchedulerKind.DRR,
                         num_classes=3, buffer_bytes=77_000,
                         aqm=AqmConfig(kind=AqmKind.RED),
                         duration_ps=us(800), ecmp_mode="packet")


def test_round_trip_structural(rich_scenario):
    loaded = scenario_from_json(scenario_to_json(rich_scenario))
    assert loaded.name == rich_scenario.name
    assert loaded.topology.num_nodes == rich_scenario.topology.num_nodes
    assert loaded.topology.num_links == rich_scenario.topology.num_links
    assert isinstance(loaded.flows, FlowColumns)
    assert list(loaded.flows) == list(rich_scenario.flows)
    assert loaded.switch_egress == rich_scenario.switch_egress
    assert loaded.host_egress == rich_scenario.host_egress
    assert loaded.dctcp == rich_scenario.dctcp
    assert loaded.reno == rich_scenario.reno
    assert loaded.duration_ps == rich_scenario.duration_ps
    assert loaded.ecmp_mode == "packet"


def test_round_trip_preserves_simulation_exactly(rich_scenario):
    """The real bar: a reloaded scenario produces the identical trace."""
    original = run_dons(rich_scenario, TraceLevel.FULL)
    loaded = scenario_from_json(scenario_to_json(rich_scenario))
    replay = run_dons(loaded, TraceLevel.FULL)
    assert replay.trace.digest() == original.trace.digest()
    assert replay.fcts_ps() == original.fcts_ps()


def test_stream_io(rich_scenario, tmp_path):
    path = tmp_path / "scenario.json"
    with open(path, "w") as fh:
        scenario_to_json(rich_scenario, out=fh)
    with open(path) as fh:
        loaded = scenario_from_json(fh)
    assert list(loaded.flows) == list(rich_scenario.flows)


def test_format_guard(rich_scenario):
    doc = json.loads(scenario_to_json(rich_scenario))
    doc["format"] = "something-else"
    with pytest.raises(ConfigError):
        scenario_from_json(json.dumps(doc))


def test_only_the_current_format_loads(rich_scenario):
    """An older document is refused by name; the v3 one round-trips."""
    text = scenario_to_json(rich_scenario)
    doc = json.loads(text)
    assert doc["format"] == FORMAT == "repro-scenario-v3"
    assert list(scenario_from_json(text).flows) == list(rich_scenario.flows)
    for old in ("repro-scenario-v1", "repro-scenario-v2"):
        doc["format"] = old
        with pytest.raises(ConfigError, match=old):
            scenario_from_json(json.dumps(doc))


def test_document_is_plain_json(rich_scenario):
    doc = json.loads(scenario_to_json(rich_scenario))
    assert doc["format"] == FORMAT
    assert {"topology", "flow_columns", "switch_egress",
            "host_egress"} <= set(doc)
    assert "flows" not in doc
    assert doc["flow_columns"]["transport"][2] == int(Transport.RENO)


def _mutated(scenario, mutate):
    doc = json.loads(scenario_to_json(scenario))
    mutate(doc)
    return json.dumps(doc)


def _set_flow(column, i, value):
    """A mutation: row ``i`` of flow column ``column`` := ``value(doc)``."""
    def mutate(doc):
        doc["flow_columns"][column][i] = value(doc)
    return mutate


def _first_switch(doc):
    return next(i for i, node in enumerate(doc["topology"]["nodes"])
                if node["kind"] != int(NodeKind.HOST))


MALFORMED = {
    "not-json": (lambda sc: "{nope", "not JSON"),
    "top-level-list": (lambda sc: "[1, 2]", "JSON object"),
    "unknown-format": (
        lambda sc: _mutated(sc, lambda d: d.update(format="v0")),
        "format"),
    "missing-topology": (
        lambda sc: _mutated(sc, lambda d: d.pop("topology")),
        "'topology'"),
    "topology-is-a-list": (
        lambda sc: _mutated(sc, lambda d: d.update(topology=[1])),
        "topology is malformed"),
    "node-without-name": (
        lambda sc: _mutated(
            sc, lambda d: d["topology"]["nodes"][1].pop("name")),
        r"topology\.nodes\[1\].*'name'"),
    "link-node-out-of-range": (
        lambda sc: _mutated(
            sc, lambda d: d["topology"]["links"][0].update(a=10_000)),
        r"topology\.links\[0\].*10000"),
    "flow-missing-src": (
        lambda sc: _mutated(sc, lambda d: d["flow_columns"].pop("src")),
        r"flow_columns.*'src'"),
    "flow-unknown-transport": (
        lambda sc: _mutated(sc, _set_flow("transport", 0, lambda d: 9)),
        "unknown transports"),
    "flow-to-a-switch": (
        lambda sc: _mutated(sc, _set_flow("dst", 1, _first_switch)),
        r"flow 1 references non-host endpoints"),
    "egress-missing-aqm": (
        lambda sc: _mutated(sc, lambda d: d["switch_egress"].pop("aqm")),
        "switch_egress.*'aqm'"),
    "switch-buffer-below-one-packet": (
        lambda sc: _mutated(
            sc, lambda d: d["switch_egress"].update(buffer_bytes=1_024)),
        "switch_egress: buffer_bytes=1024 "),
    "dctcp-unknown-parameter": (
        lambda sc: _mutated(sc, lambda d: d["dctcp"].update(bogus=1)),
        "dctcp is malformed.*bogus"),
    "negative-duration": (
        lambda sc: _mutated(sc, lambda d: d.update(duration_ps=-3)),
        "duration_ps=-3"),
    "duration-is-a-string": (
        lambda sc: _mutated(sc, lambda d: d.update(duration_ps="abc")),
        "duration_ps='abc'"),
    "unknown-ecmp-mode": (
        lambda sc: _mutated(sc, lambda d: d.update(ecmp_mode="spray")),
        "ecmp_mode='spray'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_are_config_errors(rich_scenario, case):
    """Every malformed document is a ``ConfigError`` naming what is
    wrong — never a bare KeyError / AttributeError / JSONDecodeError."""
    make, match = MALFORMED[case]
    with pytest.raises(ConfigError, match=match):
        scenario_from_json(make(rich_scenario))


def test_cli_reports_malformed_file_without_traceback(tmp_path, capsys):
    from repro.cli import main
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "%s", "name": "x"}' % FORMAT)
    assert main(["run", "--load", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario:")
    assert "'topology'" in err
    assert "Traceback" not in err


def test_cli_reports_unreadable_load_file_without_traceback(tmp_path,
                                                             capsys):
    from repro.cli import main
    missing = tmp_path / "missing.json"
    assert main(["run", "--load", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot read" in err
    assert err.count("\n") == 1 and "Traceback" not in err
