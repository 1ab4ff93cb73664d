"""Scenario serialization: save and reload complete simulation setups.

Reproducibility plumbing a released simulator needs: a scenario —
topology, flows, port configuration — round-trips through a single JSON
document, so an experiment can be archived, shared, or re-run bit-for-bit
(`python -m repro run --load scenario.json`).

The topology serializes structurally (nodes + links), not as a generator
spec, so hand-edited and programmatically-built topologies both survive.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, TextIO, Union

from .errors import ConfigError, TopologyError
from .protocols import AqmConfig, AqmKind, EgressConfig
from .protocols.dctcp import DctcpParams
from .scenario import Scenario
from .schedulers import SchedulerKind
from .topology import NodeKind, Topology
from .traffic import FlowColumns

#: v3: a scenario's traffic is always a
#: :class:`~repro.traffic.FlowColumns`, written as parallel columns under
#: ``flow_columns`` (v2 could also hold one dict per flow under
#: ``flows``).  Only v3 loads.
FORMAT = "repro-scenario-v3"


@contextmanager
def _reading(where: str) -> Iterator[None]:
    """Whatever a malformed document raises while ``where`` is being
    read becomes a :class:`ConfigError` naming it — a hand-edited file
    fails as ``error: scenario: topology.nodes[3]: missing field or
    unknown name 'name'``, not as a bare ``KeyError`` traceback (a
    ``KeyError`` is an absent key or a misspelt enum member)."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"scenario: {where}: missing field or unknown "
                          f"name {exc.args[0]!r}") from None
    except (AttributeError, IndexError, TypeError, ValueError,
            TopologyError) as exc:
        raise ConfigError(f"scenario: {where} is malformed: {exc}") from None


def _topology_to_dict(topo: Topology) -> Dict[str, Any]:
    return {
        "name": topo.name,
        "nodes": [{"kind": int(n.kind), "name": n.name} for n in topo.nodes],
        "links": [
            {"a": l.node_a, "b": l.node_b, "rate_bps": l.rate_bps,
             "delay_ps": l.delay_ps}
            for l in topo.links
        ],
    }


def _topology_from_dict(data: Dict[str, Any]) -> Topology:
    with _reading("topology"):
        topo = Topology(data["name"])
        nodes, links = list(data["nodes"]), list(data["links"])
    for i, node in enumerate(nodes):
        with _reading(f"topology.nodes[{i}]"):
            if node["kind"] == int(NodeKind.HOST):
                topo.add_host(node["name"])
            else:
                topo.add_switch(node["name"])
    for i, link in enumerate(links):
        with _reading(f"topology.links[{i}]"):
            topo.add_link(link["a"], link["b"], link["rate_bps"],
                          link["delay_ps"])
    with _reading("topology"):
        return topo.freeze()


def _aqm_to_dict(aqm: AqmConfig) -> Dict[str, Any]:
    return {
        "kind": aqm.kind.name.lower(),
        "ecn_threshold_bytes": aqm.ecn_threshold_bytes,
        "red_min_bytes": aqm.red_min_bytes,
        "red_max_bytes": aqm.red_max_bytes,
        "red_max_p": aqm.red_max_p,
        "red_weight_shift": aqm.red_weight_shift,
    }


def _aqm_from_dict(data: Dict[str, Any]) -> AqmConfig:
    return AqmConfig(
        kind=AqmKind[data["kind"].upper()],
        ecn_threshold_bytes=data["ecn_threshold_bytes"],
        red_min_bytes=data["red_min_bytes"],
        red_max_bytes=data["red_max_bytes"],
        red_max_p=data["red_max_p"],
        red_weight_shift=data["red_weight_shift"],
    )


def _egress_to_dict(cfg: EgressConfig) -> Dict[str, Any]:
    return {
        "buffer_bytes": cfg.buffer_bytes,
        "aqm": _aqm_to_dict(cfg.aqm),
        "scheduler": cfg.scheduler.value,
        "num_classes": cfg.num_classes,
        "drr_quantum_bytes": cfg.drr_quantum_bytes,
    }


def _egress_from_dict(data: Dict[str, Any]) -> EgressConfig:
    return EgressConfig(
        buffer_bytes=data["buffer_bytes"],
        aqm=_aqm_from_dict(data["aqm"]),
        scheduler=SchedulerKind(data["scheduler"]),
        num_classes=data["num_classes"],
        drr_quantum_bytes=data["drr_quantum_bytes"],
    )


def _dctcp_to_dict(p: DctcpParams) -> Dict[str, Any]:
    return {
        "init_cwnd": p.init_cwnd, "g": p.g,
        "min_rto_ps": p.min_rto_ps, "init_rto_ps": p.init_rto_ps,
        "max_rto_ps": p.max_rto_ps,
        "dupack_threshold": p.dupack_threshold,
        "ecn_cut_factor": p.ecn_cut_factor,
    }


def _dctcp_from_dict(data: Dict[str, Any]) -> DctcpParams:
    return DctcpParams(**data)


def scenario_to_json(scenario: Scenario, out: Optional[TextIO] = None,
                     indent: int = 1) -> str:
    """Serialize a scenario; returns the JSON text (and writes ``out``)."""
    doc = {
        "format": FORMAT,
        "name": scenario.name,
        "topology": _topology_to_dict(scenario.topology),
        "switch_egress": _egress_to_dict(scenario.switch_egress),
        "host_egress": _egress_to_dict(scenario.host_egress),
        "dctcp": _dctcp_to_dict(scenario.dctcp),
        "reno": _dctcp_to_dict(scenario.reno),
        "duration_ps": scenario.duration_ps,
        "ecmp_mode": scenario.ecmp_mode,
        "flow_columns": scenario.flows.to_dict(),
    }
    text = json.dumps(doc, indent=indent)
    if out is not None:
        out.write(text)
    return text


def scenario_from_json(source: Union[str, TextIO]) -> Scenario:
    """Rebuild a scenario (FIB included) from its JSON document.

    Anything wrong with the document — not JSON, a missing or ill-typed
    field, a link naming a node that does not exist, a flow whose
    endpoint is not a host — is a :class:`ConfigError` that says where."""
    try:
        doc = (json.load(source) if hasattr(source, "read")
               else json.loads(source))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError("scenario: the document must be a JSON object, "
                          f"got {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise ConfigError(f"unknown scenario format {doc.get('format')!r}")
    with _reading("document"):
        topo = _topology_from_dict(doc["topology"])
        columns = doc["flow_columns"]
        with _reading("flow_columns"):
            flows = FlowColumns.from_dict(columns).validate_against(
                topo.hosts)
        fields = {"name": doc["name"], "duration_ps": doc["duration_ps"],
                  "ecmp_mode": doc.get("ecmp_mode", "flow")}
        for key, parse in (("switch_egress", _egress_from_dict),
                           ("host_egress", _egress_from_dict),
                           ("dctcp", _dctcp_from_dict),
                           ("reno", _dctcp_from_dict)):
            section = doc[key]
            with _reading(key):
                fields[key] = parse(section)
    from .routing import build_fib
    return Scenario(topology=topo, flows=flows, fib=build_fib(topo),
                    **fields)
