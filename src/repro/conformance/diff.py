"""First-divergence reporting between two canonical traces.

When an oracle's trace is not byte-identical to the reference, the raw
diff is thousands of entries long and almost all of it is downstream
fallout.  What localizes the bug is the *first* divergent op: its
lookahead window (which batch), the system that emits that entry kind
(which kernel), and the entity it happened at (which port / host).
:func:`first_divergence` finds that op and attributes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from .oracles import OracleRun
from ..metrics.trace import TraceKind
from ..scenario import Scenario

#: Which engine system emits each trace entry kind.  ENQ/DROP entries
#: are staged by the send path on hosts and the forward path on
#: switches; DEQ is the TransmitSystem's port replay; DELIVER and
#: FLOW_DONE are host-side (ACK system / receiver logic).
_KIND_NAMES = {
    TraceKind.ENQ: "enqueue",
    TraceKind.DROP: "drop",
    TraceKind.DEQ: "service-start",
    TraceKind.DELIVER: "delivery",
    TraceKind.FLOW_DONE: "flow-completion",
}


@dataclass
class Divergence:
    """The first op where a candidate trace leaves the reference."""

    reference: str
    candidate: str
    op_index: int                  # index into the canonical trace
    window: Optional[int]          # lookahead window of the divergent op
    time_ps: Optional[int]
    system: str                    # engine system attribution
    entity: str                    # port / node the op happened at
    ref_entry: Optional[tuple]     # None = candidate has extra entries
    cand_entry: Optional[tuple]    # None = candidate trace ends early

    def format(self) -> str:
        what = "results" if self.system == "results" else "trace"
        lines = [
            f"{what} divergence: {self.candidate} vs {self.reference} "
            f"at op {self.op_index}",
            f"  window : {self.window}",
            f"  system : {self.system}",
            f"  entity : {self.entity}",
            f"  time   : {self.time_ps} ps",
            f"  ref    : {self.ref_entry}",
            f"  cand   : {self.cand_entry}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reference": self.reference,
            "candidate": self.candidate,
            "op_index": self.op_index,
            "window": self.window,
            "time_ps": self.time_ps,
            "system": self.system,
            "entity": self.entity,
            "ref_entry": list(self.ref_entry) if self.ref_entry else None,
            "cand_entry": list(self.cand_entry) if self.cand_entry else None,
        }


def _attribute(scenario: Scenario, entry: tuple) -> tuple:
    """(system, entity) attribution of one trace entry."""
    t, kind, loc, flow, is_ack, _seq, _extra = entry
    topo = scenario.topology
    if kind in (TraceKind.ENQ, TraceKind.DROP, TraceKind.DEQ):
        if kind == TraceKind.DEQ:
            system = "transmit"
        else:
            # Which system staged this packet onto the port?
            node = topo.interfaces[loc].node if loc < len(topo.interfaces) \
                else -1
            if node >= 0 and not topo.nodes[node].is_host:
                system = "forward"
            else:
                system = "ack" if is_ack else "send"
        node = topo.interfaces[loc].node if loc < len(topo.interfaces) else -1
        entity = f"iface {loc} (node {node})"
    elif kind == TraceKind.DELIVER:
        system = "transmit"
        entity = f"node {loc}"
    else:  # FLOW_DONE
        system = "ack"
        entity = f"node {loc} (flow {flow})"
    return system, entity


def _first_mismatch(ref: list, cand: list) -> Optional[int]:
    """Index of the first differing element (the shorter length when one
    list is a strict prefix of the other); ``None`` when equal."""
    n = min(len(ref), len(cand))
    index = next((i for i in range(n) if ref[i] != cand[i]), None)
    if index is None and len(ref) != len(cand):
        index = n
    return index


def results_divergence(reference: OracleRun,
                       candidate: OracleRun) -> Optional[Divergence]:
    """The first named part (see ``oracles.result_parts``) on which a
    trace-off run leaves the reference; ``None`` when all agree.  A
    result has no op to localize, so window and time stay empty and the
    part's name stands in for the entity."""
    ref, cand = reference.parts or [], candidate.parts or []
    index = _first_mismatch(ref, cand)
    if index is None:
        return None
    r = ref[index] if index < len(ref) else (None, None)
    c = cand[index] if index < len(cand) else (None, None)
    return Divergence(
        reference=reference.oracle, candidate=candidate.oracle,
        op_index=index, window=None, time_ps=None, system="results",
        entity=str(c[0] or r[0]), ref_entry=(r[1],), cand_entry=(c[1],),
    )


def first_divergence(
    scenario: Scenario,
    reference: OracleRun,
    candidate: OracleRun,
) -> Optional[Divergence]:
    """The first divergent op between two canonical traces, attributed
    to (window, system, entity); ``None`` when the traces are identical.
    """
    ref, cand = reference.trace, candidate.trace
    index = _first_mismatch(ref, cand)
    if index is None:
        return None
    ref_entry = ref[index] if index < len(ref) else None
    cand_entry = cand[index] if index < len(cand) else None
    anchor = cand_entry or ref_entry
    system, entity = _attribute(scenario, anchor)
    lookahead = reference.lookahead_ps or scenario.lookahead_ps
    return Divergence(
        reference=reference.oracle,
        candidate=candidate.oracle,
        op_index=index,
        window=anchor[0] // lookahead if lookahead else None,
        time_ps=anchor[0],
        system=system,
        entity=entity,
        ref_entry=ref_entry,
        cand_entry=cand_entry,
    )
