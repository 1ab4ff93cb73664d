"""Forwarding Information Base shared by every engine.

The FIB answers ``(node, destination host) -> tuple of candidate egress
ports`` (all ports on hop-count-shortest paths, sorted).  It stores
far fewer routes than it answers (the builder's module doc says why
this is exact): a switch holds one tuple per *attachment class* — the
hosts attached to one switch ``a``, keyed ``~a`` so that no class key
is a node id — plus one per host attached to the switch itself, keyed
by the host; a host holds nothing, since its one link is its route.
ECMP selection among the candidates is a pure hash of flow identifiers
and the destination host, so the OOD baseline, the DOD engine, the
distributed runtime and the flow-level load estimator all route a
given flow over exactly the same path — a precondition for the
trace-equality fidelity results.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import RoutingError
from ..rng import ecmp_hash
from ..topology import Topology

#: A host's route to every destination it reaches: its only port.
_HOST_ROUTE = (0,)


class Fib:
    """Per-switch forwarding tables over a frozen topology."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        # tables[node][key] -> tuple of egress port indices; ``key`` is
        # a host (attached here, or set by install()) or a class key.
        self.tables: List[Dict[int, Tuple[int, ...]]] = [
            {} for _ in range(topo.num_nodes)
        ]
        #: Routed destination host -> its class key, ``~attachment node``.
        self.class_of: Dict[int, int] = {}

    def install(self, node: int, dest: int, ports: Sequence[int]) -> None:
        """Install the ECMP port set for ``dest`` at ``node``; it is
        consulted before ``dest``'s attachment class."""
        if not ports:
            raise RoutingError(f"empty port set for dest {dest} at node {node}")
        self.tables[node][dest] = tuple(sorted(ports))

    def ports(self, node: int, dest: int) -> Tuple[int, ...]:
        """All candidate egress ports at ``node`` toward ``dest``."""
        table = self.tables[node]
        try:
            return table.get(dest) or table[self.class_of[dest]]
        except KeyError:
            pass
        topo = self.topo
        if topo.nodes[node].is_host and dest != node and dest in self.class_of:
            up = topo.iface(node, 0).peer_node
            hop = self.tables[up]
            if up == dest or hop.get(dest) or hop.get(self.class_of[dest]):
                return _HOST_ROUTE
        raise RoutingError(f"node {node} has no route to host {dest}")

    def resolve_port(self, node: int, dest: int, flow_id: int,
                     salt: Optional[int] = None) -> int:
        """Deterministic ECMP choice at one node.

        Hashing includes the node id so different switches spread the same
        flow set differently (per-hop ECMP, as in real data centers); the
        *same* flow always takes the same port at the same switch.

        ``salt`` enables packet spraying: passing the segment number makes
        every packet hash independently (per-packet ECMP), trading
        in-order delivery for near-perfect load balance.
        """
        ports = self.ports(node, dest)
        if len(ports) == 1:
            return ports[0]
        if salt is None:
            return ports[ecmp_hash(flow_id, dest, node) % len(ports)]
        return ports[ecmp_hash(flow_id, dest, node, salt) % len(ports)]

    def path(self, src_host: int, dest_host: int, flow_id: int) -> List[int]:
        """The node path a flow takes, resolving ECMP at every hop.

        Used by the load estimator and by tests; engines never need whole
        paths, they forward hop by hop with :meth:`resolve_port`.
        """
        if src_host == dest_host:
            raise RoutingError("src and dest host are the same")
        path = [src_host]
        node = src_host
        hops = 0
        limit = self.topo.num_nodes + 1
        while node != dest_host:
            port = self.resolve_port(node, dest_host, flow_id)
            node = self.topo.iface(node, port).peer_node
            path.append(node)
            hops += 1
            if hops > limit:
                raise RoutingError(
                    f"routing loop from {src_host} to {dest_host}"
                )
        return path

    def entry_count(self) -> int:
        """The (node, dest) routes a per-destination FIB holds (the
        memory model's input): a class key stands for its hosts, and a
        host reaches what its attachment reaches, but itself."""
        topo, size = self.topo, Counter(self.class_of.values())
        held = [sum(1 if key >= 0 else size[key] for key in table)
                for table in self.tables]
        for host in topo.hosts:
            up = topo.iface(host, 0).peer_node
            held[host] += (up in self.class_of if topo.nodes[up].is_host
                           else held[up] - (host in self.class_of))
        return sum(held)
