"""Core topology model: nodes, links, and directed interfaces.

A :class:`Topology` is the single description of the simulated network
shared by every engine, the routing builder, the load estimator and the
partitioner.  Nodes are hosts or switches; links are full duplex with a
rate and a propagation delay per direction.

Besides the node/link view, the topology exposes a flat *interface* view:
every (node, port) pair is a directed egress interface with a globally
unique dense id.  The DOD engine stores per-interface component arrays
indexed by these ids; the OOD baseline builds one port object per id.
Keeping the numbering in the topology guarantees the two engines agree on
what "port 3 of node 17" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import TopologyError
from ..units import GBPS, us


class NodeKind(IntEnum):
    """Role of a node in the network."""

    HOST = 0
    SWITCH = 1


@dataclass(frozen=True)
class Node:
    """A device in the topology.

    Attributes:
        node_id: Dense id, equal to the node's index in ``Topology.nodes``.
        kind: Host or switch.
        name: Human-readable label used in reports and traces.
    """

    node_id: int
    kind: NodeKind
    name: str

    @property
    def is_host(self) -> bool:
        return self.kind == NodeKind.HOST


@dataclass(frozen=True)
class Link:
    """A full-duplex link between two nodes.

    Attributes:
        link_id: Dense id, equal to the link's index in ``Topology.links``.
        node_a / node_b: Endpoint node ids.
        port_a / port_b: Port index of the link on each endpoint.
        rate_bps: Line rate of each direction, in bits per second.
        delay_ps: Propagation delay of each direction, in picoseconds.
    """

    link_id: int
    node_a: int
    node_b: int
    port_a: int
    port_b: int
    rate_bps: int
    delay_ps: int

    def other(self, node_id: int) -> int:
        """Return the endpoint opposite ``node_id``."""
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise TopologyError(f"node {node_id} is not on link {self.link_id}")


@dataclass(frozen=True)
class Interface:
    """A directed egress interface: packets leave ``node`` through ``port``.

    ``peer_node`` receives those packets after ``delay_ps``; ``peer_iface``
    is the reverse-direction interface (used for ACK paths and for
    cut-detection in the partitioner).
    """

    iface_id: int
    node: int
    port: int
    link_id: int
    peer_node: int
    peer_port: int
    peer_iface: int
    rate_bps: int
    delay_ps: int


class Topology:
    """Mutable builder and immutable-after-freeze description of a network.

    Typical usage::

        topo = Topology("dumbbell")
        a = topo.add_host("h0")
        b = topo.add_host("h1")
        s = topo.add_switch("s0")
        topo.add_link(a, s, rate_bps=10 * GBPS, delay_ps=us(1))
        topo.add_link(b, s, rate_bps=10 * GBPS, delay_ps=us(1))
        topo.freeze()

    After :meth:`freeze` the interface table is built and the topology is
    read-only.  Engines require a frozen topology.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.links: List[Link] = []
        self._ports_per_node: List[int] = []
        self._adjacency: List[List[int]] = []  # node -> list of link ids
        self._frozen = False
        #: The smallest link delay, taken once by ``freeze()``.
        self._min_delay_ps: Optional[int] = None
        self.interfaces: List[Interface] = []
        self._iface_index: Dict[Tuple[int, int], int] = {}

    # --- construction ------------------------------------------------

    def _add_node(self, kind: NodeKind, name: Optional[str]) -> int:
        if self._frozen:
            raise TopologyError("topology is frozen")
        node_id = len(self.nodes)
        label = name if name is not None else f"{kind.name.lower()}{node_id}"
        self.nodes.append(Node(node_id, kind, label))
        self._ports_per_node.append(0)
        self._adjacency.append([])
        return node_id

    def add_host(self, name: Optional[str] = None) -> int:
        """Add a host and return its node id."""
        return self._add_node(NodeKind.HOST, name)

    def add_switch(self, name: Optional[str] = None) -> int:
        """Add a switch and return its node id."""
        return self._add_node(NodeKind.SWITCH, name)

    def add_link(
        self,
        node_a: int,
        node_b: int,
        rate_bps: int = 100 * GBPS,
        delay_ps: int = us(1),
    ) -> int:
        """Connect two nodes and return the new link id."""
        if self._frozen:
            raise TopologyError("topology is frozen")
        if node_a == node_b:
            raise TopologyError("self-loops are not allowed")
        for nid in (node_a, node_b):
            if not 0 <= nid < len(self.nodes):
                raise TopologyError(f"unknown node id {nid}")
        if rate_bps <= 0 or delay_ps <= 0:
            raise TopologyError("rate and delay must be positive")
        link_id = len(self.links)
        port_a = self._ports_per_node[node_a]
        port_b = self._ports_per_node[node_b]
        self._ports_per_node[node_a] += 1
        self._ports_per_node[node_b] += 1
        link = Link(link_id, node_a, node_b, port_a, port_b, rate_bps, delay_ps)
        self.links.append(link)
        self._adjacency[node_a].append(link_id)
        self._adjacency[node_b].append(link_id)
        return link_id

    def freeze(self) -> "Topology":
        """Validate, build the interface table and make the topology read-only."""
        if self._frozen:
            return self
        if not self.nodes:
            raise TopologyError("topology has no nodes")
        for node in self.nodes:
            if node.is_host and self._ports_per_node[node.node_id] != 1:
                raise TopologyError(
                    f"host {node.name} must have exactly one link, has "
                    f"{self._ports_per_node[node.node_id]}"
                )
        self._build_interfaces()
        if self.links:
            self._min_delay_ps = min(link.delay_ps for link in self.links)
        self._frozen = True
        return self

    def _build_interfaces(self) -> None:
        iface_id = 0
        # First pass: assign ids in (node, port) order so the numbering is
        # independent of link insertion order details.
        for link in self.links:
            for node, port in ((link.node_a, link.port_a), (link.node_b, link.port_b)):
                self._iface_index[(node, port)] = -1
        for node in self.nodes:
            for port in range(self._ports_per_node[node.node_id]):
                self._iface_index[(node.node_id, port)] = iface_id
                iface_id += 1
        self.interfaces = [None] * iface_id  # type: ignore[list-item]
        for link in self.links:
            ia = self._iface_index[(link.node_a, link.port_a)]
            ib = self._iface_index[(link.node_b, link.port_b)]
            self.interfaces[ia] = Interface(
                ia, link.node_a, link.port_a, link.link_id,
                link.node_b, link.port_b, ib, link.rate_bps, link.delay_ps,
            )
            self.interfaces[ib] = Interface(
                ib, link.node_b, link.port_b, link.link_id,
                link.node_a, link.port_a, ia, link.rate_bps, link.delay_ps,
            )

    # --- queries -------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_interfaces(self) -> int:
        return len(self.interfaces)

    @property
    def hosts(self) -> List[int]:
        """Node ids of all hosts, ascending."""
        return [n.node_id for n in self.nodes if n.is_host]

    @property
    def switches(self) -> List[int]:
        """Node ids of all switches, ascending."""
        return [n.node_id for n in self.nodes if not n.is_host]

    @property
    def num_hosts(self) -> int:
        return sum(1 for n in self.nodes if n.is_host)

    def ports_of(self, node_id: int) -> int:
        """Number of ports on ``node_id``."""
        return self._ports_per_node[node_id]

    def links_of(self, node_id: int) -> List[Link]:
        """Links incident to ``node_id``."""
        return [self.links[lid] for lid in self._adjacency[node_id]]

    def neighbors(self, node_id: int) -> Iterator[Tuple[int, Link]]:
        """Yield ``(neighbor_node_id, link)`` pairs for ``node_id``."""
        for lid in self._adjacency[node_id]:
            link = self.links[lid]
            yield link.other(node_id), link

    def iface(self, node_id: int, port: int) -> Interface:
        """The egress interface of ``port`` on ``node_id``."""
        try:
            return self.interfaces[self._iface_index[(node_id, port)]]
        except KeyError:
            raise TopologyError(f"node {node_id} has no port {port}") from None

    def iface_id(self, node_id: int, port: int) -> int:
        """Dense interface id of ``(node_id, port)``."""
        try:
            return self._iface_index[(node_id, port)]
        except KeyError:
            raise TopologyError(f"node {node_id} has no port {port}") from None

    def host_iface(self, host_id: int) -> Interface:
        """The single egress interface of a host (its NIC)."""
        node = self.nodes[host_id]
        if not node.is_host:
            raise TopologyError(f"node {host_id} is not a host")
        return self.iface(host_id, 0)

    def min_link_delay_ps(self) -> int:
        """Smallest propagation delay — the lookahead of the DOD engine
        (read off ``freeze()``'s one pass once the topology is frozen)."""
        if self._min_delay_ps is not None:
            return self._min_delay_ps
        if not self.links:
            raise TopologyError("topology has no links")
        return min(link.delay_ps for link in self.links)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={self.num_nodes}, "
            f"hosts={self.num_hosts}, links={self.num_links})"
        )
