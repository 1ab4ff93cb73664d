"""FIB construction via per-destination BFS (Appendix C of the paper).

The paper's Simulation Builder computes routes for each destination with
BFS — O(#host x (#node + #link)) — and installs forwarding tables, both
parallelized over worker threads.  :func:`build_fib` reproduces the
per-destination BFS serially (see its docstring for why).

Routing is hop-count shortest path with all ties kept (the ECMP set).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from .fib import Fib
from ..topology import Topology


def _bfs_distances(topo: Topology, source: int) -> List[int]:
    """Hop distance of every node from ``source`` (-1 if unreachable)."""
    dist = [-1] * topo.num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _link in topo.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _routes_for_dest(topo: Topology, dest: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """For one destination host: (node, ecmp ports) for every other node."""
    dist = _bfs_distances(topo, dest)
    entries: List[Tuple[int, Tuple[int, ...]]] = []
    for node in range(topo.num_nodes):
        if node == dest or dist[node] < 0:
            continue
        ports = [
            link.port_a if link.node_a == node else link.port_b
            for v, link in topo.neighbors(node)
            if dist[v] == dist[node] - 1
        ]
        if ports:
            entries.append((node, tuple(sorted(ports))))
    return entries


def build_fib(topo: Topology, dests: Optional[List[int]] = None) -> Fib:
    """Build the FIB for all (or the given) destination hosts.

    The paper (Appendix C) runs the per-destination BFS and the table
    installs on a pool of worker threads.  This reproduction does not:
    both are pure Python, so under the GIL a thread pool would execute
    them one at a time and buy no wall-clock (DESIGN.md, "Reproduction
    strategy and substitutions").

    Args:
        topo: A frozen topology.
        dests: Destination host ids; defaults to every host.

    Returns:
        A fully populated :class:`Fib`.
    """
    if dests is None:
        dests = topo.hosts
    fib = Fib(topo)
    for dest in dests:
        for node, ports in _routes_for_dest(topo, dest):
            fib.install(node, dest, ports)
    return fib
