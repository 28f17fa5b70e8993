"""The dict Dijkstra: the array kernel's bit-identity oracle.

A textbook heap Dijkstra over :meth:`RoadNetwork.adjacency` dicts.  The
kernel (:mod:`repro.network.algorithms.kernel`) must reproduce everything
it reports -- IEEE-754 distance values, predecessor choices on ties,
settled counts and the ``distances``/``predecessors`` insertion order.
The loop never looks at the network's CSR snapshot, so it stays an
independent ground truth whatever state the snapshot cache is in.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, Set

from repro.network.algorithms.dijkstra import DijkstraResult
from repro.network.algorithms.paths import INFINITY, PathResult
from repro.network.graph import RoadNetwork

__all__ = [
    "dijkstra_distances",
    "dijkstra_multi_target",
    "dijkstra_search",
    "shortest_path",
]


def dijkstra_search(
    network: RoadNetwork,
    source: int,
    target: Optional[int] = None,
    targets: Optional[Set[int]] = None,
    reverse: bool = False,
) -> DijkstraResult:
    """Run the dict Dijkstra from ``source``.

    Same parameters and termination rules as
    :func:`repro.network.algorithms.dijkstra.dijkstra_search`: stop once
    ``target`` is settled, or once every node of ``targets`` is settled,
    whichever fires first; ``reverse`` searches incoming edges.
    """
    if source not in network:
        raise KeyError(f"unknown source node {source}")
    adjacency = network.reverse_adjacency() if reverse else network.adjacency()

    distances: Dict[int, float] = {source: 0.0}
    predecessors: Dict[int, Optional[int]] = {source: None}
    settled: Set[int] = set()
    remaining = set(targets) if targets is not None else None
    heap = [(0.0, source)]
    settled_count = 0

    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        settled_count += 1
        if target is not None and node == target:
            break
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for neighbor, weight in adjacency[node]:
            candidate = dist + weight
            if candidate < distances.get(neighbor, INFINITY):
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))

    return DijkstraResult(
        source=source,
        distances=distances,
        predecessors=predecessors,
        settled=settled_count,
    )


def dijkstra_distances(
    network: RoadNetwork, source: int, reverse: bool = False
) -> DijkstraResult:
    """Full single-source dict Dijkstra (no early termination)."""
    return dijkstra_search(network, source, reverse=reverse)


def dijkstra_multi_target(
    network: RoadNetwork, source: int, targets: Iterable[int], reverse: bool = False
) -> DijkstraResult:
    """Dict Dijkstra from ``source`` that stops once every target is settled."""
    return dijkstra_search(network, source, targets=set(targets), reverse=reverse)


def shortest_path(network: RoadNetwork, source: int, target: int) -> PathResult:
    """Point-to-point dict Dijkstra with early termination."""
    if target not in network:
        raise KeyError(f"unknown target node {target}")
    result = dijkstra_search(network, source, target=target)
    distance = result.distance_to(target)
    path = result.path_to(target) if distance != INFINITY else []
    return PathResult(
        source=source,
        target=target,
        distance=distance,
        path=path,
        settled=result.settled,
    )
