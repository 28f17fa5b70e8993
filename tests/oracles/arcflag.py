"""The dict-based ArcFlag construction: the vectorized build's oracle.

:class:`repro.index.arcflag.ArcFlagIndex` builds its flags from batched
kernel sweeps and one vectorized tree test per border node.  This is the
construction it replaced, one reverse Dijkstra and one Python pass over
every edge per border node, evaluated with the same IEEE-754 tolerance
test.  The two must agree flag for flag and in edge order.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

from oracles.dijkstra import dijkstra_distances

__all__ = ["reference_flags"]


def reference_flags(
    network: RoadNetwork, partitioning: Partitioning
) -> Dict[Tuple[int, int], int]:
    """Per-edge region bitmasks, ``(source, target) -> int``, in edge order."""
    flags: Dict[Tuple[int, int], int] = {
        (edge.source, edge.target): 0 for edge in network.edges()
    }
    region_of = partitioning.region_of

    # Intra-region coverage: an edge whose head is in region r may be
    # needed by a path that terminates inside r.
    for (source, target) in flags:
        flags[(source, target)] |= 1 << region_of(target)

    # Inter-region coverage via backward shortest path trees rooted at
    # border nodes.
    for region in range(partitioning.num_regions):
        bit = 1 << region
        for border in partitioning.border_nodes(region):
            result = dijkstra_distances(network, border, reverse=True)
            distances = result.distances
            for (source, target), _ in flags.items():
                source_dist = distances.get(source)
                target_dist = distances.get(target)
                if source_dist is None or target_dist is None:
                    continue
                weight = network.edge_weight(source, target)
                if abs(target_dist + weight - source_dist) <= 1e-9 * max(1.0, source_dist):
                    flags[(source, target)] |= bit
    return flags
