"""Property-based tests for the fleet simulator's cycle/answer invariants.

Unlike :mod:`test_properties` (which uses hypothesis), these properties run
on plain seeded-random generators: every registered scheme is exercised over
several random small networks, and the checked invariants are

(a) every on-air answer equals the Dijkstra ground truth at loss 0,
(b) fleet aggregates are bit-identical between a sequential run and a
    thread-pool run, and
(c) for lossless sessions, tuning time <= access latency, tuning time never
    exceeds one cycle (no packet needs to be heard twice), and access
    latency is bounded by a small constant number of cycles.

On (c): the issue-level invariant "access latency <= cycle length" is *not*
a theorem of broadcast schemes -- a full-cycle client that tunes in
mid-segment must wait for the next segment boundary and then listen for one
whole cycle, exceeding the cycle length by construction.  The provable bound
(also for rotated replays, whose cyclic walk can wrap twice) is three cycles
plus one segment, which is what we assert.
"""

from __future__ import annotations

import math
import random
from typing import Dict

import pytest

from repro import air
from repro.fleet import simulate_fleet
from repro.network.algorithms.paths import INFINITY
from repro.network.graph import RoadNetwork
from repro.experiments import fleet_uniform_trickle

from oracles.dijkstra import shortest_path

#: Small per-scheme parameters suited to ~20-node random networks.
SMALL_PARAMS: Dict[str, Dict[str, int]] = {
    "DJ": {},
    "NR": {"num_regions": 4},
    "EB": {"num_regions": 4},
    "LD": {"num_landmarks": 2},
    "AF": {"num_regions": 4},
    "SPQ": {"max_depth": 8},
    "HiTi": {"num_regions": 4},
}

SEEDS = [3, 17, 29]


def random_network(seed: int) -> RoadNetwork:
    """A random small connected network (spanning chain plus extra edges)."""
    rng = random.Random(seed)
    num_nodes = rng.randint(12, 26)
    network = RoadNetwork(name=f"fleet-prop-{seed}")
    for node_id in range(num_nodes):
        network.add_node(node_id, rng.uniform(0, 100), rng.uniform(0, 100))
    for node_id in range(1, num_nodes):
        network.add_bidirectional_edge(node_id - 1, node_id, rng.uniform(0.5, 40))
    for _ in range(rng.randint(num_nodes // 2, 2 * num_nodes)):
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a != b:
            network.add_edge(a, b, rng.uniform(0.5, 40))
    return network


def test_every_registered_scheme_has_small_params():
    """Keep :data:`SMALL_PARAMS` in sync with the registry."""
    assert set(SMALL_PARAMS) == set(air.available_schemes())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme_name", sorted(SMALL_PARAMS))
def test_fleet_invariants_on_random_networks(scheme_name, seed):
    network = random_network(seed)
    scheme = air.create(scheme_name, network, **SMALL_PARAMS[scheme_name])
    devices = fleet_uniform_trickle(
        network, 10, seed=seed + 1, with_ground_truth=True
    )

    sequential = simulate_fleet(scheme, devices, seed=seed, concurrency=1)
    threaded = simulate_fleet(scheme, devices, seed=seed, concurrency=4)

    # (b) aggregates equal a sequential per-device loop bit for bit.
    assert sequential.signature() == threaded.signature()

    # (a) every on-air answer matches the Dijkstra ground truth at loss 0.
    assert sequential.mismatches == 0
    cycle_packets = scheme.cycle.total_packets
    max_segment = max(segment.num_packets for segment in scheme.cycle)
    for outcome in sequential.outcomes:
        truth = shortest_path(network, outcome.spec.source, outcome.spec.target)
        assert truth.distance != INFINITY
        assert outcome.found
        assert math.isclose(
            outcome.distance, truth.distance, rel_tol=1e-6, abs_tol=1e-6
        )

        # (c) cycle invariants for lossless sessions.
        metrics = outcome.metrics
        assert metrics.lost_packets == 0
        assert metrics.tuning_time_packets <= metrics.access_latency_packets
        assert metrics.tuning_time_packets <= cycle_packets
        assert metrics.access_latency_packets <= 3 * cycle_packets + max_segment
        assert metrics.peak_memory_bytes > 0


@pytest.mark.parametrize("scheme_name", sorted(SMALL_PARAMS))
def test_lossy_fleet_invariants_on_random_networks(scheme_name):
    """Loss > 0: every device recovers the truth, bit-identically threaded.

    Lossy devices take the native packet-by-packet path, so this is the
    recovery property: Bernoulli packet drops cost extra listening, never a
    wrong (or torn) answer, and the pre-drawn loss seeds keep a thread-pool
    run bit-identical to the sequential one.
    """
    seed = SEEDS[0]
    network = random_network(seed)
    scheme = air.create(scheme_name, network, **SMALL_PARAMS[scheme_name])
    devices = fleet_uniform_trickle(
        network, 10, seed=seed + 1, loss_rate=0.08, with_ground_truth=True
    )

    sequential = simulate_fleet(scheme, devices, seed=seed, concurrency=1)
    threaded = simulate_fleet(scheme, devices, seed=seed, concurrency=4)

    assert sequential.signature() == threaded.signature()
    assert sequential.natives == len(devices) and sequential.replays == 0
    assert sequential.mismatches == 0
    total_lost = 0
    for outcome in sequential.outcomes:
        truth = shortest_path(network, outcome.spec.source, outcome.spec.target)
        assert outcome.found
        assert math.isclose(
            outcome.distance, truth.distance, rel_tol=1e-6, abs_tol=1e-6
        )
        metrics = outcome.metrics
        assert metrics.tuning_time_packets <= metrics.access_latency_packets
        total_lost += metrics.lost_packets
    # The property must actually exercise recovery: at 8% loss across ten
    # whole sessions, some packets were dropped and re-listened for.
    assert total_lost > 0


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_fleet_aggregates_are_order_free_sums(seed):
    """Percentiles and means are functions of the outcome multiset only."""
    network = random_network(seed)
    scheme = air.create("NR", network, **SMALL_PARAMS["NR"])
    devices = fleet_uniform_trickle(network, 12, seed=seed, with_ground_truth=True)
    run = simulate_fleet(scheme, devices, seed=seed)
    latencies = sorted(o.metrics.access_latency_packets for o in run.outcomes)
    assert run.percentile("access_latency_packets", 100) == latencies[-1]
    assert run.percentile("access_latency_packets", 50) == latencies[(len(latencies) + 1) // 2 - 1]
    assert run.mean("access_latency_packets") == pytest.approx(
        sum(latencies) / len(latencies)
    )
