"""Reproduction of *Shortest Path Computation on Air Indexes* (VLDB 2010).

The package implements the wireless-broadcast ("on air") shortest path
framework of Kellaris & Mouratidis, including:

* a road-network substrate (graphs, generators, shortest path algorithms),
* graph partitioning (kd-tree and regular grid),
* classical pre-computation indexes (ArcFlag, Landmark/ALT, HiTi, SPQ),
* a wireless broadcast channel simulator with device models,
* the paper's air-index methods -- Elliptic Boundary (EB) and Next Region
  (NR) -- plus broadcast adaptations of the classical methods, all
  self-registered in a pluggable scheme registry (:mod:`repro.air.registry`),
* an engine facade (:class:`repro.engine.AirSystem`) that caches built
  broadcast cycles and runs batched, optionally concurrent workloads, and
* an experiment harness reproducing every table and figure of the paper.

Quickstart -- one scheme, one query::

    from repro import air, datasets

    network = datasets.load("germany", scale=0.1, seed=7)
    scheme = air.create("NR", network, num_regions=32)
    client = scheme.client()                      # paper's J2ME clamshell
    result = client.query(10, 4242)
    print(result.distance, result.metrics.tuning_time_packets)

Quickstart -- the engine facade (cycles built once, workloads batched)::

    from repro.engine import AirSystem
    from repro.experiments import ExperimentConfig, QueryWorkload

    system = AirSystem.from_config(ExperimentConfig(network="germany", scale=0.05))
    workload = QueryWorkload(system.network, 50, seed=7)
    run = system.query_batch("NR", workload, concurrency=4)
    print(run.mean.tuning_time_packets, run.mismatches)

    table = system.compare(["NR", "EB", "DJ"], workload, loss_rate=0.05)

``air.available_schemes()`` lists every registered method; ``python -m repro
schemes`` prints the same from the command line.
"""

from repro import (
    air,
    broadcast,
    dynamic,
    engine,
    experiments,
    index,
    network,
    partitioning,
    serialize,
    store,
)
from repro.engine import AirSystem, ArtifactStore, ClientOptions
from repro.network import datasets
from repro.version import __version__

__all__ = [
    "AirSystem",
    "ArtifactStore",
    "ClientOptions",
    "__version__",
    "air",
    "broadcast",
    "datasets",
    "dynamic",
    "engine",
    "experiments",
    "index",
    "network",
    "partitioning",
    "serialize",
    "store",
]
