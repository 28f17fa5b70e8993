"""onair_query: the on-air client path, in process.

A single thread calls ``AirSystem.query`` -- the exact call a serving
worker makes -- round-robin over the five schemes on a lossless channel.
Set-up imports a generated CSV through ``network.ingest.import_csv`` and
opens it with ``AirSystem.from_columnar``, the columnar/CSR network path
the other workloads skip.  Query compute dominates here, so client-path
and engine changes show on this workload and serving changes do not.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.air.base import is_mismatch
from repro.engine import AirSystem
from repro.network.ingest import import_csv

from perfbench import inputs
from perfbench.measure import (
    MIN_OPS,
    Metrics,
    Outcome,
    Tally,
    blocked_tail,
    latency_metrics,
    median,
    percentile,
    repeated_setup,
    self_peak_rss_mb,
    tail_note,
)

SETUP_REPEATS = 3


def _triple(result) -> Tuple[float, int, int, int]:
    metrics = result.metrics
    return (
        result.distance,
        metrics.tuning_time_packets,
        metrics.access_latency_packets,
        metrics.peak_memory_bytes,
    )


def run(work_dir: str, seed: int, seconds: float, traced: bool) -> Outcome:
    config = inputs.serve_config(inputs.QUERY_SCALE, inputs.SCHEMES).experiment_config()
    network = inputs.load_network(inputs.QUERY_SCALE)
    items = inputs.query_items(network, seed, inputs.QUERY_ITEMS)
    edges_csv, nodes_csv = inputs.write_csv(network, work_dir)

    def setup(rep: int):
        stages: Dict[str, float] = {}
        table_dir = os.path.join(work_dir, f"table{rep}")
        started = time.perf_counter()
        import_csv(edges_csv, table_dir, nodes_path=nodes_csv, name=inputs.NETWORK)
        opened = time.perf_counter()
        system = AirSystem.from_columnar(table_dir, config=config)
        built = time.perf_counter()
        stages["network.ingest.import_s"] = opened - started
        stages["network.columnar_open_s"] = built - opened
        for scheme in inputs.SCHEMES:
            system.scheme(scheme)
            done = time.perf_counter()
            stages[f"air.{scheme}.build_s"] = done - built
            built = done
        return system, stages

    system, setup_s, stages = repeated_setup(setup, lambda _: None, SETUP_REPEATS)

    tally = Tally()
    cycle_packets = {s: system.scheme(s).cycle.total_packets for s in inputs.SCHEMES}
    options = [
        system.default_options.replace(tune_in_offset=item.offset(cycle_packets[item.scheme]))
        for item in items
    ]
    # Warm pass: fills the channel cache and fixes each item's expected
    # (distance, tuning, access, memory); the distance is checked against
    # the kernel's ground truth here, and every later answer must repeat
    # its item's warm answer exactly.
    expected: List[Tuple[float, int, int, int]] = []
    for item, opts in zip(items, options):
        answer = _triple(system.query(item.scheme, item.source, item.target, options=opts))
        expected.append(answer)
        if is_mismatch(answer[0], item.truth):
            tally.fail("wrong", f"{item.scheme} {item.source}->{item.target}: "
                       f"{answer[0]} != truth {item.truth}")
        else:
            tally.ok()

    spans: Dict[str, List[float]] = defaultdict(list)
    latencies: List[float] = []
    count = len(items)
    index = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        slot = index % count
        item, opts = items[slot], options[slot]
        if traced:
            t0 = time.perf_counter()
            channel = system.channel(item.scheme, options=opts)
            client = system.scheme(item.scheme).client(options=opts)
            t1 = time.perf_counter()
            result = client.query(
                item.source, item.target, channel=channel, tune_in_offset=opts.tune_in_offset
            )
            t2 = time.perf_counter()
            spans["engine.lookup"].append(t1 - t0)
            spans[f"air.{item.scheme}.query"].append(t2 - t1)
        else:
            t0 = time.perf_counter()
            result = system.query(item.scheme, item.source, item.target, options=opts)
            t2 = time.perf_counter()
        latencies.append(t2 - t0)
        if _triple(result) != expected[slot]:
            tally.fail("wrong", f"{item.scheme} {item.source}->{item.target} changed "
                       f"from {expected[slot]} to {_triple(result)}")
        else:
            tally.ok()
        index += 1
        if t2 >= deadline and len(latencies) >= MIN_OPS:
            break
    window = t2 - started

    e2e = Metrics()
    e2e.put("setup_s", setup_s, "s")
    quoted = latency_metrics(e2e, latencies, window)
    e2e.put("ok_share", tally.ok_share, "share")
    e2e.put("tuning_packets_mean", sum(e[1] for e in expected) / count, "packets")
    e2e.put("access_latency_packets_mean", sum(e[2] for e in expected) / count, "packets")
    e2e.put("client_memory_bytes_max", max(e[3] for e in expected), "bytes")
    e2e.put("peak_rss_mb", self_peak_rss_mb(), "MB")

    layers = Metrics()
    if traced:
        for name in ("network.ingest.import_s", "network.columnar_open_s"):
            layers.put(name, stages[name], "s")
        for scheme in inputs.SCHEMES:
            layers.put(f"air.{scheme}.build_s", stages[f"air.{scheme}.build_s"], "s")
            millis = [v * 1000.0 for v in spans[f"air.{scheme}.query"]]
            layers.put(f"air.{scheme}.query_ms_p50", percentile(millis, 50), "ms")
            layers.put(f"air.{scheme}.query_ms_tail", blocked_tail(millis).value, "ms")
            mine = [e for item, e in zip(items, expected) if item.scheme == scheme]
            layers.put(
                f"air.{scheme}.tuning_packets_mean", sum(e[1] for e in mine) / len(mine), "packets"
            )
            layers.put(
                f"air.{scheme}.access_latency_packets_mean",
                sum(e[2] for e in mine) / len(mine),
                "packets",
            )
            layers.put(f"air.{scheme}.client_memory_bytes_max", max(e[3] for e in mine), "bytes")
        layers.put(
            "engine.lookup_us", median(v * 1e6 for v in spans["engine.lookup"]), "us"
        )
    notes = [tail_note("latency_tail_ms", quoted)]
    return Outcome(tally, e2e, layers, len(latencies) / window, notes)
