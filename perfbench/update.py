"""update_wave: writes beside reads -- refresh plus bulk fleet replay.

Each op is one step on the ~1k-node network with NR and EB: apply the next
``congestion_ramp`` batch through ``AirSystem.apply_updates`` (incremental
refresh with border repair), then simulate one ``fleet_rush_hour`` wave of
10^4 devices on each scheme.  Devices and their ground truth are generated
before the timed window.  The refresh and the fleet replay split a step
about evenly while the on-air client path only runs the probes, so
refresh and fleet changes show here and nowhere else.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.engine import AirSystem

from perfbench import inputs
from perfbench.measure import (
    MIN_OPS,
    Metrics,
    Outcome,
    Tally,
    blocked_tail,
    latency_metrics,
    percentile,
    repeated_setup,
    self_peak_rss_mb,
    tail_note,
)

SETUP_REPEATS = 3


def _signature(run) -> Tuple[float, float, float]:
    """A wave's exact outcome: mean tuning, mean access latency, max memory."""
    return (
        run.mean("tuning_time_packets"),
        run.mean("access_latency_packets"),
        run.percentile("peak_memory_bytes", 100.0),
    )


def run(work_dir: str, seed: int, seconds: float, traced: bool) -> Outcome:
    del work_dir  # everything stays in memory
    config = inputs.serve_config(inputs.UPDATE_SCALE, inputs.UPDATE_SCHEMES).experiment_config()
    phases = inputs.update_phases(inputs.load_network(inputs.UPDATE_SCALE), seed)

    def setup(rep: int):
        started = time.perf_counter()
        network = inputs.load_network(inputs.UPDATE_SCALE)
        loaded = time.perf_counter()
        system = AirSystem(network, config=config)
        for scheme in inputs.UPDATE_SCHEMES:
            system.scheme(scheme)
        return system, {"network.load_s": loaded - started}

    system, setup_s, stages = repeated_setup(setup, lambda _: None, SETUP_REPEATS)

    tally = Tally()
    spans: Dict[str, List[float]] = defaultdict(list)
    counts: Dict[str, List[float]] = defaultdict(list)
    #: Per ramp phase and scheme, the exact wave outcome of the first pass.
    expected: Dict[Tuple[int, str], Tuple[float, float, float]] = {}

    def step(position: int) -> None:
        phase = phases[position % len(phases)]
        started = time.perf_counter()
        report = system.apply_updates(phase.updates)
        refreshed = time.perf_counter()
        spans["engine.refresh"].append(refreshed - started)
        counts["changes"].append(report.num_changes)
        counts["dirty"].append(report.num_dirty_nodes)
        counts["incremental"].append(len(report.incremental))
        counts["refreshed"].append(report.refreshed)
        problems = []
        if set(report.incremental) != set(inputs.UPDATE_SCHEMES) or report.rebuilt:
            problems.append(
                f"refresh was not incremental: incremental={report.incremental} "
                f"rebuilt={report.rebuilt}"
            )
        for scheme in inputs.UPDATE_SCHEMES:
            wave_started = time.perf_counter()
            fleet = system.simulate_fleet(scheme, phase.devices)
            spans[f"fleet.{scheme}.wave"].append(time.perf_counter() - wave_started)
            counts["probes"].append(fleet.probes)
            counts["replays"].append(fleet.replays)
            counts["devices"].append(fleet.num_devices)
            counts["mismatches"].append(fleet.mismatches)
            if fleet.mismatches:
                problems.append(f"{scheme} wave had {fleet.mismatches} mismatches")
            signature = _signature(fleet)
            key = (position % len(phases), scheme)
            if expected.setdefault(key, signature) != signature:
                problems.append(f"{scheme} phase {key[0]} changed: {signature} != {expected[key]}")
        if problems:
            tally.fail("wrong", "; ".join(problems))
        else:
            tally.ok()

    # Warm pass: one full ramp period, which fixes each phase's expected
    # wave outcome and the exact paper counts.
    for position in range(len(phases)):
        step(position)
    warm = dict(expected)

    latencies: List[float] = []
    position = len(phases)
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        t0 = time.perf_counter()
        step(position)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        position += 1
        if t1 >= deadline and len(latencies) >= MIN_OPS:
            break
    window = t1 - started

    e2e = Metrics()
    e2e.put("setup_s", setup_s, "s")
    quoted = latency_metrics(e2e, latencies, window)
    e2e.put("ok_share", tally.ok_share, "share")
    # Every wave has the same device count, so the mean of wave means is
    # the device mean.
    e2e.put("tuning_packets_mean", sum(v[0] for v in warm.values()) / len(warm), "packets")
    e2e.put(
        "access_latency_packets_mean", sum(v[1] for v in warm.values()) / len(warm), "packets"
    )
    e2e.put("client_memory_bytes_max", max(v[2] for v in warm.values()), "bytes")
    e2e.put("peak_rss_mb", self_peak_rss_mb(), "MB")

    layers = Metrics()
    if traced:
        layers.put("network.load_s", stages["network.load_s"], "s")
        refresh_ms = [v * 1000.0 for v in spans["engine.refresh"]]
        layers.put("engine.refresh_ms_p50", percentile(refresh_ms, 50), "ms")
        layers.put("engine.refresh_ms_tail", blocked_tail(refresh_ms).value, "ms")
        layers.put(
            "engine.incremental_share",
            sum(counts["incremental"]) / sum(counts["refreshed"]),
            "share",
        )
        layers.put("dynamic.changes_per_step", _mean(counts["changes"]), "count")
        layers.put("dynamic.dirty_nodes_mean", _mean(counts["dirty"]), "count")
        waves: List[float] = []
        for scheme in inputs.UPDATE_SCHEMES:
            millis = [v * 1000.0 for v in spans[f"fleet.{scheme}.wave"]]
            layers.put(f"fleet.{scheme}.wave_ms_p50", percentile(millis, 50), "ms")
            waves.extend(millis)
        layers.put("fleet.wave_ms_tail", blocked_tail(waves).value, "ms")
        layers.put("fleet.devices_per_s", sum(counts["devices"]) / (sum(waves) / 1000.0), "1/s")
        layers.put("fleet.probes_per_wave", _mean(counts["probes"]), "count")
        layers.put("fleet.replay_share", sum(counts["replays"]) / sum(counts["devices"]), "share")
        layers.put("fleet.mismatches", sum(counts["mismatches"]), "count")
    notes = [tail_note("latency_tail_ms", quoted)]
    return Outcome(tally, e2e, layers, len(latencies) / window, notes)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)
