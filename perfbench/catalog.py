"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
Per-layer metrics name the layer (the ``repro`` subpackage) they time or
count; the README maps each to the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, Tuple

SCHEMES: Tuple[str, ...] = ("DJ", "NR", "EB", "LD", "AF")
UPDATE_SCHEMES: Tuple[str, ...] = ("NR", "EB")

WORKLOADS: Tuple[str, ...] = ("onair_query", "serve_unpaced", "update_wave")

#: Untraced runs print exactly these, on every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "share",
    "tuning_packets_mean": "packets",
    "access_latency_packets_mean": "packets",
    "client_memory_bytes_max": "bytes",
    "peak_rss_mb": "MB",
}


def _per_layer() -> Dict[str, str]:
    units: Dict[str, str] = {
        "network.ingest.import_s": "s",
        "network.columnar_open_s": "s",
        "network.load_s": "s",
    }
    for scheme in SCHEMES:
        units[f"air.{scheme}.build_s"] = "s"
        units[f"air.{scheme}.query_ms_p50"] = "ms"
        units[f"air.{scheme}.query_ms_tail"] = "ms"
        units[f"air.{scheme}.tuning_packets_mean"] = "packets"
        units[f"air.{scheme}.access_latency_packets_mean"] = "packets"
        units[f"air.{scheme}.client_memory_bytes_max"] = "bytes"
    units.update(
        {
            "engine.lookup_us": "us",
            "engine.refresh_ms_p50": "ms",
            "engine.refresh_ms_tail": "ms",
            "engine.incremental_share": "share",
            "dynamic.changes_per_step": "count",
            "dynamic.dirty_nodes_mean": "count",
        }
    )
    for scheme in UPDATE_SCHEMES:
        units[f"fleet.{scheme}.wave_ms_p50"] = "ms"
    units.update(
        {
            "fleet.wave_ms_tail": "ms",
            "fleet.devices_per_s": "1/s",
            "fleet.probes_per_wave": "count",
            "fleet.replay_share": "share",
            "fleet.mismatches": "count",
            "store.put_s": "s",
            "serialize.artifact_bytes": "bytes",
            "serving.launch_s": "s",
            "serving.segment_bytes": "bytes",
            "serving.worker_rss_mb": "MB",
            "serving.protocol.encode_us": "us",
            "serving.protocol.decode_us": "us",
            "serving.worker.handle_ms_p50": "ms",
            "serving.worker.handle_ms_tail": "ms",
            "serving.overhead_ms_p50": "ms",
            "serving.requests_dispatched": "count",
            "serving.busy_rejections": "count",
            "serving.busy_retries": "count",
            "serving.errors": "count",
            "trace.overhead_share": "share",
        }
    )
    return units


#: Traced runs print exactly these, whichever workload leads.
PER_LAYER: Dict[str, str] = _per_layer()
