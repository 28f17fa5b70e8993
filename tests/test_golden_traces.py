"""Golden-trace regression fixtures: one recorded session per scheme.

Each fixture under ``tests/fixtures/golden_traces/`` serializes the full
packet stream (a :class:`~repro.broadcast.replay.SessionTrace`), the answer,
and the channel metrics of one probe session -- a fixed query at a fixed
tune-in offset on a fixed seeded network -- for one registered scheme.  The
tests re-run the identical session and require the freshly rendered JSON to
equal the stored file **byte for byte**: any refactor that changes what a
client receives, in which order, or what it answers shows up as a diff of
the exact operation that moved.

Regenerating (only when a behaviour change is intended and understood)::

    PYTHONPATH=src python tests/fixtures/regen_golden_traces.py

The regen script renders through the same code below, so fixtures and tests
cannot drift apart.
"""

from __future__ import annotations

import json
import pathlib
import random
from typing import Dict

import pytest

from repro import air
from repro.broadcast.replay import RecordingSession
from repro.network.algorithms.paths import INFINITY
from repro.network.generators import GeneratorConfig, generate_road_network

from oracles.dijkstra import shortest_path

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures" / "golden_traces"

#: The fixed seeded network every golden trace is recorded on.
NETWORK_CONFIG = dict(num_nodes=120, num_edges=280, seed=97)
#: Cycle fraction at which the probe tunes in.
TUNE_IN_FRACTION = 0.3
#: Per-scheme parameters sized for the 120-node golden network.
GOLDEN_PARAMS: Dict[str, Dict[str, int]] = {
    "DJ": {},
    "NR": {"num_regions": 8},
    "EB": {"num_regions": 8},
    "LD": {"num_landmarks": 2},
    "AF": {"num_regions": 8},
    "SPQ": {"max_depth": 8},
    "HiTi": {"num_regions": 8},
}


def golden_network():
    network = generate_road_network(GeneratorConfig(**NETWORK_CONFIG), name="golden-120")
    network.clear_delta()
    return network


def golden_query(network):
    """The first connected random pair, drawn with a fixed seed."""
    rng = random.Random(1)
    nodes = network.node_ids()
    while True:
        source, target = rng.choice(nodes), rng.choice(nodes)
        if source != target and shortest_path(network, source, target).distance != INFINITY:
            return source, target


def build_golden_payload(scheme_name: str) -> Dict:
    """Record the golden session for one scheme and structure it for JSON."""
    network = golden_network()
    params = GOLDEN_PARAMS[air.canonical_name(scheme_name)]
    scheme = air.create(scheme_name, network, **params)
    cycle = scheme.cycle
    offset = int(cycle.total_packets * TUNE_IN_FRACTION) % cycle.total_packets
    source, target = golden_query(network)
    session = RecordingSession(cycle, offset)
    result = scheme.client().query(source, target, session=session)
    trace = session.trace()
    return {
        "scheme": air.canonical_name(scheme_name),
        "params": dict(sorted(params.items())),
        "network": {
            "generator": dict(sorted(NETWORK_CONFIG.items())),
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "fingerprint": network.fingerprint(),
        },
        "query": {"source": source, "target": target, "tune_in_offset": offset},
        "answer": {"distance": result.distance, "found": result.found},
        "metrics": {
            "tuning_time_packets": result.metrics.tuning_time_packets,
            "access_latency_packets": result.metrics.access_latency_packets,
        },
        "cycle": {"total_packets": cycle.total_packets, "segments": len(cycle)},
        "trace": [
            {
                "kind": op.kind.value,
                "name": op.name,
                "packet_count": op.packet_count,
                "last_offset": op.last_offset,
                "anchor": op.anchor,
            }
            for op in trace.ops
        ],
    }


def render(payload: Dict) -> str:
    """The canonical fixture text (what the regen script writes)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fixture_path(scheme_name: str) -> pathlib.Path:
    return FIXTURE_DIR / f"{scheme_name.lower()}.json"


def test_every_registered_scheme_has_a_golden_fixture():
    """New schemes must get a golden trace (regen script adds it)."""
    assert set(GOLDEN_PARAMS) == set(air.available_schemes())
    missing = [name for name in GOLDEN_PARAMS if not fixture_path(name).exists()]
    assert not missing, (
        f"missing golden fixtures for {missing}; run "
        "PYTHONPATH=src python tests/fixtures/regen_golden_traces.py"
    )


@pytest.mark.parametrize("scheme_name", sorted(GOLDEN_PARAMS))
def test_replay_is_byte_stable_against_golden_fixture(scheme_name):
    """The re-recorded session renders to the stored fixture, byte for byte."""
    stored = fixture_path(scheme_name).read_text(encoding="utf-8")
    assert render(build_golden_payload(scheme_name)) == stored


@pytest.mark.parametrize("scheme_name", ["NR", "DJ"])
def test_golden_answer_matches_dijkstra(scheme_name):
    """The stored answers themselves are ground-truth correct."""
    stored = json.loads(fixture_path(scheme_name).read_text(encoding="utf-8"))
    network = golden_network()
    truth = shortest_path(
        network, stored["query"]["source"], stored["query"]["target"]
    ).distance
    assert stored["answer"]["distance"] == pytest.approx(truth, rel=1e-6)
