"""Tests for the benchmark's own helpers and its printed result.

The workload tests shrink every size constant (network scale, regions,
item and device counts, set-up repetitions, minimum ops) so a whole run
takes about a second; the code paths are the ones the full-size benchmark
runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import catalog, inputs, measure, onair, run, serve, update  # noqa: E402

EXACT = ("tuning_packets_mean", "access_latency_packets_mean", "client_memory_bytes_max")


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "REGIONS", 4)
    monkeypatch.setattr(inputs, "QUERY_SCALE", 0.01)
    monkeypatch.setattr(inputs, "QUERY_ITEMS", 40)
    monkeypatch.setattr(inputs, "SERVED_SAMPLE", 10)
    monkeypatch.setattr(inputs, "UPDATE_SCALE", 0.01)
    monkeypatch.setattr(inputs, "FLEET_DEVICES", 200)
    for module in (onair, serve, update):
        monkeypatch.setattr(module, "SETUP_REPEATS", 1)
        monkeypatch.setattr(module, "MIN_OPS", measure.TAIL_MIN_BEYOND + 1)


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    quoted = measure.tail([float(v) for v in range(100, 0, -1)])
    assert quoted.value == 90.0
    assert quoted.percentile == 90.0
    assert (quoted.samples, quoted.beyond) == (100, 10)


def test_tail_percentile_grows_with_the_sample_count():
    assert measure.tail(list(range(11))).percentile == pytest.approx(100.0 / 11)
    assert measure.tail(list(range(10_000))).percentile == pytest.approx(99.9)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        measure.tail(list(range(10)))


def test_blocked_tail_is_the_median_of_block_tails():
    # Three blocks; the middle one is slow, each fast one has a stall.
    block = measure.TAIL_BLOCK
    values = [1.0] * block + [5.0] * block + [2.0] * block
    values[block // 2] = values[2 * block + block // 2] = 100.0
    quoted = measure.blocked_tail(values)
    assert quoted.blocks == 3
    assert quoted.samples == block
    assert quoted.beyond == 10
    assert quoted.percentile == 100.0 * (block - 10) / block
    assert quoted.value == 2.0


def test_blocked_tail_of_a_short_run_is_the_plain_tail():
    values = [float(v) for v in range(2 * measure.TAIL_BLOCK - 1)]
    assert measure.blocked_tail(values) == measure.tail(values)


# ----------------------------------------------------------------------
# ok_share accounting
# ----------------------------------------------------------------------
def test_ok_share_counts_refused_failed_and_wrong_answers():
    tally = measure.Tally()
    load = serve._Load("unused.sock", [], tally)

    def check(item, response):
        return None if response["distance"] == 1.0 else "wrong distance"

    load._account(0, {"status": "ok", "distance": 1.0}, check)
    load._account(1, {"status": "ok", "distance": 1.0}, check)
    load._account(2, {"status": "busy", "retry_after_ms": 25.0}, check)
    load._account(3, {"status": "error", "error": "boom"}, check)
    load._account(4, {"status": "ok", "distance": 2.0}, check)
    assert (tally.attempted, tally.failed) == (5, 3)
    assert (tally.refused, tally.errors, tally.wrong) == (1, 1, 1)
    assert tally.ok_share == pytest.approx(2 / 5)
    assert len(tally.reasons) == 3


def test_absorb_sums_tallies():
    first, second = measure.Tally(), measure.Tally()
    first.ok()
    second.fail("wrong", "x")
    first.absorb(second)
    assert (first.attempted, first.failed, first.wrong) == (2, 1, 1)


# ----------------------------------------------------------------------
# Metric names, units and values
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, value, unit",
    [("", 1.0, "s"), ("_x", 1.0, "s"), ("a" * 65, 1.0, "s"), ("ok", 1.0, ""),
     ("ok", 1.0, "per second"), ("ok", float("nan"), "s"), ("ok", float("inf"), "s")],
)
def test_metrics_reject_invalid_entries(name, value, unit):
    with pytest.raises(ValueError):
        measure.Metrics().put(name, value, unit)


def test_metrics_reject_a_second_value_for_one_name():
    metrics = measure.Metrics()
    metrics.put("a", 1.0, "s")
    with pytest.raises(ValueError):
        metrics.put("a", 2.0, "s")


def test_catalog_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)


def _result(capsys, argv):
    before = measure.children()
    code = run.main(argv)
    # Every process the run started (daemons, their workers and resource
    # trackers, this process's own tracker) has ended and been waited for.
    assert measure.children() == before
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _assert_printed(result, expected):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], float)


def test_traced_run_prints_every_per_layer_metric(small, capsys):
    code, _, result = _result(
        capsys, ["--workload", "update_wave", "--seed", "5", "--seconds", "0.4", "--trace", "1"]
    )
    assert code == 0
    _assert_printed(result, catalog.PER_LAYER)
    metrics = result["metrics"]
    assert metrics["fleet.mismatches"]["value"] == 0.0
    assert metrics["engine.incremental_share"]["value"] == 1.0
    assert metrics["serving.errors"]["value"] == 0.0


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_untraced_runs_print_every_metric_and_repeat_exact_counts(small, capsys, workload):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0"]
    counts = []
    for _ in range(2):
        code, lines, result = _result(capsys, argv)
        assert code == 0
        _assert_printed(result, catalog.END_TO_END)
        assert result["metrics"]["ok_share"]["value"] == 1.0
        assert any(line.startswith("latency_tail_ms = ") and "beyond" in line for line in lines)
        assert any(line.startswith("calibration_s before=") for line in lines)
        counts.append(tuple(result["metrics"][name]["value"] for name in EXACT))
    assert counts[0] == counts[1]


def test_missing_program_fails_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    monkeypatch.setitem(sys.modules, "repro", None)
    code = run.main(["--workload", "onair_query", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def test_end_group_waits_for_and_kills_an_orphaned_group_member():
    script = (
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "time.sleep(60)\n"
    )
    measure.set_subreaper(True)
    try:
        leader = subprocess.Popen([sys.executable, "-c", script], process_group=0)
        deadline = time.monotonic() + 30.0
        while len(measure.group_members(leader.pid)) < 2:
            assert time.monotonic() < deadline, "the leader never started its child"
            time.sleep(0.01)
        orphan = next(pid for pid in measure.group_members(leader.pid) if pid != leader.pid)
        leader.kill()
        leader.wait()
        assert orphan in measure.children()
        assert measure.end_group(leader.pid, grace=0.2) == [orphan]
        assert measure.group_members(leader.pid) == []
        assert orphan not in measure.children()
    finally:
        measure.set_subreaper(False)
