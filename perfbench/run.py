"""End-to-end benchmark of the air-index system.

Run from the repository root::

    python3 perfbench/run.py --workload onair_query --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the named workload untraced and prints the nine
end-to-end metrics; ``--trace 1`` prints the per-layer metrics instead
(see README.md).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every op succeeded and passed verification.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Seconds a child still running after the workload gets before it is killed.
EXIT_GRACE = 5.0


def _parse(argv):
    from perfbench import catalog

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import catalog, measure, onair, serve, update

    modules = {"onair_query": onair, "serve_unpaced": serve, "update_wave": update}
    lead = modules[args.workload]
    # Every process the run starts, and every orphan of one, is a child of
    # this process and is waited for before it returns.
    measure.set_subreaper(True)
    own_children = measure.children()
    own_tracker = measure.resource_tracker_pid()
    before = measure.calibration_seconds()
    work_dir = measure.run_dir()
    try:
        if args.trace:
            tally, metrics, notes = _traced(modules, lead, work_dir, args)
            expected = catalog.PER_LAYER
        else:
            outcome = lead.run(work_dir, args.seed, args.seconds, traced=False)
            tally, metrics, notes = outcome.tally, outcome.e2e, outcome.notes
            expected = catalog.END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if measure.resource_tracker_pid() not in (None, own_tracker):
            measure.stop_resource_tracker()
        try:
            killed = measure.end_children(own_children, EXIT_GRACE)
        finally:
            measure.set_subreaper(False)
    if killed:
        print(f"perfbench: processes {killed} outlived the run; killed them", file=sys.stderr)
        return 1
    after = measure.calibration_seconds()

    for line in notes:
        print(line)
    print(f"calibration_s before={before:.4f} after={after:.4f} (host drift; not a metric)")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        print(f"perfbench: metric set mismatch, missing={missing} extra={extra}", file=sys.stderr)
        return 1
    correct = tally.failed == 0 and tally.attempted > 0
    print(measure.result_line(tally, metrics, correct))
    return 0 if correct else 1


def _traced(modules, lead, work_dir, args):
    """Per-layer run: every layer measured from the workload that leads it.

    The named workload runs untraced and then traced, half the window each,
    which gives ``trace.overhead_share``; the other two run traced for a
    quarter of the window so every per-layer metric is printed on every
    workload.
    """
    from perfbench import measure

    half = args.seconds / 2.0
    tally = measure.Tally()
    metrics = measure.Metrics()
    notes = []
    plain = lead.run(_sub(work_dir, "plain"), args.seed, half, traced=False)
    tally.absorb(plain.tally)
    traced_throughput = None
    for name, module in modules.items():
        window = half if module is lead else half / 2.0
        outcome = module.run(_sub(work_dir, name), args.seed, window, traced=True)
        tally.absorb(outcome.tally)
        metrics.merge(outcome.layers)
        notes.extend(f"[{name}] {line}" for line in outcome.notes)
        if module is lead:
            traced_throughput = outcome.throughput
    metrics.put("trace.overhead_share", traced_throughput / plain.throughput, "share")
    return tally, metrics, notes


def _sub(work_dir: str, name: str) -> str:
    path = os.path.join(work_dir, name)
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
