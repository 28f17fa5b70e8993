"""Measurement helpers shared by the three workloads.

Everything here is benchmark-side: order statistics, outcome accounting,
host probes, metric validation and the result line.  Nothing in ``src/``
is instrumented; the workloads time calls into each layer's public API.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import re
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10
#: Samples per block of a blocked tail, so each block quotes ~p96.  With
#: 1000-sample blocks (~p99) the served tail moved by a third between
#: runs of the same code on a 2-vCPU VM: its ten samples beyond were the
#: host's scheduling stalls, whose rate drifts from minute to minute.
TAIL_BLOCK = 250
#: A timed window runs past its deadline until it has this many ops, so a
#: slow host still yields a median and a tail.
MIN_OPS = 2 * TAIL_MIN_BEYOND + 1

#: The checkout root, and the directory every run keeps its files under.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = os.path.join(ROOT, ".perfbench_run")

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the definition ``repro.stats`` uses)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[min(rank, len(ordered)) - 1])


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``beyond`` samples above it."""

    value: float
    percentile: float
    samples: int
    beyond: int
    #: Consecutive blocks the samples were split into (see blocked_tail).
    blocks: int = 1


def tail(values: Sequence[float]) -> Tail:
    """The ``(n - TAIL_MIN_BEYOND)``-th smallest sample and its percentile.

    Exactly ``TAIL_MIN_BEYOND`` samples sit beyond the returned value in
    sorted order, so it is the highest percentile a run of ``n`` samples can
    quote without resting on fewer observations.  The rule is
    continuous in ``n``: one more sample moves the percentile a little, it
    never jumps between rungs of a fixed ladder.
    """
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_MIN_BEYOND} samples, got {n}")
    rank = n - TAIL_MIN_BEYOND
    ordered = sorted(values)
    return Tail(
        value=float(ordered[rank - 1]),
        percentile=100.0 * rank / n,
        samples=n,
        beyond=n - rank,
    )


def blocked_tail(values: Sequence[float]) -> Tail:
    """The median, over consecutive blocks of about ``TAIL_BLOCK`` samples,
    of each block's :func:`tail`.

    With tens of thousands of samples the plain rule quotes ~p99.9, whose
    ten samples beyond are the host's rare stalls rather than the code's
    tail; one block's stalls move one block's value, not the median.  Runs
    with fewer than ``2 * TAIL_BLOCK`` samples are one block.
    """
    count = max(1, len(values) // TAIL_BLOCK)
    tails = [
        tail(values[i * len(values) // count : (i + 1) * len(values) // count])
        for i in range(count)
    ]
    return Tail(
        value=median(t.value for t in tails),
        percentile=median(t.percentile for t in tails),
        samples=len(values) // count,
        beyond=TAIL_MIN_BEYOND,
        blocks=count,
    )


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Ops attempted versus ops that succeeded *and* passed verification.

    A refused (busy past its retries), failed (error or transport fault)
    or wrong (verification mismatch) op is one failure; the first few
    failure reasons are kept for the error report.
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    errors: int = 0
    wrong: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, reason: str) -> None:
        if kind not in ("refused", "error", "wrong"):
            raise ValueError(f"unknown failure kind {kind!r}")
        self.attempted += 1
        self.failed += 1
        if kind == "refused":
            self.refused += 1
        elif kind == "error":
            self.errors += 1
        else:
            self.wrong += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{kind}: {reason}")

    def absorb(self, other: "Tally") -> None:
        """Add another tally's counts (the traced run sums its parts)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.errors += other.errors
        self.wrong += other.wrong
        self.reasons.extend(other.reasons[: max(0, 5 - len(self.reasons))])

    @property
    def ok_share(self) -> float:
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


# ----------------------------------------------------------------------
# Host drift and memory
# ----------------------------------------------------------------------
def calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop: a host-speed probe.

    Printed beside the metrics so a noisy run can be traced to the machine;
    never used to normalise a metric.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        times.append(time.perf_counter() - started)
    return median(times)


def self_peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _proc_stat(pid: int) -> Optional[Tuple[str, int, int]]:
    """``(state, ppid, pgid)`` of ``pid``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return fields[0], int(fields[1]), int(fields[2])
    except (OSError, IndexError, ValueError):
        return None


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live, non-zombie process."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def prctl(option: int, value: int) -> bool:
    """Linux ``prctl(option, value)``; ``False`` where it is unavailable."""
    try:
        call = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    call.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    call.restype = ctypes.c_int
    return call(option, value, 0, 0, 0) == 0


def die_with_parent() -> None:  # pragma: no cover - runs in a child
    """Deliver SIGTERM to the calling child process if its parent dies."""
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def set_subreaper(on: bool) -> None:
    """Adopt orphaned descendants (or stop doing so).

    A stopped daemon's worker and its multiprocessing resource tracker
    outlive the daemon by a moment; as this process's children they can be
    waited for instead of lingering under init after the run has ended.
    """
    prctl(_PR_SET_CHILD_SUBREAPER, int(on))


def _processes() -> Iterator[Tuple[int, Tuple[str, int, int]]]:
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None:
                yield int(entry), stat


def children() -> Set[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    return {pid for pid, (_, ppid, _) in _processes() if ppid == me}


def group_members(pgid: int) -> List[int]:
    """Pids in process group ``pgid``, zombies included."""
    return [pid for pid, (_, _, group) in _processes() if group == pgid]


def _reap(pids: Iterable[int]) -> None:
    """Collect the exit status of those of ``pids`` that are our zombies."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def _end(members, kill, grace: float) -> List[int]:
    """Wait until ``members()`` is empty, reaping adopted zombies; after
    ``grace`` seconds ``kill()`` what is left and wait again.  Returns the
    pids that had to be killed; raises if any survives."""
    killed: Optional[List[int]] = None
    deadline = time.monotonic() + grace
    while True:
        left = members()
        _reap(left)
        left = [pid for pid in left if _proc_stat(pid) is not None]
        if not left:
            return killed or []
        if time.monotonic() >= deadline:
            if killed is not None:
                alive = [pid for pid in left if pid_alive(pid)]
                if alive:
                    raise RuntimeError(f"processes {alive} survived SIGKILL")
                # Only zombies of another parent remain: nothing runs.
                return killed
            killed = [pid for pid in left if pid_alive(pid)]
            kill(left)
            deadline = time.monotonic() + grace
        time.sleep(0.01)


def end_group(pgid: int, grace: float) -> List[int]:
    """End every process of group ``pgid`` (see :func:`_end`)."""

    def kill(_left: List[int]) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    return _end(lambda: group_members(pgid), kill, grace)


def end_children(keep: Set[int], grace: float) -> List[int]:
    """End every child of this process not in ``keep`` (see :func:`_end`)."""

    def kill(left: List[int]) -> None:
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    return _end(lambda: sorted(children() - keep), kill, grace)


def resource_tracker_pid() -> Optional[int]:
    """Pid of this process's multiprocessing resource tracker, if running."""
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """Stop this process's resource tracker and wait for it to exit.

    Attaching to a shared-memory segment starts the tracker; left alone it
    exits only after this process does, as an orphan.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
class Metrics:
    """An ordered ``name -> (value, unit)`` map with validated names."""

    def __init__(self) -> None:
        self._values: Dict[str, Tuple[float, str]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        if not _NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if not _UNIT.match(unit):
            raise ValueError(f"invalid unit {unit!r} for {name}")
        if name in self._values:
            raise ValueError(f"metric {name} reported twice")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self._values[name] = (value, unit)

    def items(self) -> List[Tuple[str, Tuple[float, str]]]:
        return list(self._values.items())

    def merge(self, other: "Metrics") -> None:
        for name, (value, unit) in other.items():
            self.put(name, value, unit)

    def as_json(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in self._values.items()
        }


def result_line(tally: Tally, metrics: Metrics, correct: bool) -> str:
    """The one JSON object the benchmark prints last."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": metrics.as_json(),
        }
    )


def latency_metrics(
    metrics: Metrics, latencies_s: Sequence[float], window_s: float
) -> Tail:
    """Throughput, p50 and tail of one closed-loop timed window."""
    metrics.put("throughput_per_s", len(latencies_s) / window_s, "1/s")
    millis = [value * 1000.0 for value in latencies_s]
    metrics.put("latency_p50_ms", percentile(millis, 50), "ms")
    quoted = blocked_tail(millis)
    metrics.put("latency_tail_ms", quoted.value, "ms")
    return quoted


def run_dir() -> str:
    """A private working directory for this process inside the checkout."""
    path = os.path.join(RUNS_DIR, str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Workload plumbing
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    tally: Tally
    #: The nine end-to-end metrics (always filled).
    e2e: Metrics
    #: Per-layer metrics (filled by traced runs only).
    layers: Metrics
    #: Ops per second over the timed window (for ``trace.overhead_share``).
    throughput: float
    #: Human-readable lines printed before the result (tail quote etc.).
    notes: List[str] = field(default_factory=list)


def repeated_setup(setup, teardown, repeats: int):
    """Run ``setup(rep)`` ``repeats`` times; keep the last state.

    ``setup`` returns ``(state, {stage: seconds})``.  Every state but the
    last is handed to ``teardown`` before the next repetition starts.
    Returns ``(state, median total seconds, {stage: median seconds})``.
    """
    totals: List[float] = []
    stages: Dict[str, List[float]] = {}
    state = None
    for rep in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        started = time.perf_counter()
        state, stage_times = setup(rep)
        totals.append(time.perf_counter() - started)
        for name, seconds in stage_times.items():
            stages.setdefault(name, []).append(seconds)
    return state, median(totals), {name: median(v) for name, v in stages.items()}


def tail_note(name: str, quoted: Tail) -> str:
    where = f" per block, median of {quoted.blocks} blocks" if quoted.blocks > 1 else ""
    return (
        f"{name} = {quoted.value:.4f} at p{quoted.percentile:.2f} "
        f"(n={quoted.samples}, {quoted.beyond} beyond{where})"
    )
