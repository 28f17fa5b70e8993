"""serve_unpaced: the serving daemon, in its own process, without pacing.

The daemon is a separate ``python -m repro serve`` process with one worker
and ``pace_packet_us=0`` over the onair_query network and schemes.  Set-up
builds the schemes in process and seeds an artifact store with them, so
the daemon's start goes through store get, shared-memory publish and
worker attach.  The load is one thread driving two connections, each a
closed loop: with two requests in flight on one worker, one waits while
the other is served, so queue wait is a real term.  The same query cost
as onair_query is measured here plus the frame codec, routing, the pipe
to the worker and the queue wait.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import selectors
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.air.base import is_mismatch
from repro.engine import AirSystem
from repro.serving import ServingClient, protocol
from repro.serving.worker import WorkerRuntime
from repro.store import ArtifactStore

from perfbench import inputs
from perfbench.measure import (
    MIN_OPS,
    ROOT,
    RUNS_DIR,
    Metrics,
    Outcome,
    Tally,
    blocked_tail,
    die_with_parent,
    end_group,
    group_members,
    latency_metrics,
    median,
    percentile,
    pid_alive,
    process_peak_rss_mb,
    repeated_setup,
    self_peak_rss_mb,
    tail_note,
)

SETUP_REPEATS = 3
#: Connections of the load process; no more than the host's 2 cores.
CONNECTIONS = 2
MAX_BUSY_RETRIES = 50
#: Daemon start and shutdown budgets (seconds).
LAUNCH_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
#: How long a stopped daemon's worker and resource tracker get to exit on
#: their own before their process group is killed (seconds).
EXIT_GRACE = 5.0
#: Daemons this checkout has started and not yet seen gone: one
#: ``pid segment socket`` line each, so a run can prove the last one's
#: processes, socket and segment are gone before it starts.  The daemon
#: leads its own process group, which its worker and resource tracker
#: join, so its pid also names the group.
REGISTRY = os.path.join(RUNS_DIR, "serve-daemons.txt")

def _quadruple(response: Dict[str, Any]) -> Tuple[float, int, int, int]:
    return (
        response["distance"],
        response["tuning_time_packets"],
        response["access_latency_packets"],
        response["peak_memory_bytes"],
    )


class Daemon:
    """One ``repro serve`` process: launch, introspection and cleanup."""

    def __init__(self, work_dir: str, tag: str, config, store_dir: str) -> None:
        # A relative path keeps the unix socket name short; both processes
        # share this working directory.
        self.socket_path = os.path.relpath(os.path.join(work_dir, f"{tag}.sock"))
        self.log_path = os.path.join(work_dir, f"{tag}.log")
        self.config = config
        self.store_dir = store_dir
        self.process: Optional[subprocess.Popen] = None
        self.worker_pids: List[int] = []
        self.segment: Optional[str] = None
        self.launch_s = 0.0
        self.stopped = False

    def start(self) -> None:
        cfg = self.config
        command = [
            sys.executable, "-m", "repro", "serve",
            "--network", cfg.network, "--scale", repr(cfg.scale), "--seed", str(cfg.seed),
            "--regions", str(cfg.regions), "--landmarks", str(cfg.landmarks),
            "--methods", ",".join(cfg.methods), "--workers", "1",
            "--pace-packet-us", "0", "--socket", self.socket_path,
            "--store-dir", self.store_dir,
        ]
        src = os.path.join(ROOT, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env,
                preexec_fn=die_with_parent, process_group=0,
            )
        self._register()
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode}: {self._log_tail()}"
                )
            if os.path.exists(self.socket_path):
                try:
                    with ServingClient(self.socket_path, timeout=10.0) as client:
                        client.ping()
                    break
                except (OSError, protocol.ProtocolError):
                    pass
            if time.perf_counter() - started > LAUNCH_TIMEOUT:
                raise TimeoutError(f"daemon did not answer a ping: {self._log_tail()}")
            time.sleep(0.005)
        self.launch_s = time.perf_counter() - started
        info = self.info()
        self.segment = info["segment"]
        self.worker_pids = [int(row["pid"]) for row in info["workers"]]
        self._register()

    def info(self) -> Dict[str, Any]:
        with ServingClient(self.socket_path, timeout=30.0) as client:
            return client.info()

    def peak_rss_mb(self) -> Tuple[float, float]:
        """``(daemon, workers)`` peak resident set in MB."""
        assert self.process is not None
        return (
            process_peak_rss_mb(self.process.pid),
            sum(process_peak_rss_mb(pid) for pid in self.worker_pids),
        )

    def stop(self) -> None:
        """Shut down, then join or kill the daemon and every process of its
        group (worker, resource tracker), and remove the socket and
        segment; raises if any of them is left."""
        if self.process is None or self.stopped:
            return
        self.stopped = True
        try:
            with ServingClient(self.socket_path, timeout=10.0) as client:
                client.shutdown()
        except (OSError, protocol.ProtocolError, protocol.ServerError):
            pass
        try:
            self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=STOP_TIMEOUT)
        _reap(self.process.pid, self.segment, self.socket_path)
        left = self.leftovers()
        if left:
            raise RuntimeError(f"daemon left {left} behind")
        self._unregister()

    def leftovers(self) -> List[str]:
        left = []
        if self.process is not None and self.process.poll() is None:
            left.append(f"daemon pid {self.process.pid}")
        return left + _leftovers(self.process.pid, self.segment, self.socket_path)

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
                return handle.read()[-2000:]
        except OSError:
            return "<no log>"

    # Registry of live daemons, shared by every run in this checkout.
    def _line(self) -> str:
        assert self.process is not None
        return f"{self.process.pid} {self.segment or '-'} {os.path.abspath(self.socket_path)}\n"

    def _register(self) -> None:
        self._unregister()
        os.makedirs(RUNS_DIR, exist_ok=True)
        with open(REGISTRY, "a", encoding="utf-8") as handle:
            handle.write(self._line())

    def _unregister(self) -> None:
        if self.process is None or not os.path.exists(REGISTRY):
            return
        with open(REGISTRY, "r", encoding="utf-8") as handle:
            lines = [
                line for line in handle
                if line.split(" ")[0] != str(self.process.pid)
            ]
        if lines:
            with open(REGISTRY, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
        else:
            os.unlink(REGISTRY)


def _leftovers(group: int, segment: Optional[str], socket_path: str) -> List[str]:
    left = [f"process {pid}" for pid in group_members(group) if pid_alive(pid)]
    if segment and os.path.exists(f"/dev/shm/{segment}"):
        left.append(f"segment {segment}")
    if os.path.exists(socket_path):
        left.append(f"socket {socket_path}")
    return left


def _reap(group: int, segment: Optional[str], socket_path: str) -> None:
    """End what a stopped daemon should have taken down with it: every
    process of its group, its segment and its socket."""
    end_group(group, EXIT_GRACE)
    for path in ([f"/dev/shm/{segment}"] if segment else []) + [socket_path]:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def check_registry() -> None:
    """Fail the run if an earlier run's daemon, worker, socket or segment
    is still there (after removing it, so the next run starts clean)."""
    path = REGISTRY
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as handle:
        entries = [line.rstrip("\n").split(" ", 2) for line in handle if line.strip()]
    os.unlink(path)
    left: List[str] = []
    for group_field, segment, socket_path in entries:
        group = int(group_field)
        segment = None if segment == "-" else segment
        found = _leftovers(group, segment, socket_path)
        if found:
            _reap(group, segment, socket_path)
            left.extend(found)
    if left:
        raise RuntimeError(f"an earlier run left {left} behind; removed them")


class _Load:
    """Closed loops on ``CONNECTIONS`` connections, driven by one thread."""

    def __init__(self, socket_path: str, requests: List[Dict[str, Any]], tally: Tally) -> None:
        self.socket_path = socket_path
        self.requests = requests
        self.tally = tally
        self.busy_retries = 0
        #: (item, response) of every answered request, in arrival order.
        self.answers: List[Tuple[int, Dict[str, Any]]] = []

    def drive(self, order: Iterator[int], deadline: float, check) -> Tuple[List[float], float]:
        """Send items from ``order`` until it runs out or ``deadline``
        passes; returns the request latencies and the last arrival time."""
        selector = selectors.DefaultSelector()
        socks = []
        latencies: List[float] = []
        last = time.perf_counter()
        try:
            for _ in range(CONNECTIONS):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(60.0)
                sock.connect(self.socket_path)
                socks.append(sock)
                item = next(order, None)
                if item is None:
                    break
                state = [item, 0.0, 0]
                self._send(sock, state)
                selector.register(sock, selectors.EVENT_READ, state)
            while selector.get_map():
                events = selector.select(timeout=60.0)
                if not events:
                    raise TimeoutError("no response within 60 s")
                for key, _ in events:
                    sock, state = key.fileobj, key.data
                    response = protocol.read_frame(sock)
                    last = time.perf_counter()
                    if response is None:
                        raise protocol.ProtocolError("daemon closed the connection")
                    if response.get("status") == "busy" and state[2] < MAX_BUSY_RETRIES:
                        state[2] += 1
                        self.busy_retries += 1
                        time.sleep(float(response.get("retry_after_ms", 25.0)) / 1000.0)
                        protocol.write_frame(sock, self.requests[state[0]])
                        continue
                    latencies.append(last - state[1])
                    self._account(state[0], response, check)
                    more = last < deadline or len(latencies) < MIN_OPS
                    item = next(order, None) if more else None
                    if item is None:
                        selector.unregister(sock)
                    else:
                        state[0], state[2] = item, 0
                        self._send(sock, state)
        finally:
            selector.close()
            for sock in socks:
                sock.close()
        return latencies, last

    def _send(self, sock: socket.socket, state: list) -> None:
        state[1] = time.perf_counter()
        protocol.write_frame(sock, self.requests[state[0]])

    def _account(self, item: int, response: Dict[str, Any], check) -> None:
        status = response.get("status")
        if status == "busy":
            self.tally.fail("refused", f"item {item} busy after {MAX_BUSY_RETRIES} retries")
        elif status != "ok":
            self.tally.fail("error", f"item {item}: {response.get('error')}")
        else:
            problem = check(item, response)
            if problem:
                self.tally.fail("wrong", problem)
            else:
                self.tally.ok()
            self.answers.append((item, response))


def _codec_us(messages: List[Dict[str, Any]]) -> Tuple[float, float]:
    """Median ``encode_frame`` and frame-decode microseconds per message."""
    frames, encode = [], []
    for message in messages:
        started = time.perf_counter()
        frames.append(protocol.encode_frame(message))
        encode.append(time.perf_counter() - started)

    async def decode_all() -> List[float]:
        times = []
        for frame in frames:
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            started = time.perf_counter()
            await protocol.read_frame_async(reader)
            times.append(time.perf_counter() - started)
        return times

    decode = asyncio.run(decode_all())
    return median(v * 1e6 for v in encode), median(v * 1e6 for v in decode)


def run(work_dir: str, seed: int, seconds: float, traced: bool) -> Outcome:
    check_registry()
    serve_config = inputs.serve_config(inputs.QUERY_SCALE, inputs.SCHEMES)
    config = serve_config.experiment_config()
    network = inputs.load_network(inputs.QUERY_SCALE)
    items = inputs.query_items(network, seed, inputs.QUERY_ITEMS)
    daemons: List[Daemon] = []

    def setup(rep: int):
        system = AirSystem(inputs.load_network(inputs.QUERY_SCALE), config=config)
        for scheme in inputs.SCHEMES:
            system.scheme(scheme)
        built = time.perf_counter()
        store = ArtifactStore(os.path.join(work_dir, f"store{rep}"))
        artifact_bytes = sum(
            os.path.getsize(store.put(system.scheme(scheme).artifact()))
            for scheme in inputs.SCHEMES
        )
        stored = time.perf_counter()
        daemon = Daemon(work_dir, f"d{rep}", serve_config, str(store.root))
        daemons.append(daemon)
        daemon.start()
        stages = {
            "store.put_s": stored - built,
            "serving.launch_s": daemon.launch_s,
            "serialize.artifact_bytes": artifact_bytes,
        }
        return (system, daemon), stages

    tally = Tally()
    try:
        (system, daemon), setup_s, stages = repeated_setup(
            setup, lambda state: state[1].stop(), SETUP_REPEATS
        )
        cycle_packets = {s: system.scheme(s).cycle.total_packets for s in inputs.SCHEMES}
        requests = [
            {
                "op": "query",
                "method": item.scheme,
                "source": item.source,
                "target": item.target,
                "tune_in_offset": item.offset(cycle_packets[item.scheme]),
            }
            for item in items
        ]
        # The in-process reference for the sampled items: same scheme
        # configuration, same tune-in offsets.
        reference = {}
        for index in range(min(inputs.SERVED_SAMPLE, len(items))):
            item = items[index]
            opts = system.default_options.replace(tune_in_offset=requests[index]["tune_in_offset"])
            result = system.query(item.scheme, item.source, item.target, options=opts)
            reference[index] = (
                result.distance,
                result.metrics.tuning_time_packets,
                result.metrics.access_latency_packets,
                result.metrics.peak_memory_bytes,
            )

        expected: Dict[int, Tuple[float, int, int, int]] = {}

        def check_warm(index: int, response: Dict[str, Any]) -> Optional[str]:
            item, answer = items[index], _quadruple(response)
            expected[index] = answer
            if is_mismatch(answer[0], item.truth):
                return f"item {index}: served {answer[0]} != truth {item.truth}"
            if index in reference and answer != reference[index]:
                return f"item {index}: served {answer} != in-process {reference[index]}"
            return None

        def check_timed(index: int, response: Dict[str, Any]) -> Optional[str]:
            answer = _quadruple(response)
            if answer != expected.get(index):
                return f"item {index}: served {answer} != warm {expected.get(index)}"
            return None

        load = _Load(daemon.socket_path, requests, tally)
        # Warm pass: one answer per item, verified against ground truth
        # and (for the sample) the in-process system.
        load.drive(iter(range(len(items))), float("inf"), check_warm)
        warm_answers = len(load.answers)
        started = time.perf_counter()
        latencies, last = load.drive(
            itertools.cycle(range(len(items))), started + seconds, check_timed
        )
        window = last - started
        daemon_rss, worker_rss = daemon.peak_rss_mb()
        own_rss = self_peak_rss_mb()

        e2e = Metrics()
        e2e.put("setup_s", setup_s, "s")
        quoted = latency_metrics(e2e, latencies, window)
        e2e.put("ok_share", tally.ok_share, "share")
        warm = [expected[i] for i in range(len(items)) if i in expected]
        e2e.put("tuning_packets_mean", sum(e[1] for e in warm) / len(warm), "packets")
        e2e.put("access_latency_packets_mean", sum(e[2] for e in warm) / len(warm), "packets")
        e2e.put("client_memory_bytes_max", max(e[3] for e in warm), "bytes")
        e2e.put("peak_rss_mb", own_rss + daemon_rss + worker_rss, "MB")

        layers = Metrics()
        if traced:
            info = daemon.info()
            encode_us, decode_us = _codec_us(
                [requests[i] for i, _ in load.answers[warm_answers:]]
                + [response for _, response in load.answers[warm_answers:]]
            )
            handle_ms = _replay_handle(info["segment"], config, requests, expected, tally)
            handle_p50 = percentile(handle_ms, 50)
            request_p50 = percentile([v * 1000.0 for v in latencies], 50)
            layers.put("store.put_s", stages["store.put_s"], "s")
            layers.put("serialize.artifact_bytes", stages["serialize.artifact_bytes"], "bytes")
            layers.put("serving.launch_s", stages["serving.launch_s"], "s")
            layers.put("serving.segment_bytes", info["segment_bytes"], "bytes")
            layers.put("serving.worker_rss_mb", worker_rss, "MB")
            layers.put("serving.protocol.encode_us", encode_us, "us")
            layers.put("serving.protocol.decode_us", decode_us, "us")
            layers.put("serving.worker.handle_ms_p50", handle_p50, "ms")
            layers.put("serving.worker.handle_ms_tail", blocked_tail(handle_ms).value, "ms")
            # Two frames cross the socket per request, each encoded once
            # and decoded once.
            codec_ms = 2.0 * (encode_us + decode_us) / 1000.0
            layers.put("serving.overhead_ms_p50", request_p50 - handle_p50 - codec_ms, "ms")
            layers.put("serving.requests_dispatched", info["requests_dispatched"], "count")
            layers.put("serving.busy_rejections", info["busy_rejections"], "count")
            layers.put("serving.busy_retries", load.busy_retries, "count")
            layers.put("serving.errors", tally.errors, "count")
    finally:
        errors = []
        for started_daemon in daemons:
            try:
                started_daemon.stop()
            except (RuntimeError, OSError) as exc:
                errors.append(str(exc))
        if errors:
            raise RuntimeError("; ".join(errors))
    notes = [tail_note("latency_tail_ms", quoted)]
    return Outcome(tally, e2e, layers, len(latencies) / window, notes)


def _replay_handle(segment: str, config, requests, expected, tally: Tally) -> List[float]:
    """``WorkerRuntime.handle`` milliseconds over one pass of the requests,
    attached to the daemon's own published segment."""
    runtime = WorkerRuntime(0, config=config)
    runtime.load_segment(segment)
    times: List[float] = []
    try:
        for index, request in enumerate(requests):
            started = time.perf_counter()
            response = runtime.handle(dict(request))
            times.append((time.perf_counter() - started) * 1000.0)
            if response.get("status") != "ok" or _quadruple(response) != expected.get(index):
                tally.fail("wrong", f"item {index}: in-process worker answered {response}")
            else:
                tally.ok()
    finally:
        runtime.shutdown()
    return times
