"""Processes and wire traffic for the service benchmark.

Starts real ``python -m repro.service.server`` and ``python -m
repro.worker`` processes, talks the server's JSONL protocol over its own
sockets (so every byte served is checked here, not by the client library
under test), and drives the cold, open-loop and closed-loop phases.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from stats import closed_loop_keys, open_loop_latencies

HOST = "127.0.0.1"
#: Longest a process may take to come up or go down before the run fails.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
#: Longest one response may take (a cold solve included).
RESPONSE_TIMEOUT = 150.0
#: Client read buffer: large enough that a 1 MB artifact is not read in
#: 64 KiB flow-control steps.
STREAM_LIMIT = 1 << 22

Query = Tuple[str, str]  # (model registry key, obligation)


class BenchError(RuntimeError):
    """The benchmark cannot continue: a process or protocol failure."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def _env(root: Path, tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    return env


def _read_announcement(path: Path, proc: subprocess.Popen, deadline: float) -> dict:
    """The server's ``listening`` line, polled from its stdout log."""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"server exited early with code {proc.returncode}; see {path}")
        try:
            line = path.read_bytes().split(b"\n", 1)
        except OSError:
            line = []
        if len(line) == 2:
            return json.loads(line[0])
        time.sleep(0.002)
    raise BenchError("server did not announce its port in time")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class Service:
    """One server (and its worker daemons), from launch to shutdown."""

    server: subprocess.Popen
    port: int
    workers: List[subprocess.Popen]
    cache_dir: Path
    setup_s: float = 0.0

    def request(self, doc: dict) -> dict:
        """A one-line op on a fresh connection (ping, status, shutdown)."""
        with socket.create_connection((HOST, self.port), timeout=START_TIMEOUT) as sock:
            sock.sendall((json.dumps(doc) + "\n").encode("ascii"))
            with sock.makefile("rb") as rfile:
                line = rfile.readline()
        if not line:
            raise BenchError(f"server closed the connection on {doc}")
        return json.loads(line)

    def status(self) -> dict:
        event = self.request({"op": "status"})
        if event.get("event") != "status":
            raise BenchError(f"expected status, got {event}")
        return event

    def cpu_seconds(self) -> float:
        """CPU time the server's live threads have used so far.

        Summed over ``/proc/<pid>/task/*/schedstat``, which counts in
        nanoseconds where ``/proc/<pid>/stat`` counts 10 ms ticks, so a
        window of half a second reads to well under 1 %.  A thread that
        has exited drops out of the sum; the server's executor threads
        live as long as it does.
        """
        total = 0
        tasks = Path(f"/proc/{self.server.pid}/task")
        for task in tasks.iterdir():
            try:
                total += int((task / "schedstat").read_text(encoding="ascii").split()[0])
            except (OSError, IndexError, ValueError):
                continue  # the thread ended between listing and reading
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.server.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM in /proc status")

    def close(self) -> None:
        try:
            if self.server.poll() is None:
                self.request({"op": "shutdown"})
                self.server.wait(timeout=STOP_TIMEOUT)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            stop_all([self.server, *self.workers])


def _wait_port_file(path: Path, proc: subprocess.Popen, deadline: float) -> int:
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"worker daemon exited early with code {proc.returncode}")
        try:
            text = path.read_text(encoding="ascii").strip()
        except OSError:
            text = ""
        if text.isdigit():
            return int(text)
        time.sleep(0.002)
    raise BenchError("worker daemon did not write its port in time")


def start_workers(root: Path, run_dir: Path, count: int, log, deadline: float) -> Tuple[List[subprocess.Popen], List[str]]:
    """``count`` loopback ``python -m repro.worker`` daemons and their addresses."""
    env = _env(root, run_dir / "tmp")
    tag = time.monotonic_ns()
    procs: List[subprocess.Popen] = []
    try:
        port_files = []
        for index in range(count):
            port_file = run_dir / f"worker-{tag}-{index}.port"
            port_files.append(port_file)
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.worker", "--port", "0",
                     "--port-file", str(port_file)],
                    env=env, cwd=str(run_dir), stdin=subprocess.DEVNULL,
                    stdout=log, stderr=log,
                )
            )
        ports = [_wait_port_file(f, w, deadline) for f, w in zip(port_files, procs)]
    except BaseException:
        for proc in procs:
            _stop(proc)
        raise
    return procs, [f"{HOST}:{port}" for port in ports]


def stop_all(procs: Sequence[subprocess.Popen]) -> None:
    for proc in procs:
        _stop(proc)


_PROBE_DATA = bytes(range(256)) * 1024


def _speed_probe() -> float:
    """Seconds for a fixed piece of Python work that uses no program code:
    big-integer bit operations, dict updates and sha256."""
    start = time.perf_counter()
    mask = (1 << 4096) - 1
    acc = 0x9E3779B97F4A7C15
    for i in range(6000):
        acc = ((acc << 1) ^ (acc >> 3) ^ i) & mask
    counts: Dict[int, int] = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    hashlib.sha256(_PROBE_DATA).digest()
    return time.perf_counter() - start


def pin_to_fastest_cpu(repeats: int = 7) -> Dict[int, float]:
    """Pin this process, and so every process it starts, to the usable CPU
    that runs the speed probe fastest right now.

    The vCPUs of a shared VM do not run at one speed: while the host is
    busy one of them can run 1.6x slower than the other, and which one
    changes over minutes.  On one chosen CPU a run measures the program,
    not where the scheduler happened to place it.  Returns each CPU's
    median probe time in seconds.
    """
    cpus = sorted(os.sched_getaffinity(0))
    speeds: Dict[int, float] = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        _speed_probe()
        speeds[cpu] = sorted(_speed_probe() for _ in range(repeats))[repeats // 2]
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
    return speeds


#: ``prctl`` option that makes the caller inherit its descendants' orphans.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the reaper of this process's orphaned descendants.

    A server or daemon exits before its own helpers do (multiprocessing's
    resource tracker sees its parent's pipe close and only then exits).
    As a subreaper this process inherits such helpers instead of init, so
    :func:`reap_children` can wait for every one before the run ends.
    Returns whether the kernel accepted the request.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> List[int]:
    """Pids whose parent is this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_children(grace: float = 2.0, timeout: float = STOP_TIMEOUT) -> None:
    """Stop every child this process still has and wait until each has ended.

    This process's own resource tracker is closed the way multiprocessing
    closes it at exit, but waited for here.  Other children (adopted
    orphans) get ``grace`` seconds to end by themselves, then SIGTERM,
    and SIGKILL once ``timeout`` has passed.
    """
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    start = time.monotonic()
    sent: Dict[int, int] = {}
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        waited = time.monotonic() - start
        if waited > grace:
            sig = signal.SIGKILL if waited > timeout else signal.SIGTERM
            for child in _children():
                if sent.get(child) != sig:
                    sent[child] = sig
                    try:
                        os.kill(child, sig)
                    except ProcessLookupError:
                        pass
        time.sleep(0.005)


def launch(
    root: Path,
    run_dir: Path,
    cache_dir: Path,
    server_args: Sequence[str] = (),
    remote_workers: int = 0,
) -> Service:
    """Start worker daemons (if any) and the server; time it to first pong."""
    env = _env(root, run_dir / "tmp")
    workers: List[subprocess.Popen] = []
    server: Optional[subprocess.Popen] = None
    tag = time.monotonic_ns()
    log = open(run_dir / f"processes-{tag}.log", "wb")
    start = time.perf_counter()
    deadline = time.monotonic() + START_TIMEOUT
    try:
        args = list(server_args)
        if remote_workers:
            workers, addresses = start_workers(root, run_dir, remote_workers, log, deadline)
            args += ["--workers", ",".join(addresses)]
        announce_path = run_dir / f"server-{tag}.out"
        with open(announce_path, "wb") as out:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.service.server", "--port", "0",
                 "--cache-dir", str(cache_dir), *args],
                env=env, cwd=str(run_dir), stdin=subprocess.DEVNULL,
                stdout=out, stderr=log,
            )
        announce = _read_announcement(announce_path, server, deadline)
        service = Service(server, int(announce["port"]), workers, cache_dir)
        pong = service.request({"op": "ping"})
        if pong.get("event") != "pong":
            raise BenchError(f"expected pong, got {pong}")
        service.setup_s = time.perf_counter() - start
        return service
    except BaseException:
        stop_all(([server] if server else []) + workers)
        raise
    finally:
        log.close()


# ----------------------------------------------------------------------
# the wire
# ----------------------------------------------------------------------


class ServedError(RuntimeError):
    """The server answered a solve with an error event or broken bytes."""


@dataclass
class Served:
    cache: str
    digest: str
    data: bytes


class Connection:
    """One pipelined JSONL connection; responses arrive in request order."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(HOST, port, limit=STREAM_LIMIT)
        return cls(reader, writer)

    def send(self, query: Query) -> None:
        model, obligation = query
        line = json.dumps({"op": "solve", "model": model, "obligation": obligation})
        self.writer.write(line.encode("ascii") + b"\n")

    async def response(self) -> Served:
        while True:
            line = await asyncio.wait_for(self.reader.readline(), RESPONSE_TIMEOUT)
            if not line:
                raise ServedError("server closed the connection")
            event = json.loads(line)
            kind = event.get("event")
            if kind in ("accepted", "progress"):
                continue
            if kind == "artifact":
                data = await self.reader.readexactly(int(event["bytes"]))
                return Served(event.get("cache", ""), event.get("digest", ""), data)
            raise ServedError(f"server answered {event}")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Tally:
    """Correctness bookkeeping shared by every phase of a run."""

    attempted: int = 0
    failed: int = 0
    wrong_bytes: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, why: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong_bytes += int(wrong)
        if len(self.errors) < 20:
            self.errors.append(why)


@dataclass
class Expected:
    """The bytes each query key must be served, fixed by its cold solve."""

    data: Dict[Query, bytes] = field(default_factory=dict)
    digest: Dict[Query, str] = field(default_factory=dict)

    def learn(self, query: Query, served: Served, tally: Tally) -> bool:
        digest = hashlib.sha256(served.data).hexdigest()
        if digest != served.digest:
            tally.fail(f"{query}: advertised digest {served.digest} != bytes {digest}", wrong=True)
            return False
        if query in self.data and self.data[query] != served.data:
            tally.fail(f"{query}: cold bytes differ from an earlier cold solve", wrong=True)
            return False
        self.data[query] = served.data
        self.digest[query] = digest
        return True

    def check(self, query: Query, served: Served, tally: Tally) -> bool:
        """A hit must be byte-identical to the cold bytes for its key."""
        if served.digest != self.digest[query] or served.data != self.data[query]:
            tally.fail(f"{query}: hot bytes differ from the cold bytes", wrong=True)
            return False
        return True


async def serve_cold(
    port: int, queries: Sequence[Query], expected: Expected, tally: Tally
) -> Tuple[float, int, List[str]]:
    """Serve ``queries`` one after another; ``(wall s, bytes, cache tags)``."""
    conn = await Connection.open(port)
    total = 0
    tags = []
    try:
        start = time.perf_counter()
        for query in queries:
            tally.attempted += 1
            conn.send(query)
            try:
                served = await conn.response()
            except (ServedError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
                tally.fail(f"{query}: {exc}")
                continue
            tags.append(served.cache)
            total += len(served.data)
            expected.learn(query, served, tally)
        wall = time.perf_counter() - start
    finally:
        await conn.close()
    return wall, total, tags


@dataclass
class OpenLoopResult:
    latency_s: List[float]
    late_s: List[float]
    tags: collections.Counter


async def open_loop(
    conns: Sequence[Connection],
    schedule: Sequence[Tuple[float, int]],
    queries: Sequence[Query],
    expected: Expected,
    tally: Tally,
    stop: Optional[asyncio.Event] = None,
) -> OpenLoopResult:
    """Send each request when due, round-robin over ``conns``, pipelined.

    Stops issuing once ``stop`` is set; every request sent is still
    awaited.  Only successful, byte-correct responses contribute latency.
    """
    loop = asyncio.get_running_loop()
    inboxes: List[asyncio.Queue] = [asyncio.Queue() for _ in conns]
    due, sent, done = [], [], []
    tags: collections.Counter = collections.Counter()

    async def receive(index: int) -> None:
        broken = False
        while True:
            item = await inboxes[index].get()
            if item is None:
                return
            query, due_at, sent_at = item
            if broken:
                tally.fail(f"{query}: connection already failed")
                continue
            try:
                served = await conns[index].response()
            except (ServedError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
                # The stream cannot be resynchronized after a broken reply.
                broken = not isinstance(exc, ServedError)
                tally.fail(f"{query}: {exc}")
                continue
            finished = loop.time()
            tags[served.cache] += 1
            if expected.check(query, served, tally):
                due.append(due_at)
                sent.append(sent_at)
                done.append(finished)

    receivers = [asyncio.ensure_future(receive(i)) for i in range(len(conns))]
    try:
        start = loop.time() + 0.01
        for slot, (offset, key) in enumerate(schedule):
            if stop is not None and stop.is_set():
                break
            due_at = start + offset
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            index = slot % len(conns)
            query = queries[key]
            tally.attempted += 1
            conns[index].send(query)
            inboxes[index].put_nowait((query, due_at, loop.time()))
        for inbox in inboxes:
            inbox.put_nowait(None)
        await asyncio.gather(*receivers)
    finally:
        for task in receivers:
            task.cancel()
    latency, late = open_loop_latencies(due, sent, done)
    return OpenLoopResult(latency, late, tags)


async def closed_loop(
    conns: Sequence[Connection],
    queries: Sequence[Query],
    expected: Expected,
    tally: Tally,
    seconds: float,
    seed: int,
) -> Tuple[float, int]:
    """Each client sends its next request when the last one completes.

    Returns ``(completed per second, completed)``.
    """
    start = time.perf_counter()
    end = start + seconds
    finished: List[float] = []

    async def client(index: int) -> int:
        conn = conns[index]
        count = 0
        for key in closed_loop_keys(seed, index, len(queries)):
            if time.perf_counter() >= end:
                break
            query = queries[key]
            tally.attempted += 1
            conn.send(query)
            try:
                served = await conn.response()
            except (ServedError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
                tally.fail(f"{query}: {exc}")
                break
            if expected.check(query, served, tally):
                count += 1
        finished.append(time.perf_counter())
        return count

    counts = await asyncio.gather(*(client(i) for i in range(len(conns))))
    total = sum(counts)
    return total / (max(finished) - start), total


async def idle_latency(
    conn: Connection, queries: Sequence[Query], expected: Expected, tally: Tally, count: int
) -> List[float]:
    """Sequential hits on one otherwise idle connection, each timed alone."""
    samples = []
    for i in range(count):
        query = queries[i % len(queries)]
        tally.attempted += 1
        start = time.perf_counter()
        conn.send(query)
        try:
            served = await conn.response()
        except ServedError as exc:
            tally.fail(f"{query}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        if expected.check(query, served, tally):
            samples.append(elapsed)
    return samples
