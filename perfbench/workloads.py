"""The four service workloads, measured from outside a real server.

Every workload reports every end-to-end metric, so each one has the same
shape: launch (``setup_s``), a cold set served sequentially from an empty
cache (``cold_batch_s``, ``cold_artifact_mb``), hot reads of keys already
cached (``hot_p50_ms``, ``hot_p99_ms``, ``hot_capacity_qps``), the
server's peak memory, and, after every server is down, the client-side
replay of the cold artifacts (``verify_s``).  What differs is which
queries are cold, which are read hot, at what rate, and what runs beside
the reads.  README.md gives the reason for each.
"""

from __future__ import annotations

import asyncio
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

from harness import (
    Connection,
    Expected,
    Query,
    Service,
    Tally,
    closed_loop,
    idle_latency,
    launch,
    open_loop,
    serve_cold,
)
from stats import open_loop_schedule, seeded_order, tail


def kbp(free_bits: int) -> Query:
    return (f"kbp24-f{free_bits}", "si-solve")


def standard(length: int) -> Query:
    return (f"seqtrans-standard-L{length}-reliable", "invariant")


def symbolic(length: int) -> Query:
    return (f"seqtrans-symbolic-L{length}-reliable", "si")


FIG1 = ("fig1", "si-solve")
FIG2 = ("fig2", "si-solve")

#: The verdict the client's own replay must reach for each query.
VERDICTS: Dict[Query, str] = {
    **{kbp(k): "well-posed" for k in (8, 9, 10, 11, 12)},
    FIG1: "no-solution",
    FIG2: "well-posed",
    standard(1): "invariant-holds",
    standard(2): "invariant-holds",
    symbolic(8): "si-fixpoint-verified",
    symbolic(10): "si-fixpoint-verified",
}

COLD_CERTIFY = (kbp(11), kbp(12), standard(2), symbolic(10))
#: kbp24-f12 first: it is the oldest entry, so read-under-solve's budget
#: retires it, and never a key that is being read.
WARM = (kbp(12), kbp(8), kbp(10), FIG1, FIG2, symbolic(10), standard(1))
READ_UNDER_SOLVE = (kbp(11), standard(2), kbp(9), symbolic(8))
COLD_FANOUT = (kbp(11), kbp(12))

#: Open-loop rates (q/s).  ``HOT_RATE`` sits well below what the server
#: sustains on a 2-CPU host whose hypervisor steals up to a third of the
#: CPU: nearer saturation, queueing turns steal into 3x latency swings
#: between runs (README.md, "Rates").
HOT_RATE = 50.0
UNDER_SOLVE_RATE = 25.0
CACHE_BUDGET = 2_000_000
#: Loopback ``repro.worker`` daemons behind cold-fanout's server.  One: with
#: two on a 2-CPU host, the slower shard sets the batch time, and steal on
#: either CPU stalls it (README.md, "Steadiness").
FANOUT_DAEMONS = 1
IDLE_PROBES = 200
#: Fresh servers per untraced run; ``cold_batch_s`` is the median over them.
CYCLES = 3
#: Launches per untraced run, the cycles' servers included; ``setup_s`` is
#: the median over them.
SETUP_LAUNCHES = 7
#: Windows of the closed loop; ``hot_cpu_ms`` is the median over them.
CLOSED_WINDOWS = 8


@dataclass
class Run:
    """Everything one run measures, plus its correctness bookkeeping."""

    root: Path
    run_dir: Path
    seed: int
    seconds: float
    traced: bool
    tally: Tally = field(default_factory=Tally)
    expected: Expected = field(default_factory=Expected)
    setup: List[float] = field(default_factory=list)
    cold_batch: List[float] = field(default_factory=list)
    cold_bytes: int = 0
    cold_set: Sequence[Query] = ()
    read_set: Sequence[Query] = ()
    hot_latency: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    capacity: List[float] = field(default_factory=list)
    #: server CPU seconds per hit in each closed-loop window
    hot_cpu: List[float] = field(default_factory=list)
    idle: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    statuses: List[dict] = field(default_factory=list)
    hot_tags: Dict[str, int] = field(default_factory=dict)
    #: read-under-solve's warmed cache, copied for each of its servers
    warm_template: Optional[Path] = None
    tail_q: float = 0.0
    #: the cache of the server whose reads were timed
    hot_cache: Optional[Path] = None
    _launches: int = 0

    def cache_dir(self, name: str) -> Path:
        self._launches += 1
        return self.run_dir / f"cache-{self._launches}-{name}"

    def launch(self, cache: Path, server_args: Sequence[str] = (), remote_workers: int = 0) -> Service:
        service = launch(self.root, self.run_dir, cache, server_args, remote_workers)
        self.setup.append(service.setup_s)
        return service

    def launches(self, count: int, remote_workers: int = 0) -> None:
        """``count`` more launches, each timed to its first pong and shut
        down with no work served."""
        for _ in range(count):
            self.launch(self.cache_dir("setup"), remote_workers=remote_workers).close()

    def finish(self, service: Service) -> None:
        """Record a measured server's counters and peak memory, then stop it."""
        try:
            self.statuses.append(service.status())
            self.rss_mb.append(service.peak_rss_mb())
        finally:
            service.close()

    def serve_cold(self, service: Service, queries: Sequence[Query]) -> None:
        wall, nbytes, tags = asyncio.run(
            serve_cold(service.port, queries, self.expected, self.tally)
        )
        for query, tag in zip(queries, tags):
            if tag != "cold":
                self.tally.fail(f"{query}: served {tag!r} from an empty cache")
        self.cold_batch.append(wall)
        self.cold_bytes = nbytes

    def warm(self, service: Service) -> None:
        """Cache the ``WARM`` keys (untimed); ones already cached must hit
        with their cold bytes."""
        asyncio.run(serve_cold(service.port, WARM, self.expected, self.tally))

    def hot(self, service: Service, seconds: Optional[float] = None) -> None:
        """Open loop at ``HOT_RATE`` pipelined over 2 connections, then a
        2-client closed loop in ``CLOSED_WINDOWS`` windows; both read
        ``read_set`` only."""
        seconds = self.seconds if seconds is None else seconds
        window_seconds = self.seconds / 2 / CLOSED_WINDOWS
        self.hot_cache = service.cache_dir

        async def phase() -> None:
            conns = [await Connection.open(service.port) for _ in range(2)]
            try:
                schedule = open_loop_schedule(self.seed, HOT_RATE, seconds, len(self.read_set))
                result = await open_loop(conns, schedule, self.read_set, self.expected, self.tally)
                self._absorb(result)
                # Each window ends with the server idle, so its CPU time is
                # that of the window's hits alone; the median over windows
                # drops the ones a CPU stall from outside lands in.
                for window in range(CLOSED_WINDOWS):
                    cpu = service.cpu_seconds()
                    qps, closed = await closed_loop(
                        conns, self.read_set, self.expected, self.tally, window_seconds,
                        self.seed * CLOSED_WINDOWS + window,
                    )
                    if closed:
                        self.capacity.append(qps)
                        self.hot_cpu.append((service.cpu_seconds() - cpu) / closed)
                if self.traced:
                    self.idle.extend(
                        await idle_latency(
                            conns[0], self.read_set, self.expected, self.tally, IDLE_PROBES
                        )
                    )
            finally:
                for conn in conns:
                    await conn.close()

        asyncio.run(phase())

    def _absorb(self, result) -> None:
        self.hot_latency.extend(result.latency_s)
        self.late.extend(result.late_s)
        for tag, count in result.tags.items():
            self.hot_tags[tag] = self.hot_tags.get(tag, 0) + count

    # ------------------------------------------------------------------

    def end_to_end(self, verify_s: float) -> Dict[str, float]:
        q, p_tail = tail(self.hot_latency)
        self.tail_q = q
        return {
            "setup_s": median(self.setup),
            "cold_batch_s": median(self.cold_batch),
            "verify_s": verify_s,
            "cold_artifact_mb": self.cold_bytes / 1e6,
            "hot_cpu_ms": 1e3 * median(self.hot_cpu),
            "hot_p50_ms": 1e3 * median(self.hot_latency),
            "hot_p99_ms": 1e3 * p_tail,
            "hot_capacity_qps": median(self.capacity),
            "server_peak_rss_mb": median(self.rss_mb),
        }


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------


def cold_workload(run: Run, cold: Sequence[Query], remote_workers: int) -> None:
    """Fresh server per cycle on an empty cache; hot reads of the cold keys
    after the last cycle."""
    order = seeded_order(run.seed, cold, "cold")
    run.cold_set = order
    run.read_set = WARM
    cycles = 1 if run.traced else CYCLES
    if not run.traced:
        run.launches(SETUP_LAUNCHES - cycles, remote_workers)
    for cycle in range(cycles):
        service = run.launch(run.cache_dir("cold"), remote_workers=remote_workers)
        try:
            run.serve_cold(service, order)
            if cycle == cycles - 1:
                run.warm(service)
                run.hot(service)
        except BaseException:
            service.close()
            raise
        run.finish(service)


def cold_certify(run: Run) -> None:
    cold_workload(run, COLD_CERTIFY, remote_workers=0)


def cold_fanout(run: Run) -> None:
    cold_workload(run, COLD_FANOUT, remote_workers=FANOUT_DAEMONS)


def hot_read(run: Run) -> None:
    """Warm 7 keys (1.6 KB to 1 MB), then read them at a fixed rate."""
    order = seeded_order(run.seed, WARM, "warm")
    run.cold_set = order
    run.read_set = WARM
    cycles = 1 if run.traced else CYCLES
    if not run.traced:
        run.launches(SETUP_LAUNCHES - cycles)
    for cycle in range(cycles):
        service = run.launch(run.cache_dir("hot"))
        try:
            run.serve_cold(service, order)
            if cycle == cycles - 1:
                run.hot(service)
        except BaseException:
            service.close()
            raise
        run.finish(service)


def read_under_solve(run: Run) -> None:
    """Reads at 25 q/s on one connection while the other streams cold
    solves into a cache capped at 2 MB."""
    budget = ["--cache-max-bytes", str(CACHE_BUDGET)]
    template = run.warm_template = run.cache_dir("warm-template")
    service = run.launch(template, budget)
    try:
        # kbp24-f12 stays first (oldest); the rest in seeded order.
        warm = (WARM[0],) + tuple(seeded_order(run.seed, WARM[1:], "warm"))
        asyncio.run(serve_cold(service.port, warm, run.expected, run.tally))
    finally:
        service.close()
    run.read_set = WARM[1:]
    order = seeded_order(run.seed, READ_UNDER_SOLVE, "cold")
    run.cold_set = order
    cycles = 1 if run.traced else CYCLES
    for cycle in range(cycles):
        cache = run.cache_dir("under-solve")
        shutil.copytree(template, cache)
        service = run.launch(cache, budget)
        try:
            run.cold_batch.append(_under_solve_cycle(run, service, order, cycle))
            if cycle == cycles - 1:
                run.hot(service, seconds=0.0)
        except BaseException:
            service.close()
            raise
        run.finish(service)


def _under_solve_cycle(run: Run, service: Service, order: Sequence[Query], cycle: int) -> float:
    async def phase() -> float:
        reader = await Connection.open(service.port)
        try:
            # One untimed hit per read key: the fresh server builds each
            # key's model on first touch.
            await idle_latency(reader, run.read_set, run.expected, run.tally, len(run.read_set))
            stop = asyncio.Event()

            async def stream():
                try:
                    return await serve_cold(service.port, order, run.expected, run.tally)
                finally:
                    stop.set()

            streaming = asyncio.ensure_future(stream())
            schedule = open_loop_schedule(
                run.seed * 1000 + cycle, UNDER_SOLVE_RATE, 600.0, len(run.read_set)
            )
            result = await open_loop(
                [reader], schedule, run.read_set, run.expected, run.tally, stop=stop
            )
            wall, nbytes, tags = await streaming
        finally:
            await reader.close()
        run._absorb(result)
        run.cold_bytes = nbytes
        for query, tag in zip(order, tags):
            if tag != "cold":
                run.tally.fail(f"{query}: served {tag!r} from a cache without it")
        return wall

    return asyncio.run(phase())


WORKLOADS = {
    "cold-certify": cold_certify,
    "hot-read": hot_read,
    "read-under-solve": read_under_solve,
    "cold-fanout": cold_fanout,
}
