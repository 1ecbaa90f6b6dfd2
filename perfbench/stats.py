"""Statistics and schedules for the service benchmark (stdlib only).

Kept free of any import from the program under test so the self-tests in
``selftest.py`` run without it.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest of these with at least ``MIN_BEYOND`` samples above it; p99 is
#: the ceiling, so more samples steady the tail instead of raising it.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(q: float, count: int) -> int:
    # Rounded first so that 99% of 1000 is rank 990, not 991 via float noise.
    return math.ceil(round(q * count / 100.0, 9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, _rank(q, len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest ladder percentile leaving ``min_beyond`` samples above it.

    With nearest rank, ``count - ceil(q/100 * count)`` samples lie beyond
    the ``q``-th percentile.  ``None`` when even the median has too few.
    """
    for q in TAIL_LADDER:
        if count - _rank(q, count) >= min_beyond:
            return q
    return None


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the reportable tail of ``values``."""
    q = tail_percentile(len(values))
    if q is None:
        raise ValueError(
            f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond the median"
        )
    return q, percentile(values, q)


def balanced_keys(rng: random.Random, keys: int) -> Iterator[int]:
    """Key indices in seeded blocks, each block every key once.

    Every seed reads each key equally often (to within one block), so the
    seed moves only the order: with artifacts from 1.6 KB to 1 MB the
    latency distribution has one mode per key, and unequal key counts
    would shift its percentiles from seed to seed.
    """
    while True:
        block = list(range(keys))
        rng.shuffle(block)
        yield from block


def open_loop_schedule(
    seed: int, rate: float, duration: float, keys: int
) -> List[Tuple[float, int]]:
    """Evenly spaced due times at ``rate`` q/s with a seeded key per slot.

    Returns ``(due offset in s, key index)`` pairs.  The rate is fixed, so
    only the key order depends on the seed.
    """
    stream = balanced_keys(random.Random(f"open-loop/{seed}/{rate}/{keys}"), keys)
    count = int(round(rate * duration))
    return [(i / rate, next(stream)) for i in range(count)]


def closed_loop_keys(seed: int, client: int, keys: int) -> Iterator[int]:
    """An endless seeded key sequence for one closed-loop client."""
    return balanced_keys(random.Random(f"closed-loop/{seed}/{client}/{keys}"), keys)


def seeded_order(seed: int, items: Sequence, label: str) -> list:
    """``items`` in an order fixed by ``seed``."""
    ordered = list(items)
    random.Random(f"order/{label}/{seed}").shuffle(ordered)
    return ordered


def open_loop_latencies(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Per-request ``(latency, lateness)`` in seconds.

    Latency runs from when the request was *due*, not when the generator
    got round to sending it, so a stall also charges every request queued
    behind it; lateness is how far the generator itself fell behind.
    """
    latency = [d - t for t, d in zip(due, done)]
    late = [max(0.0, s - t) for t, s in zip(due, sent)]
    return latency, late


def self_times(spans: Sequence[dict]) -> dict:
    """Span id → duration minus the part of it covered by its children."""
    children: dict = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result
