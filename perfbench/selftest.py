"""Self-tests for the benchmark's own statistics and schedules.

Run with ``python3 perfbench/selftest.py`` (stdlib ``unittest``; needs
nothing from the program under test).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Expected, Served, Tally, adopt_orphans, open_loop, reap_children  # noqa: E402
from stats import (  # noqa: E402
    closed_loop_keys,
    open_loop_latencies,
    open_loop_schedule,
    percentile,
    seeded_order,
    self_times,
    tail,
    tail_percentile,
)


class TailRule(unittest.TestCase):
    """The tail is the highest percentile with at least 10 samples beyond."""

    def beyond(self, values, q):
        cut = percentile(values, q)
        return sum(1 for v in values if v > cut)

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(999), 98.0)
        self.assertEqual(tail_percentile(1200), 99.0)

    def test_smaller_runs_fall_down_the_ladder(self):
        self.assertEqual(tail_percentile(600), 98.0)
        self.assertEqual(tail_percentile(285), 95.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertIsNone(tail_percentile(19))

    def test_p99_is_the_ceiling(self):
        self.assertEqual(tail_percentile(100_000), 99.0)

    def test_chosen_tail_leaves_at_least_ten_distinct_samples_beyond(self):
        for count in (20, 57, 100, 285, 600, 999, 1000, 1200, 5000):
            values = [float(i) for i in range(count)]
            q, value = tail(values)
            self.assertGreaterEqual(self.beyond(values, q), 10, count)
            self.assertEqual(value, percentile(values, q))

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 99), 99)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([3.0], 99), 3.0)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            tail([1.0] * 5)


class OpenLoopTiming(unittest.TestCase):
    """Latency runs from the due time, so a stall charges the queue behind it."""

    def test_latency_counts_from_due_not_send(self):
        due = [0.0, 0.1, 0.2]
        sent = [0.0, 0.5, 0.5]  # the generator stalled until t=0.5
        done = [0.01, 0.51, 0.52]
        latency, late = open_loop_latencies(due, sent, done)
        self.assertEqual([round(x, 6) for x in latency], [0.01, 0.41, 0.32])
        self.assertEqual([round(x, 6) for x in late], [0.0, 0.4, 0.3])

    def test_schedule_is_evenly_spaced_at_the_rate(self):
        schedule = open_loop_schedule(7, 150.0, 2.0, 7)
        self.assertEqual(len(schedule), 300)
        gaps = {round(b[0] - a[0], 9) for a, b in zip(schedule, schedule[1:])}
        self.assertEqual(gaps, {round(1 / 150.0, 9)})
        self.assertTrue(all(0 <= key < 7 for _, key in schedule))

    def test_every_seed_reads_each_key_equally_often(self):
        for seed in range(5):
            keys = [key for _, key in open_loop_schedule(seed, 50.0, 8.4, 7)]
            self.assertEqual(sorted(set(keys.count(k) for k in range(7))), [60])

    def test_a_slow_server_shows_in_latency_not_in_the_send_times(self):
        """Drive ``open_loop`` against a fake connection that answers each
        request 50 ms after the previous answer: requests due every 10 ms
        pile up, and their latency from the due time grows."""

        class SlowConnection:
            def __init__(self):
                self.queue = asyncio.Queue()
                self.ready_at = 0.0

            def send(self, query):
                self.queue.put_nowait(query)

            async def response(self):
                await self.queue.get()
                loop = asyncio.get_running_loop()
                self.ready_at = max(self.ready_at, loop.time()) + 0.05
                await asyncio.sleep(self.ready_at - loop.time())
                return Served("hit", "d", b"x")

        query = ("m", "o")
        expected = Expected(data={query: b"x"}, digest={query: "d"})
        schedule = [(i * 0.01, 0) for i in range(10)]

        async def go():
            return await open_loop([SlowConnection()], schedule, [query], expected, Tally())

        result = asyncio.run(go())
        self.assertEqual(len(result.latency_s), 10)
        self.assertLess(max(result.late_s), 0.03)  # the generator kept time
        # the last request waits behind nine 50 ms answers
        self.assertGreater(result.latency_s[-1], 0.4)
        self.assertEqual(result.latency_s, sorted(result.latency_s))


class Seeds(unittest.TestCase):
    """The same seed gives the same schedule; another seed another one."""

    def test_open_loop_schedule_repeats(self):
        self.assertEqual(open_loop_schedule(3, 150.0, 8.0, 7), open_loop_schedule(3, 150.0, 8.0, 7))
        self.assertNotEqual(open_loop_schedule(3, 150.0, 8.0, 7), open_loop_schedule(4, 150.0, 8.0, 7))

    def test_closed_loop_and_cold_order_repeat(self):
        def first(seed, client):
            return list(itertools.islice(closed_loop_keys(seed, client, 7), 100))

        self.assertEqual(first(5, 1), first(5, 1))
        self.assertNotEqual(first(5, 0), first(5, 1))
        items = ["a", "b", "c", "d", "e", "f"]
        self.assertEqual(seeded_order(9, items, "cold"), seeded_order(9, items, "cold"))
        self.assertEqual(sorted(seeded_order(9, items, "cold")), items)
        orders = {tuple(seeded_order(seed, items, "cold")) for seed in range(20)}
        self.assertGreater(len(orders), 1)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
            {"id": 3, "parent": 1, "start": 5.0, "end": 9.0},
            {"id": 4, "parent": 3, "start": 6.0, "end": 7.0},
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)
        self.assertAlmostEqual(sum(own.values()), 10.0)


class WireChecks(unittest.TestCase):
    def test_a_hit_with_other_bytes_is_a_wrong_byte_failure(self):
        query = ("m", "o")
        expected = Expected()
        tally = Tally()
        import hashlib

        good = Served("cold", hashlib.sha256(b"abc").hexdigest(), b"abc")
        self.assertTrue(expected.learn(query, good, tally))
        self.assertTrue(expected.check(query, Served("hit", good.digest, b"abc"), tally))
        self.assertFalse(expected.check(query, Served("hit", good.digest, b"abd"), tally))
        self.assertEqual((tally.failed, tally.wrong_bytes), (1, 1))
        lying = Served("cold", good.digest, b"abd")
        self.assertFalse(Expected().learn(query, lying, tally))
        self.assertEqual(tally.wrong_bytes, 2)


class Reaping(unittest.TestCase):
    """A run waits for the helpers its processes leave behind."""

    def orphan(self, body: str) -> int:
        """Start a grandchild running ``body`` whose parent exits at once."""
        code = (
            "import subprocess, sys; "
            f"p = subprocess.Popen([sys.executable, '-c', {body!r}], stdout=subprocess.DEVNULL, "
            "stderr=subprocess.DEVNULL); "
            "print(p.pid)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        return int(out.stdout)

    def test_an_orphan_is_adopted_and_waited_for(self):
        self.assertTrue(adopt_orphans())
        pid = self.orphan("import time; time.sleep(0.3)")
        reap_children(grace=5.0)
        self.assertFalse(os.path.exists(f"/proc/{pid}"))

    def test_an_orphan_ignoring_sigterm_is_killed(self):
        self.assertTrue(adopt_orphans())
        pid = self.orphan("import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)")
        reap_children(grace=0.1, timeout=0.5)
        self.assertFalse(os.path.exists(f"/proc/{pid}"))


if __name__ == "__main__":
    unittest.main()
