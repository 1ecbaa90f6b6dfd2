"""Shared-memory arena dispatch: identity, lifecycle, and leak hygiene.

The arena promises three things and this file holds it to all of them:
worker evaluation through zero-copy views of the segment is
*bit-identical* to evaluation over the compiled plan bytes (one
:class:`PhiPlan` class serves both); shard dispatch ships O(shard-descriptor)
bytes — two small ints — regardless of state-space size; and no named
segment survives a solve, whatever killed it (clean exit, pool respawn,
``SimulatedKill`` mid-journal, serial degradation).
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.core import compile_phi_plan, solve_si, solve_si_parallel
from repro.predicates import Predicate, using_backend
from repro.predicates.arena import (
    SEGMENT_PREFIX,
    SolveArena,
    attach_plan,
    list_segments,
    sweep_stale_segments,
)
from repro.statespace import BoolDomain, IntRangeDomain, space_of
from repro.unity import Const, Program, Statement, Unary, Var, knows, lnot


def make_kbp(**padding) -> Program:
    """The arena test KBP; ``padding`` adds unused variables (more states,
    same statements and terms)."""
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain(), **padding)
    statements = [
        Statement(
            name="s0",
            targets=("a",),
            exprs=(Const(True),),
            guard=knows("P", Var("b")),
        ),
        Statement(
            name="s1",
            targets=("b",),
            exprs=(Const(False),),
            guard=lnot(knows("Q", Var("c"))),
        ),
        Statement(
            name="s2",
            targets=("c",),
            exprs=(Const(True),),
            guard=knows("Q", Unary("not", Var("a"))) & Var("a"),
        ),
    ]
    return Program(
        space,
        Predicate(space, 1),
        statements,
        processes={"P": ("a", "b"), "Q": ("c",)},
        name="arena-kbp",
    )


@pytest.fixture(scope="module")
def kbp() -> Program:
    return make_kbp()


@pytest.fixture(scope="module")
def serial_report(kbp):
    return solve_si(kbp, parallel="never")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test starts and must end with a clean segment namespace."""
    before = list_segments()
    yield
    leaked = [name for name in list_segments() if name not in before]
    assert not leaked, f"leaked arena segments: {leaked}"


def assert_same_report(reference, report):
    assert [p.mask for p in report.solutions] == [
        p.mask for p in reference.solutions
    ]
    assert report.candidates_checked == reference.candidates_checked


# ----------------------------------------------------------------------
# attach identity
# ----------------------------------------------------------------------


class TestAttachIdentity:
    @pytest.mark.parametrize("backend_name", ["int", "numpy", "robdd"])
    def test_arena_plan_matches_compiled_plan(self, kbp, backend_name):
        """The shm-attached plan evaluates like the bytes-backed one."""
        from repro.predicates.backends import batch_backend_for

        plan = compile_phi_plan(kbp)
        assert plan is not None and isinstance(plan.buffer, bytes)
        arena = SolveArena.build(plan, "f" * 64)
        try:
            attached = attach_plan(arena.layout, kbp.space)
            assert bytes(attached.buffer) == plan.buffer
            candidates = sorted(
                {kbp.init.mask | mask for mask in range(1 << kbp.space.size)}
            )
            with using_backend(backend_name):
                backend = batch_backend_for(kbp.space.size, len(candidates))
                assert backend.batch_phi(attached, candidates) == (
                    backend.batch_phi(plan, candidates)
                )
            attached.close()
        finally:
            arena.close(unlink=True)

    @pytest.mark.parametrize(
        "field", ["init_slot", "poison_slot", "term", "group", "count"]
    )
    def test_layout_indices_are_checked(self, field):
        """A layout naming a slot, term or group table it does not have,
        or a group count no partition can have, is refused before any
        handle is built."""
        from dataclasses import replace

        from repro.predicates.backends.batch import PhiPlan, PlanDecodeError

        plan = compile_phi_plan(make_kbp())
        layout = plan.layout
        if field == "init_slot":
            layout = replace(layout, init_slot=layout.n_statics)
        elif field == "poison_slot":
            stmts = list(layout.statements)
            stmts[0] = replace(stmts[0], poison_slot=-1)
            layout = replace(layout, statements=tuple(stmts))
        elif field == "term":
            stmts = list(layout.statements)
            stmts[0] = replace(stmts[0], guard=(("term", len(layout.terms)),))
            layout = replace(layout, statements=tuple(stmts))
        elif field == "group":
            terms = list(layout.terms)
            terms[0] = replace(terms[0], group_index=len(layout.group_counts))
            layout = replace(layout, terms=tuple(terms))
        else:  # more groups than states: an unbounded numpy allocation
            counts = (layout.size + 1,) + layout.group_counts[1:]
            layout = replace(layout, group_counts=counts)
        with pytest.raises(PlanDecodeError):
            PhiPlan(layout, plan.space, plan.buffer)

    def test_spec_is_a_compact_descriptor(self):
        import pickle

        padded = make_kbp(d=IntRangeDomain(0, 63))  # 512 states
        plan = compile_phi_plan(padded)
        arena = SolveArena.build(plan, "e" * 64)
        try:
            spec_bytes = len(pickle.dumps(arena.layout))
            # The point of the arena: what crosses the pickle boundary is
            # the name-and-offsets descriptor, not the bulk arrays.
            assert spec_bytes * 10 < arena.layout.total_bytes
            assert arena.nbytes == arena.layout.total_bytes
        finally:
            arena.close(unlink=True)


# ----------------------------------------------------------------------
# end-to-end dispatch
# ----------------------------------------------------------------------


class TestDispatch:
    def test_arena_solve_matches_serial(self, kbp, serial_report):
        report = solve_si_parallel(kbp, workers=2, collect_stats=True)
        assert_same_report(serial_report, report)
        stats = report.dispatch.as_dict()
        assert stats["arena_segments"] == 1
        assert stats["arena_bytes"] > 0

    def test_shard_payload_is_descriptor_sized(self, kbp):
        report = solve_si_parallel(kbp, workers=2, collect_stats=True)
        stats = report.dispatch
        assert stats.shards_dispatched >= 2
        # (shard_index, fixed_mask) pickles to a few dozen bytes; the
        # successor arrays and masks never ride along.
        assert stats.bytes_per_shard < 100
        assert stats.init_bytes > 0  # program + arena spec, once per pool

    def test_certificates_identical_with_arenas(self, kbp):
        from repro.certificates.canonical import canonical_dumps

        serial = solve_si(kbp, parallel="never", emit_certificate=True)
        parallel = solve_si_parallel(kbp, workers=2, emit_certificate=True)
        assert canonical_dumps(serial.certificate.to_payload()) == (
            canonical_dumps(parallel.certificate.to_payload())
        )

    def test_in_process_solve_has_no_dispatch_stats(self, kbp, serial_report):
        report = solve_si_parallel(kbp, workers=1)
        assert_same_report(serial_report, report)
        assert report.dispatch is None


# ----------------------------------------------------------------------
# spawn start method
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    "spawn" not in mp.get_all_start_methods(), reason="no spawn here"
)
class TestSpawn:
    def test_spawn_pool_matches_serial(self, kbp, serial_report):
        report = solve_si_parallel(
            kbp, workers=2, start_method="spawn", collect_stats=True
        )
        assert_same_report(serial_report, report)
        assert report.dispatch.start_method == "spawn"
        assert report.dispatch.as_dict()["arena_segments"] == 1

    def test_spawn_replays_backend_selection(self, kbp, serial_report):
        with using_backend("numpy"):
            report = solve_si_parallel(kbp, workers=2, start_method="spawn")
        assert_same_report(serial_report, report)

    def test_spawn_env_knob(self, kbp, serial_report, monkeypatch):
        from repro.core.parallel import START_METHOD_ENV_VAR

        monkeypatch.setenv(START_METHOD_ENV_VAR, "spawn")
        report = solve_si_parallel(kbp, workers=2, collect_stats=True)
        assert_same_report(serial_report, report)
        assert report.dispatch.start_method == "spawn"

    def test_unknown_start_method_is_rejected(self, kbp):
        with pytest.raises(ValueError):
            solve_si_parallel(kbp, workers=2, start_method="teleport")


# ----------------------------------------------------------------------
# lifecycle under faults
# ----------------------------------------------------------------------


class TestFaultLifecycle:
    def test_pool_respawn_reuses_one_arena(self, kbp, serial_report):
        from repro.robustness import FaultPlan

        report = solve_si_parallel(
            kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@1"),
            collect_stats=True,
        )
        assert_same_report(serial_report, report)
        assert not report.fault_log.clean
        # One segment served both the original pool and its respawn.
        assert report.dispatch.as_dict()["arena_segments"] == 1

    def test_kill_and_resume_leaves_no_segment(self, kbp, serial_report, tmp_path):
        from repro.robustness import FaultPlan, SimulatedKill

        journal = tmp_path / "solve.journal"
        with pytest.raises(SimulatedKill):
            solve_si_parallel(
                kbp,
                workers=2,
                checkpoint=journal,
                fault_plan=FaultPlan.parse("kill@2"),
            )
        # The kill unwound through the solve's finally: nothing leaked
        # even though the journal says the sweep is incomplete.
        assert not [n for n in list_segments() if str(os.getpid()) in n]
        resumed = solve_si_parallel(kbp, workers=2, checkpoint=journal)
        assert_same_report(serial_report, resumed)

    def test_serial_degradation_leaves_no_segment(self, kbp, serial_report):
        from repro.robustness import FaultPlan

        report = solve_si_parallel(
            kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@0:times=50"),
            collect_stats=True,
        )
        assert_same_report(serial_report, report)


# ----------------------------------------------------------------------
# stale-segment sweep
# ----------------------------------------------------------------------


class TestStaleSweep:
    def test_dead_creator_segment_is_reaped(self):
        from multiprocessing import shared_memory

        # A PID that cannot be alive: fork one, let it exit, use its PID.
        child = mp.get_context("fork").Process(target=lambda: None)
        child.start()
        dead_pid = child.pid
        child.join()
        name = f"{SEGMENT_PREFIX}{'d' * 12}-{dead_pid}-1"
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        segment.close()
        try:
            assert name in list_segments()
            removed = sweep_stale_segments()
            assert name in removed
            assert name not in list_segments()
        finally:
            if name in list_segments():  # sweep failed; don't leak
                shared_memory.SharedMemory(name=name).unlink()

    def test_live_creator_segment_is_spared(self):
        from multiprocessing import shared_memory

        name = f"{SEGMENT_PREFIX}{'e' * 12}-{os.getpid()}-999"
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        try:
            assert name not in sweep_stale_segments()
            assert name in list_segments()
        finally:
            segment.close()
            segment.unlink()

    def test_sweep_racing_a_live_creator_never_reaps_it(self):
        """Concurrent sweeps against a live creator in another process.

        The sweep's safety claim is per-PID: as long as the creating
        process is alive, its segments survive *any* number of sweeps from
        anywhere — and the moment it dies they are fair game.  Run many
        sweeps in parallel threads while the creator holds its segment,
        then let the creator exit (without unlinking, modelling a hard
        kill) and check one more sweep reaps what the racing ones spared.
        """
        import threading
        from multiprocessing import resource_tracker, shared_memory

        ctx = mp.get_context("fork")
        ready = ctx.Event()
        release = ctx.Event()

        def creator(ready, release):
            name = f"{SEGMENT_PREFIX}{'f' * 12}-{os.getpid()}-1"
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=64
            )
            # Dying without unlinking is the point; keep the tracker from
            # "helpfully" cleaning up at exit so the parent can observe
            # the leaked segment.
            resource_tracker.unregister(segment._name, "shared_memory")
            ready.set()
            release.wait(timeout=30)
            segment.close()
            os._exit(0)

        child = ctx.Process(target=creator, args=(ready, release))
        child.start()
        assert ready.wait(timeout=30)
        name = f"{SEGMENT_PREFIX}{'f' * 12}-{child.pid}-1"
        try:
            assert name in list_segments()
            reaped: list = []
            threads = [
                threading.Thread(
                    target=lambda: reaped.extend(sweep_stale_segments())
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert name not in reaped
            assert name in list_segments()
        finally:
            release.set()
            child.join(timeout=30)
        # The creator is dead now; the same sweep must reap its segment.
        assert name in sweep_stale_segments()
        assert name not in list_segments()
