"""Local-pool dispatch: the Φ plan by value, identity, lifecycle, teardown.

Pool processes receive the solve's :class:`SweepSpec` and the parent's
compiled plan bytes as initializer arguments and decode them with the one
:class:`PhiPlan` constructor.  This file holds that route to three things:
a decoded copy evaluates *bit-identically* to the compiled plan; shard
dispatch ships O(shard-descriptor) bytes — two small ints — regardless of
state-space size; and reports stay equal to serial whatever the pool goes
through (start method, crash and respawn, ``SimulatedKill`` and resume,
serial degradation, a hard teardown).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import pytest

from repro.core import compile_phi_plan, solve_si, solve_si_parallel
from repro.predicates import Predicate, using_backend
from repro.statespace import BoolDomain, space_of
from repro.unity import Const, Program, Statement, Unary, Var, knows, lnot


def make_kbp() -> Program:
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
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
        name="pool-kbp",
    )


@pytest.fixture(scope="module")
def kbp() -> Program:
    return make_kbp()


@pytest.fixture(scope="module")
def serial_report(kbp):
    return solve_si(kbp, parallel="never")


def assert_same_report(reference, report):
    assert [p.mask for p in report.solutions] == [
        p.mask for p in reference.solutions
    ]
    assert report.candidates_checked == reference.candidates_checked


# ----------------------------------------------------------------------
# the plan decoder
# ----------------------------------------------------------------------


class TestPlanDecode:
    @pytest.mark.parametrize("backend_name", ["int", "numpy", "robdd"])
    def test_decoded_copy_matches_compiled_plan(self, kbp, backend_name):
        """A plan decoded from a copy of the bytes — what a pool process
        or a daemon holds — evaluates like the compiled one."""
        from repro.predicates.backends import batch_backend_for
        from repro.predicates.backends.batch import PhiPlan

        plan = compile_phi_plan(kbp)
        assert plan is not None and isinstance(plan.buffer, bytes)
        decoded = PhiPlan(plan.layout, kbp.space, bytes(bytearray(plan.buffer)))
        candidates = sorted(
            {kbp.init.mask | mask for mask in range(1 << kbp.space.size)}
        )
        with using_backend(backend_name):
            backend = batch_backend_for(kbp.space.size, len(candidates))
            assert backend.batch_phi(decoded, candidates) == (
                backend.batch_phi(plan, candidates)
            )

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


# ----------------------------------------------------------------------
# end-to-end dispatch
# ----------------------------------------------------------------------


class TestDispatch:
    def test_pool_solve_matches_serial(self, kbp, serial_report):
        report = solve_si_parallel(kbp, workers=2, collect_stats=True)
        assert_same_report(serial_report, report)
        stats = report.dispatch
        assert stats.transports == ["local"]
        # The initializer arguments carry the plan bytes by value.
        assert stats.init_bytes > len(compile_phi_plan(kbp).buffer)

    def test_shard_payload_is_descriptor_sized(self, kbp):
        report = solve_si_parallel(kbp, workers=2, collect_stats=True)
        stats = report.dispatch
        assert stats.shards_dispatched >= 2
        # (shard_index, fixed_mask) pickles to a few dozen bytes; the
        # successor arrays and masks never ride along.
        assert stats.bytes_per_shard < 100
        assert stats.init_bytes > 0  # spec + plan bytes, once per pool

    def test_certificates_identical_over_a_pool(self, kbp):
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

    def test_spawn_solves_write_no_traceback(self, capfd):
        """A pool process that boots after a fast solve has finished
        still finds its plan: it holds the bytes, there is nothing to
        look up that could have vanished."""
        from repro.certificates.models import build_model

        program = build_model("kbp24-f8").program
        for _ in range(3):
            solve_si_parallel(program, workers=2, start_method="spawn")
        assert "Traceback" not in capfd.readouterr().err


# ----------------------------------------------------------------------
# lifecycle under faults
# ----------------------------------------------------------------------


class TestFaultLifecycle:
    def test_pool_respawn_matches_serial(self, kbp, serial_report):
        from repro.robustness import FaultPlan

        report = solve_si_parallel(
            kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@1"),
            collect_stats=True,
        )
        assert_same_report(serial_report, report)
        assert not report.fault_log.clean

    def test_kill_and_resume_matches_serial(self, kbp, serial_report, tmp_path):
        from repro.robustness import FaultPlan, SimulatedKill

        journal = tmp_path / "solve.journal"
        with pytest.raises(SimulatedKill):
            solve_si_parallel(
                kbp,
                workers=2,
                checkpoint=journal,
                fault_plan=FaultPlan.parse("kill@2"),
            )
        resumed = solve_si_parallel(kbp, workers=2, checkpoint=journal)
        assert_same_report(serial_report, resumed)

    def test_serial_degradation_matches_serial(self, kbp, serial_report):
        from repro.robustness import FaultPlan

        report = solve_si_parallel(
            kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@0:times=50"),
            collect_stats=True,
        )
        assert_same_report(serial_report, report)


# ----------------------------------------------------------------------
# hard teardown
# ----------------------------------------------------------------------


class TestTeardown:
    def test_terminate_kills_a_hung_worker(self, capfd):
        """``terminate`` must kill a worker stuck inside a task, quietly;
        the deadline-driven respawn relies on it."""
        from repro.core.parallel import _resolve_start_method
        from repro.core.transport import LocalPoolTransport, _probe_worker_rss

        transport = LocalPoolTransport(
            workers=1, mp_context=mp.get_context(_resolve_start_method(None))
        )
        future = transport.submit(_probe_worker_rss, 0.0)
        pid = future.result(timeout=30)[0]
        transport.submit(time.sleep, 30)
        time.sleep(0.2)  # let the worker pick the sleep up
        transport.terminate()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and _alive(pid):
            time.sleep(0.05)
        assert not _alive(pid), f"pool worker {pid} outlived terminate()"
        assert capfd.readouterr().err == ""


def _alive(pid: int) -> bool:
    """Whether ``pid`` names a running process (a zombie counts as dead)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: the signal probe is all there is
        return True
